package server

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"barracuda/internal/detector"
)

func TestCacheKeyDistinguishesSourceAndConfig(t *testing.T) {
	base := CacheKey(racySrc, detector.Config{})
	if CacheKey(racySrc, detector.Config{}) != base {
		t.Error("key not deterministic")
	}
	if CacheKey(racySrc+" ", detector.Config{}) == base {
		t.Error("key ignores source")
	}
	if CacheKey(racySrc, detector.Config{NoPrune: true}) == base {
		t.Error("key ignores instrument options")
	}
	if CacheKey(racySrc, detector.Config{Queues: 4}) == base {
		t.Error("key ignores detector config")
	}
	if CacheKey(racySrc, detector.Config{ProducerFilter: true}) == base {
		t.Error("key ignores producer filter")
	}
	// Spelling the defaults out runs the same session: same entry.
	if CacheKey(racySrc, detector.Config{Queues: 1, QueueCap: 4096, Granularity: 1}) != base {
		t.Error("key distinguishes explicit defaults from zero values")
	}
}

func TestCacheHitReusesSessionAndBuffers(t *testing.T) {
	c := NewModCache(4)
	l1, hit, err := c.Acquire(racySrc, detector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first acquire reported a hit")
	}
	sess1 := l1.Session()
	addrs1, err := l1.Buffers([]int{16})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the buffer; a later lease must see it zeroed again.
	if err := sess1.Dev.WriteU32(addrs1[0], 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	l1.Release()

	l2, hit, err := c.Acquire(racySrc, detector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second acquire missed")
	}
	if l2.Session() != sess1 {
		t.Error("hit returned a different session")
	}
	addrs2, err := l2.Buffers([]int{16})
	if err != nil {
		t.Fatal(err)
	}
	if addrs2[0] != addrs1[0] {
		t.Errorf("buffer not reused: %#x vs %#x", addrs2[0], addrs1[0])
	}
	if v, _ := sess1.Dev.ReadU32(addrs2[0]); v != 0 {
		t.Errorf("reused buffer not re-zeroed: %#x", v)
	}
	l2.Release()

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheLRUEvictionClosesSession(t *testing.T) {
	c := NewModCache(2)
	var sessions []*detector.Session
	for i := 0; i < 3; i++ {
		src := fmt.Sprintf("// v%d\n%s", i, racySrc)
		l, _, err := c.Acquire(src, detector.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, l.Session())
		l.Release()
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries and 1 eviction", st)
	}
	// The evicted (oldest) session is closed; the survivors are not.
	if _, err := sessions[0].Detect("k", detector.Launch1D(1, 32, nil, 1000, 0)); !errors.Is(err, detector.ErrClosed) {
		t.Errorf("evicted session Detect err = %v, want ErrClosed", err)
	}
	// Re-acquiring the evicted source is a miss building a new session.
	l, hit, err := c.Acquire("// v0\n"+racySrc, detector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("re-acquire of evicted entry reported a hit")
	}
	if l.Session() == sessions[0] {
		t.Error("re-acquire returned the closed session")
	}
	l.Release()
}

func TestCacheOpenErrorNotCachedAsDead(t *testing.T) {
	c := NewModCache(4)
	_, _, err := c.Acquire("not ptx at all", detector.Config{})
	if err == nil {
		t.Fatal("acquire of invalid source succeeded")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("failed open left %d entries in the cache", st.Entries)
	}
}

func TestCacheSerializesLeases(t *testing.T) {
	c := NewModCache(2)
	l1, _, err := c.Acquire(racySrc, detector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		l2, _, err := c.Acquire(racySrc, detector.Config{})
		if err != nil {
			t.Error(err)
		} else {
			l2.Release()
		}
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("second lease acquired while the first was held")
	case <-time.After(50 * time.Millisecond):
	}
	l1.Release()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("second lease never acquired after release")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Microsecond) // ≤1ms bucket
	h.Observe(3 * time.Millisecond)   // ≤5ms bucket
	h.Observe(time.Minute)            // +Inf bucket
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0].Count != 1 { // le 1ms
		t.Errorf("le_1ms = %d, want 1", s.Buckets[0].Count)
	}
	if s.Buckets[2].Count != 2 { // le 5ms cumulative
		t.Errorf("le_5ms = %d, want 2", s.Buckets[2].Count)
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.LEms != -1 || last.Count != 3 {
		t.Errorf("+Inf bucket = %+v, want all 3", last)
	}
}
