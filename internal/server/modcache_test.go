package server

import (
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"barracuda/internal/bench"
	"barracuda/internal/detector"
	"barracuda/internal/wire"
)

// TestCacheKeyDistinguishesSourceAndConfig: the source is the whole key.
// The daemon runs one detector, so no configuration splits a module's
// entry; the module cache, the source store and (in hex) the fleet ring
// all key a source by one HashSrc (TestEveryRoadKeysBySourceHash).
func TestCacheKeyDistinguishesSourceAndConfig(t *testing.T) {
	base := CacheKey(HashSrc(racySrc))
	if CacheKey(HashSrc(racySrc)) != base {
		t.Error("key not deterministic")
	}
	if CacheKey(HashSrc(racySrc+" ")) == base {
		t.Error("key ignores source")
	}
	h := HashSrc(racySrc)
	if base != hex.EncodeToString(h[:]) {
		t.Errorf("ring key %s is not the source's HashSrc %x", base, h)
	}
}

// TestEveryRoadKeysBySourceHash: each road hands the module cache the
// hash it already holds — a JSON job's from its submission (a bench job's
// of the source it names), a stream's from the upload it verified or the
// store key of a warm hit — and each is the source's HashSrc: one entry
// per source, and the warm stream launch hits the upload's entry.
func TestEveryRoadKeysBySourceHash(t *testing.T) {
	srv, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	for _, req := range []JobRequest{{PTX: racySrc, Buffers: []int{4}}, {Bench: "hashtable"}} {
		code, info, errj := postJob(t, ts, req)
		if code != 202 {
			t.Fatalf("submit: %d %+v", code, errj)
		}
		if info = waitJob(t, ts, info.ID); info.Status != StatusDone {
			t.Fatalf("job: %+v", info)
		}
	}
	streamed := "// streamed\n" + racySrc
	for i, wantWarm := range []bool{false, true} {
		c := dialStream(t, ts.URL, "")
		if _, warm, err := c.UploadModule([]byte(streamed)); err != nil || warm != wantWarm {
			t.Fatalf("upload %d: warm %v, err %v", i, warm, err)
		}
		if err := c.Launch(wire.LaunchSpec{Seq: 1, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4}}); err != nil {
			t.Fatal(err)
		}
		if sums, _, rejects := collect(t, c, 1); len(rejects) != 0 || sums[1].Status != StatusDone || sums[1].CacheHit != wantWarm {
			t.Fatalf("launch %d: %+v %+v", i, sums[1], rejects)
		}
	}
	sched := srv.Scheduler()
	if _, ok := sched.Srcs().Get(HashSrc(streamed)); !ok {
		t.Error("the upload is not stored under its HashSrc")
	}
	cache := sched.Cache()
	cache.mu.Lock()
	defer cache.mu.Unlock()
	for _, src := range []string{racySrc, bench.ByName("hashtable").PTX(), streamed} {
		if _, ok := cache.entries[HashSrc(src)]; !ok {
			t.Errorf("no cache entry under the HashSrc of %.20q", src)
		}
	}
	if len(cache.entries) != 3 {
		t.Errorf("%d cache entries, want 3", len(cache.entries))
	}
}

// acquire leases src's session under its HashSrc.
func acquire(c *ModCache, src string) (*Lease, bool, error) { return c.Acquire(src, HashSrc(src)) }

func TestCacheHitReusesSessionAndBuffers(t *testing.T) {
	c := NewModCache(4)
	l1, hit, err := acquire(c, racySrc)
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

	l2, hit, err := acquire(c, racySrc)
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
		l, _, err := acquire(c, src)
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
	l, hit, err := acquire(c, "// v0\n"+racySrc)
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
	_, _, err := acquire(c, "not ptx at all")
	if err == nil {
		t.Fatal("acquire of invalid source succeeded")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("failed open left %d entries in the cache", st.Entries)
	}
}

func TestCacheSerializesLeases(t *testing.T) {
	c := NewModCache(2)
	l1, _, err := acquire(c, racySrc)
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		l2, _, err := acquire(c, racySrc)
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
