package shadow

import (
	"testing"

	"barracuda/internal/logging"
)

// TestBoundedEviction checks the LRU byte cap: residency never exceeds
// the cap in single-threaded use, the coldest region goes first, the
// generation moves so caches revalidate, and PrecisionDegraded latches
// exactly when a live region is discarded.
func TestBoundedEviction(t *testing.T) {
	m := New(4, 0)
	pageBytes := int64(PageBytes/4) * cellBytes
	m.SetCapBytes(2 * pageBytes)

	addr := func(i int) uint64 { return uint64(i) * PageBytes }
	r0, _ := m.RegionFor(nil, logging.SpaceGlobal, -1, addr(0))
	m.RegionFor(nil, logging.SpaceGlobal, -1, addr(1))
	m.RegionFor(nil, logging.SpaceGlobal, -1, addr(0)) // re-touch: page 1 is now coldest

	gen := m.Generation()
	m.RegionFor(nil, logging.SpaceGlobal, -1, addr(2)) // must evict page 1

	if got := m.ResidentBytes(); got > 2*pageBytes {
		t.Fatalf("resident = %d bytes, cap = %d", got, 2*pageBytes)
	}
	st := m.Stats()
	if st.Evictions != 1 || st.GlobalPages != 2 {
		t.Fatalf("evictions = %d pages = %d, want 1 eviction leaving 2 pages", st.Evictions, st.GlobalPages)
	}
	if st.LiveEvictions != 0 || st.PrecisionDegraded {
		t.Fatalf("evicting a virgin page must not degrade precision: %+v", st)
	}
	if m.Generation() == gen {
		t.Fatal("eviction did not bump the shadow generation")
	}
	if again, _ := m.RegionFor(nil, logging.SpaceGlobal, -1, addr(0)); again != r0 {
		t.Fatal("LRU evicted the recently-used page instead of the coldest")
	}

	// Mark the coldest page live, then force another eviction: precision
	// is now honestly degraded.
	r2, _ := m.RegionFor(nil, logging.SpaceGlobal, -1, addr(2))
	r2.markLive()
	m.RegionFor(nil, logging.SpaceGlobal, -1, addr(0))
	m.RegionFor(nil, logging.SpaceGlobal, -1, addr(3)) // evicts live page 2
	st = m.Stats()
	if st.LiveEvictions == 0 || !st.PrecisionDegraded {
		t.Fatalf("live eviction must latch PrecisionDegraded: %+v", st)
	}
	if m.PeakResidentBytes() > 2*pageBytes+pageBytes {
		t.Fatalf("peak resident = %d, want at most cap + one transient page", m.PeakResidentBytes())
	}
}

// TestValidateCacheGeneration checks that a worker SpanCache drops its
// region pointers when the shadow generation moves (bounded mode), and
// keeps them when unbounded.
func TestValidateCacheGeneration(t *testing.T) {
	m := New(4, 64)
	m.SetCapBytes(1 << 30)
	var sc SpanCache
	reg, _ := m.RegionFor(&sc, logging.SpaceGlobal, -1, 0)
	if sc.page != reg {
		t.Fatal("cache did not retain the resolved page")
	}
	m.gen.Add(1)
	m.validateCache(&sc)
	if sc.page != nil || sc.shared != nil {
		t.Fatal("stale-generation cache was not dropped")
	}

	un := New(4, 64)
	var usc SpanCache
	ureg, _ := un.RegionFor(&usc, logging.SpaceGlobal, -1, 0)
	un.gen.Add(1)
	un.validateCache(&usc)
	if usc.page != ureg {
		t.Fatal("unbounded shadow must never invalidate worker caches")
	}
}

// TestCompactSharedSlab checks barrier-time compaction: the slab
// unpublishes, residency drops, the generation moves, and a later
// access reallocates a virgin slab.
func TestCompactSharedSlab(t *testing.T) {
	m := New(1, 256)
	r, _ := m.RegionFor(nil, logging.SpaceShared, 3, 0)
	r.markLive()
	want := r.RegionBytes()
	before := m.ResidentBytes()
	gen := m.Generation()

	if got := m.CompactSharedSlab(3); got != want {
		t.Fatalf("CompactSharedSlab released %d bytes, want %d", got, want)
	}
	if m.ResidentBytes() != before-want {
		t.Fatalf("resident = %d after compaction, want %d", m.ResidentBytes(), before-want)
	}
	if m.Generation() == gen {
		t.Fatal("compaction did not bump the shadow generation")
	}
	if got := m.CompactSharedSlab(3); got != 0 {
		t.Fatalf("compacting an absent slab released %d bytes, want 0", got)
	}
	st := m.Stats()
	if st.Compactions != 1 || st.CompactedBytes != want || st.SharedBlocks != 0 {
		t.Fatalf("stats after compaction: %+v", st)
	}

	fresh, _ := m.RegionFor(nil, logging.SpaceShared, 3, 0)
	if fresh == r {
		t.Fatal("access after compaction returned the dropped slab")
	}
	if fresh.liveMark.Load() {
		t.Fatal("reallocated slab is not virgin")
	}
}
