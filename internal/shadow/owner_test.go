package shadow

import (
	"testing"

	"barracuda/internal/logging"
)

// TestOwnershipTransitions walks a region through the ownership lattice
// None → Warp → Block → Shared and checks the owner, the clock bounds
// and the counters at every step.
func TestOwnershipTransitions(t *testing.T) {
	m := New(4, 0, spanTestGeo())
	m.EnableOwnership()
	r, _ := m.RegionFor(nil, logging.SpaceGlobal, -1, 0)

	if st, _ := r.Owner(); st != OwnNone {
		t.Fatalf("virgin region owner = %v, want none", st)
	}

	m.Claim(r, 7, 10)
	if st, id := r.Owner(); st != OwnWarp || id != 7 {
		t.Fatalf("after Claim: owner = %v/%d, want warp/7", st, id)
	}
	if lw, lm, om := r.OwnerClocks(); lw != 7 || lm != 10 || om != 0 {
		t.Fatalf("after Claim: clocks = (%d, %d, %d), want (7, 10, 0)", lw, lm, om)
	}

	r.Retain(12)
	r.Retain(5) // lower clock must not shrink the bound
	if _, lm, _ := r.OwnerClocks(); lm != 12 {
		t.Fatalf("after Retain: lastMax = %d, want 12", lm)
	}

	// Another warp of the same block: promote to OwnBlock, folding the
	// previous warp's bound into otherMax.
	m.Rotate(r, OwnBlock, 3, 9, 20)
	if st, id := r.Owner(); st != OwnBlock || id != 3 {
		t.Fatalf("after Rotate: owner = %v/%d, want block/3", st, id)
	}
	if lw, lm, om := r.OwnerClocks(); lw != 9 || lm != 20 || om != 12 {
		t.Fatalf("after Rotate: clocks = (%d, %d, %d), want (9, 20, 12)", lw, lm, om)
	}

	m.Inflate(r)
	if st, _ := r.Owner(); st != OwnShared {
		t.Fatalf("after Inflate: owner = %v, want shared", st)
	}
	m.Inflate(r) // sticky: inflating a shared region counts nothing

	st := m.Stats()
	if st.Claims != 1 || st.Promotions != 1 || st.Inflations != 1 {
		t.Fatalf("counters = claims %d / promotions %d / inflations %d, want 1/1/1",
			st.Claims, st.Promotions, st.Inflations)
	}

	// The untracked-access hook on a virgin region goes straight to
	// shared (the accessing warp is unknown) but is not an inflation of
	// exclusive state.
	r2, _ := m.RegionFor(nil, logging.SpaceGlobal, -1, 4*PageBytes)
	r2.inflateOwner(m)
	if st, _ := r2.Owner(); st != OwnShared {
		t.Fatalf("untracked access: owner = %v, want shared", st)
	}
	if got := m.Stats().Inflations; got != 1 {
		t.Fatalf("inflations after untracked hook = %d, want still 1", got)
	}
}

// TestBoundedEviction checks the LRU byte cap: residency never exceeds
// the cap in single-threaded use, the coldest region goes first, the
// generation moves so caches revalidate, and PrecisionDegraded latches
// exactly when a live region is discarded.
func TestBoundedEviction(t *testing.T) {
	m := New(4, 0, spanTestGeo())
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
	r2.SetTouched()
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
	m := New(4, 64, spanTestGeo())
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

	un := New(4, 64, spanTestGeo())
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
	m := New(1, 256, spanTestGeo())
	r, _ := m.RegionFor(nil, logging.SpaceShared, 3, 0)
	r.SetTouched()
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
	if fresh.Touched() {
		t.Fatal("reallocated slab is not virgin")
	}
}
