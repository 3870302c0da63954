package shadow

import (
	"maps"
	"runtime"
	"sync/atomic"

	"barracuda/internal/vc"
)

// Region is one lockable run of shadow cells: a global 64 KiB page or a
// block's shared-memory slab. Every access to a region's cells holds the
// region lock, which is what lets the region be refined without any
// per-cell locking.
type Region struct {
	cells []Cell

	// shift is the granule as a power of two: each cell covers 1<<shift
	// bytes, so a byte offset's cell is off>>shift. A region starts
	// word-granular and refine lowers it to the configured granularity,
	// once, under lock — so cell indices are computed under lock too.
	// fineCells is the cell count at the configured granularity.
	shift     uint
	fineCells int

	// lock is a CAS spinlock (0 free, 1 held) rather than a sync.Mutex:
	// region critical sections are a handful of epoch compares per cell,
	// so the uncontended single-CAS cost is what matters.
	lock atomic.Uint32

	// reads is the side table of inflated read maps, indexed like cells
	// and nil until the region's first inflation: an entry is non-nil
	// exactly while its cell is ReadShared. It keeps the one pointer a cell
	// would need out of the slab; refine re-keys it and it goes with the
	// region on eviction and compaction. Guarded by lock.
	reads []map[vc.TID]Read

	// lastUse is the LRU stamp and liveMark the has-live-metadata flag:
	// set by the first walk that readies the region (its cells may be
	// nonzero from then on), read without the lock by the bounded-shadow
	// evictor (bound.go) and, under it, by refine.
	lastUse  atomic.Uint64
	liveMark atomic.Bool
}

// Lock acquires the region spinlock.
func (r *Region) Lock() {
	for !r.lock.CompareAndSwap(0, 1) {
		for i := 0; i < 8; i++ {
			if r.lock.Load() == 0 {
				break
			}
		}
		if r.lock.Load() != 0 {
			runtime.Gosched()
		}
	}
}

// TryLock attempts the region spinlock without spinning. The bounded-
// shadow evictor uses it so an in-use region (possibly locked by the
// very goroutine that triggered eviction) is skipped instead of
// deadlocked on.
func (r *Region) TryLock() bool { return r.lock.CompareAndSwap(0, 1) }

// Unlock releases the region spinlock.
func (r *Region) Unlock() { r.lock.Store(0) }

// Cells exposes the region's cell slab (callers hold the region lock).
func (r *Region) Cells() []Cell { return r.cells }

// Gran returns the bytes each of the region's cells covers right now
// (callers hold the region lock).
func (r *Region) Gran() int { return 1 << r.shift }

// CellAt returns the index of the cell covering byte off of the region
// at the current granule, clamped to the last cell (the one out-of-slab
// shared bytes land on). The clamp is taken in uint64, so no offset gives
// a negative index. Call with the region locked, after Fit.
func (r *Region) CellAt(off uint64) int {
	return int(min(off>>r.shift, uint64(len(r.cells)-1)))
}

// Weight returns how many configured-granule cells one cell of the
// region stands for: 1 once refined, word/granularity while the region
// is word-granular. A race found (or a same-value write filtered) on a
// word cell is what each of its weight byte cells would have found, so
// reports and counters scale by it.
func (m *Memory) Weight(r *Region) int { return 1 << (r.shift - m.shift) }

// Fit readies a locked region for an access whose last byte offset is
// end-1: a word-granular region stays so only if the access is made of
// whole aligned words (whole) that all lie inside its word cells;
// otherwise it is refined to the configured granularity first.
func (m *Memory) Fit(r *Region, whole bool, end uint64) {
	if r.shift != m.shift && (!whole || end > uint64(len(r.cells))<<r.shift) {
		m.refine(r)
	}
}

// refine splits a word-granular region into cells of the configured
// granularity (region lock held) — the compressed/inflated duality of
// InflateReads once more, one level up. While a region is word-granular
// every access to it covered whole words, so the granularity-sized cells
// of one word would have seen the same accesses in the same order and
// hold identical metadata: the word cell IS each of them. Refinement
// therefore replicates every word cell (epochs, PCs, atomic bit) into its
// cells and re-keys the read-map table with a private copy of each
// inflated map per cell; a shared slab also gains the clamp cell it was
// allocated without. It never runs backwards.
func (m *Memory) refine(r *Region) {
	k := m.Weight(r)
	m.makeRoom(int64(r.fineCells-len(r.cells)) * cellBytes)
	cells := make([]Cell, r.fineCells)
	if r.liveMark.Load() {
		for i, c := range r.cells {
			for j := i * k; j < (i+1)*k; j++ {
				cells[j] = c
			}
		}
	}
	if r.reads != nil {
		reads := make([]map[vc.TID]Read, len(cells))
		for i, readers := range r.reads {
			for j := i * k; readers != nil && j < (i+1)*k; j++ {
				reads[j] = maps.Clone(readers)
			}
		}
		r.reads = reads
	}
	m.addResident(int64(len(cells)-len(r.cells)) * cellBytes)
	r.cells = cells
	r.shift = m.shift
	m.wordRegions.Add(-1)
	m.refinements.Add(1)
}

// markLive records that the region may now hold metadata an eviction
// would discard.
func (r *Region) markLive() {
	if !r.liveMark.Load() {
		r.liveMark.Store(true)
	}
}

// sharedRegion resolves a block's shared slab through the worker cache.
func (m *Memory) sharedRegion(sc *SpanCache, block int32) *Region {
	m.validateCache(sc)
	var reg *Region
	if sc != nil && sc.shared != nil && sc.sharedBlock == block {
		reg = sc.shared
	} else {
		reg = m.sharedSlab(block)
		if sc != nil {
			sc.sharedBlock = block
			sc.shared = reg
		}
	}
	if m.capBytes > 0 {
		m.stamp(reg)
	}
	return reg
}
