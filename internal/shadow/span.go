// Coalesced-span support: uniform-span summaries over cell runs.
//
// BARRACUDA's logging design (§4.2) leans on coalesced warp accesses —
// 32 lanes touching one contiguous region. A region (one global 64 KiB
// page, or one block's shared slab) can carry *uniform-span summaries*:
// a sorted list of non-overlapping cell runs whose FastTrack metadata is
// described exactly by a compact per-layer (warp, mask, clock, pc, size)
// tuple instead of per-cell epochs. A whole coalesced warp access then
// updates one summary under the region lock instead of up to lanes×size
// cells.
//
// The invariant mirrors the read-epoch/read-map duality of Cell
// (InflateReads): a summary is the compressed form, per-cell epochs the
// inflated form, and the moment any access diverges from the
// summarized pattern — a different address layout, a partial overlap,
// state that a per-lane-rank epoch pair cannot express — the summary is
// *demoted*: materialized back into the exact per-cell epochs the
// per-cell path would have produced, then discarded. Demotion is
// transparent; the per-cell rules never observe that a summary existed.
package shadow

import (
	"maps"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"

	"barracuda/internal/logging"
	"barracuda/internal/vc"
)

// SpanLayer is one access layer (write or read) of a uniform-span
// summary: lane rank k of Mask holds epoch (TIDOf(Warp, lane_k), Clock)
// over the k-th Size-byte slice of the run. A zero Size means the layer
// is absent (zero epochs).
type SpanLayer struct {
	Warp  uint32
	Mask  uint32
	Clock vc.Clock
	PC    uint32
	Size  uint8
}

// Valid reports whether the layer is present.
func (l *SpanLayer) Valid() bool { return l.Size != 0 }

// SpanSum summarizes the cells [Lo, Hi) of a region: every cell's write
// epoch comes from layer W (plus the Atomic bit), every cell's read
// epoch from layer R, and no cell has an inflated read map. Both layers
// cover the exact same cell range; their lane layouts may differ.
type SpanSum struct {
	Lo, Hi int // cell index range within the region
	W, R   SpanLayer
	Atomic bool // the summarized write was atomic
}

// Region is one lockable run of shadow cells: a global 64 KiB page or a
// block's shared-memory slab. Every access to a region's cells holds the
// region lock, which is what lets summaries be installed, answered and
// demoted, and the region refined, without any per-cell locking.
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
	// region critical sections are a summary lookup plus a handful of
	// epoch compares on the fast path, so the uncontended single-CAS cost
	// is what matters.
	lock atomic.Uint32

	// touched records that some cell outside the summaries may be
	// nonzero (any per-cell mutation or demotion sets it). While false,
	// a span over an unsummarized range needs no checks at all — the
	// cells are still virgin. Guarded by lock.
	touched bool

	// sums is the sorted, non-overlapping summary list. Guarded by lock.
	sums []SpanSum

	// reads is the side table of inflated read maps, indexed like cells
	// and nil until the region's first inflation: an entry is non-nil
	// exactly while its cell is ReadShared. It keeps the one pointer a cell
	// would need out of the slab; refine re-keys it and it goes with the
	// region on eviction and compaction. Guarded by lock.
	reads []map[vc.TID]Read

	// The ownership state and the clock bounds backing its exclusive
	// states (see owner.go). Guarded by lock.
	ownState    OwnState
	ownID       uint32
	ownLastWarp uint32
	ownLastMax  vc.Clock
	ownOtherMax vc.Clock

	// lastUse is the LRU stamp and liveMark the has-live-metadata flag,
	// both read without the lock by the bounded-shadow evictor (owner.go).
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

// CellRange maps the byte range [off, off+n) of the region onto its cell
// indices [lo, hi) at the current granule, unclamped: hi > len(Cells())
// means the range runs past the region. Call with the region locked,
// after Fit.
func (r *Region) CellRange(off uint64, n int) (lo, hi int) {
	return int(off >> r.shift), int((off+uint64(n)-1)>>r.shift) + 1
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
// InflateReads and span demotion once more, one level up. While a region
// is word-granular every access to it covered whole words, so the
// granularity-sized cells of one word would have seen the same accesses
// in the same order and hold identical metadata: the word cell IS each
// of them. Refinement therefore replicates every word cell (epochs, PCs,
// atomic bit) into its cells, re-keys the read-map table with a private
// copy of each inflated map per cell, and rescales the summaries' cell
// ranges; a shared slab also gains the clamp cell it was allocated
// without. It never runs backwards.
func (m *Memory) refine(r *Region) {
	k := m.Weight(r)
	m.makeRoom(int64(r.fineCells-len(r.cells)) * cellBytes)
	cells := make([]Cell, r.fineCells)
	if r.touched {
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
	for i := range r.sums {
		r.sums[i].Lo *= k
		r.sums[i].Hi *= k
	}
	m.addResident(int64(len(cells)-len(r.cells)) * cellBytes)
	r.cells = cells
	r.shift = m.shift
	m.wordRegions.Add(-1)
	m.refinements.Add(1)
}

// Touched reports whether any cell outside the summaries may be nonzero.
func (r *Region) Touched() bool { return r.touched }

// SetTouched marks the region's unsummarized cells as possibly nonzero.
func (r *Region) SetTouched() { r.markLive() }

// markLive records that the region now holds metadata (touched cells or,
// via Install, summaries) that an eviction would discard.
func (r *Region) markLive() {
	r.touched = true
	if !r.liveMark.Load() {
		r.liveMark.Store(true)
	}
}

// Sums returns the live summary list (tests and stats).
func (r *Region) Sums() []SpanSum { return r.sums }

// sumRange returns the index range [i, j) of summaries overlapping the
// cell range [lo, hi).
func (r *Region) sumRange(lo, hi int) (int, int) {
	i := sort.Search(len(r.sums), func(k int) bool { return r.sums[k].Hi > lo })
	j := i
	for j < len(r.sums) && r.sums[j].Lo < hi {
		j++
	}
	return i, j
}

// overlaps reports whether a summary overlaps the cells [lo, hi), clamped
// to the last cell as a visit clamps them.
func (r *Region) overlaps(lo, hi int) bool {
	last := len(r.cells) - 1
	_, ov := r.FindSpan(min(lo, last), min(hi, last+1))
	return ov
}

// FindSpan looks up [lo, hi) in the summary list: exact is non-nil when
// a single summary covers exactly that range; overlap reports whether
// any summary overlaps it at all.
func (r *Region) FindSpan(lo, hi int) (exact *SpanSum, overlap bool) {
	i, j := r.sumRange(lo, hi)
	if i == j {
		return nil, false
	}
	if j == i+1 && r.sums[i].Lo == lo && r.sums[i].Hi == hi {
		return &r.sums[i], true
	}
	return nil, true
}

// DemoteOverlapping materializes and removes every summary overlapping
// [lo, hi). Call with the region locked.
func (r *Region) DemoteOverlapping(m *Memory, lo, hi int) { r.demoteOverlapping(m, lo, hi) }

func (r *Region) demoteOverlapping(m *Memory, lo, hi int) {
	if len(r.sums) == 0 {
		return
	}
	i, j := r.sumRange(lo, hi)
	if i == j {
		return
	}
	for k := i; k < j; k++ {
		m.materialize(r, &r.sums[k])
	}
	r.sums = append(r.sums[:i], r.sums[j:]...)
	r.markLive()
}

// Install inserts a summary. The caller must have removed (demoted or
// replaced) everything overlapping [s.Lo, s.Hi) first, and must hold
// the region lock.
func (r *Region) Install(s SpanSum) {
	if !r.liveMark.Load() {
		r.liveMark.Store(true)
	}
	i := sort.Search(len(r.sums), func(k int) bool { return r.sums[k].Lo >= s.Lo })
	r.sums = append(r.sums, SpanSum{})
	copy(r.sums[i+1:], r.sums[i:])
	r.sums[i] = s
}

// LaneAt returns the lane index of the rank-th set bit of mask.
func LaneAt(mask uint32, rank int) int {
	for ; rank > 0; rank-- {
		mask &= mask - 1
	}
	return bits.TrailingZeros32(mask)
}

// materialize writes a summary's exact per-cell state back into the
// cells — span demotion, the analogue of InflateReads. Cells under a
// summary are wholly described by it, so every metadata field is
// (re)written: a missing layer means zero epochs, and no summarized
// cell ever has an inflated read map. Runs under the region lock.
func (m *Memory) materialize(reg *Region, s *SpanSum) {
	gran := reg.Gran()
	for idx := s.Lo; idx < s.Hi; idx++ {
		c := &reg.cells[idx]
		off := (idx - s.Lo) * gran
		*c = Cell{}
		if s.W.Valid() {
			lane := LaneAt(s.W.Mask, off/int(s.W.Size))
			c.SetWrite(vc.Epoch{T: m.geo.TIDOf(int(s.W.Warp), lane), C: s.W.Clock}, s.W.PC, s.Atomic)
		}
		if s.R.Valid() {
			lane := LaneAt(s.R.Mask, off/int(s.R.Size))
			c.SetRead(vc.Epoch{T: m.geo.TIDOf(int(s.R.Warp), lane), C: s.R.Clock}, s.R.PC)
		}
	}
	if reg.reads != nil {
		clear(reg.reads[s.Lo:s.Hi])
	}
}

// SpanRuns splits the byte range [addr, addr+n) of (space, block) — a
// coalesced access of size-byte lanes — into per-region cell runs and
// invokes fn once per run with the region LOCKED and fitted to the
// access (refined first unless the lanes are whole words), the cell
// range [lo, hi) at the region's granule, and the byte offset of the run
// within the whole span. It returns false — without invoking fn at all
// — when the range cannot go down the span fast path: a shared range
// outside the slab (the per-cell path's clamping semantics must win), a
// granularity that does not tile pages, or a region boundary that would
// split one lane's size-byte access.
func (m *Memory) SpanRuns(sc *SpanCache, space logging.SpaceID, block int32, addr uint64, n, size int, fn func(reg *Region, lo, hi, byteOff int)) bool {
	whole := WordShaped(addr, size)
	if space == logging.SpaceShared {
		reg := m.sharedRegion(sc, block)
		reg.Lock()
		defer reg.Unlock()
		m.Fit(reg, whole, addr+uint64(n))
		lo, hi := reg.CellRange(addr, n)
		if hi > len(reg.cells) {
			return false
		}
		fn(reg, lo, hi, 0)
		return true
	}
	if m.shift > pageBits {
		return false
	}
	end := addr + uint64(n)
	// Validate region boundaries first: a page split must fall between
	// two lanes, or rank arithmetic breaks.
	for a := addr; a < end; {
		stop := (a>>pageBits + 1) << pageBits
		if stop >= end {
			break
		}
		if (stop-addr)%uint64(size) != 0 {
			return false
		}
		a = stop
	}
	for a := addr; a < end; {
		stop := (a>>pageBits + 1) << pageBits
		if stop > end {
			stop = end
		}
		reg, off := m.RegionFor(sc, space, block, a)
		reg.Lock()
		m.Fit(reg, whole, off+(stop-a))
		lo, hi := reg.CellRange(off, int(stop-a))
		fn(reg, lo, hi, int(a-addr))
		reg.Unlock()
		a = stop
	}
	return true
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
