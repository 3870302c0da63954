// Package shadow implements BARRACUDA's host-side shadow memory (§4.3.3):
// per-location race-detection metadata with a FastTrack-style last-write
// epoch, a last-read epoch or sparse read vector clock and an atomic bit,
// plus the synchronization-location map S_x.
//
// The paper gives every location a spinlock and a byte of granularity.
// Here one discipline holds in every configuration: the lock is the
// Region's — one global 64 KiB page or one block's shared slab — and every
// cell is accessed under it; and the granule is a property of each Region:
// it starts with one cell per aligned 4-byte word, the access size of
// nearly all CUDA code, and is refined to the configured granularity, once,
// by the first access that is not made of whole words (see refine).
// Reports stay byte-exact either way.
//
// Global-memory shadow is allocated on demand through a page table,
// because global allocations can occur while a kernel runs; shared-memory
// shadow is small and keyed by thread block. The page table is built for
// many concurrent detector threads: it is a fixed array of stripes, each
// holding an atomically-published immutable page map. Lookups are a
// single atomic load plus a map read; only the rare page allocation takes
// a (striped) mutex, re-checks under the lock, and publishes a copied
// map. On top of that, each detector worker keeps a SpanCache — the last
// global page and last shared-block slab it touched — so the common
// sequential-access pattern resolves regions with no shared-memory
// traffic at all.
package shadow

import (
	"fmt"
	"maps"
	"math/bits"
	"sync"
	"sync/atomic"

	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/vc"
)

// Cell is the metadata for one shadow location. Access it only while
// holding the owning Region's lock.
//
// A cell is 24 bytes with no pointer in it (TestCellLayout), so a slab is
// memory the collector never scans. Bytes 0–15 are W and R — everything
// the detector's inlined fast path reads, the read-shared mark included —
// so 7 of every 8 cells in a slab are checked within one cache line;
// bytes 16–23 are the PCs only reports read. Both flags are packed where
// they cost nothing: Atomic is bit 31 of the write PC (logging.MaxPC keeps
// a PC to 31 bits), and ReadShared is an R whose thread is negative, which
// no real epoch has — while a cell is ReadShared its reads, epochs and
// PCs, are in the read map, which lives in the owning Region's side
// table (Region.Readers) so the slab keeps no pointer.
type Cell struct {
	// W is the epoch of the most recent write and R of the most recent
	// read, a single epoch in the common totally-ordered case.
	W, R vc.Epoch

	// Provenance for race reports: the write's PC with its atomic bit
	// (wpc), and R's PC.
	wpc, rpc uint32
}

// atomicBit is the bit of Cell.wpc that records an atomic write.
const atomicBit = 1 << 31

// readShared is the R of a ReadShared cell: no thread is negative.
var readShared = vc.Epoch{T: -1}

// WritePC returns the PC of the write W.
func (c *Cell) WritePC() uint32 { return c.wpc &^ atomicBit }

// ReadPC returns the PC of the read R (meaningless while ReadShared).
func (c *Cell) ReadPC() uint32 { return c.rpc }

// Atomic reports whether the write W came from an atomic operation.
func (c *Cell) Atomic() bool { return c.wpc&atomicBit != 0 }

// ReadShared reports whether concurrent reads inflated R to a read map.
func (c *Cell) ReadShared() bool { return c.R.T < 0 }

// SetWrite records a write (atomic or not) of epoch e at pc, a PC of at
// most logging.MaxPC. It leaves the read metadata alone.
func (c *Cell) SetWrite(e vc.Epoch, pc uint32, atomic bool) {
	if atomic {
		pc |= atomicBit
	}
	c.W, c.wpc = e, pc
}

// SetRead records the read epoch e at pc; the cell must not be ReadShared.
func (c *Cell) SetRead(e vc.Epoch, pc uint32) { c.R, c.rpc = e, pc }

// Read is one reader's entry in an inflated read map: its clock at the
// read and the read's PC, so a racing write reports each reader's own line.
type Read struct {
	C  vc.Clock
	PC uint32
}

// Readers returns the inflated read map of cell idx, nil unless the cell
// is ReadShared. Like the calls below it runs under the region lock,
// which guards the side table and its maps too.
func (r *Region) Readers(idx int) map[vc.TID]Read {
	if r.reads == nil {
		return nil
	}
	return r.reads[idx]
}

// InflateReads switches cell idx of r to the sparse read vector clock,
// seeding it with the existing read epoch and its PC (READINFLATE), and
// returns it.
func (m *Memory) InflateReads(r *Region, idx int) map[vc.TID]Read {
	c := &r.cells[idx]
	if c.ReadShared() {
		return r.Readers(idx)
	}
	readers := make(map[vc.TID]Read, 4)
	if !c.R.IsZero() {
		readers[c.R.T] = Read{c.R.C, c.rpc}
	}
	c.R, c.rpc = readShared, 0
	m.readInflations.Add(1)
	if r.reads == nil {
		r.reads = make([]map[vc.TID]Read, len(r.cells))
	}
	r.reads[idx] = readers
	return readers
}

// ClearReads resets cell idx's read metadata (the R' = ⊥e step of the
// write and atomic rules).
func (r *Region) ClearReads(idx int) {
	c := &r.cells[idx]
	if c.ReadShared() {
		r.reads[idx] = nil
	}
	c.R = vc.Epoch{}
}

// pageBits is the per-page coverage: 64 KiB of device memory per page.
const pageBits = 16

// PageBytes is the device-memory coverage of one global shadow page —
// exported for callers that lay addresses out by shadow page.
const PageBytes = 1 << pageBits

// wordGranule is the granule regions start at: one cell per aligned
// 4-byte word, the access size of nearly all CUDA code (§4.3.3).
const (
	wordGranule = 1 << wordShift
	wordShift   = 2
)

// WordShaped reports whether the size-byte access at addr is made of
// whole aligned words — the only kind of access a word-granular region
// can take without being refined.
func WordShaped(addr uint64, size int) bool {
	return (addr|uint64(size))&(wordGranule-1) == 0
}

// pageStripes is the fixed stripe count of the global page table. Power
// of two so stripe selection is a mask; 64 stripes keep the per-stripe
// copy-on-write maps tiny and allocation contention negligible.
const pageStripes = 64

// pageMap is an immutable pageID→region snapshot; a stripe publishes a
// fresh copy on every allocation.
type pageMap map[uint64]*Region

// stripe is one shard of the global page table.
type stripe struct {
	pages atomic.Pointer[pageMap] // immutable; nil until first allocation
	mu    sync.Mutex              // serializes allocation (slow path) only
}

// blockMap is the immutable blockID→shared-slab counterpart for shared
// memory, published the same way.
type blockMap map[int32]*Region

// lookup reads key k of a published region table, lock-free: one atomic
// load and a map read.
func lookup[K comparable, M ~map[K]*Region](tab *atomic.Pointer[M], k K) *Region {
	if m := tab.Load(); m != nil {
		return (*m)[k]
	}
	return nil
}

// republish is the tables' one write: it publishes a copy of the table with
// key k set to r, or removed when r is nil, so readers never see a map being
// written. The caller holds the mutex that serializes the table's writers.
func republish[K comparable, M ~map[K]*Region](tab *atomic.Pointer[M], k K, r *Region) {
	next := M{}
	if old := tab.Load(); old != nil {
		next = maps.Clone(*old)
	}
	if r != nil {
		next[k] = r
	} else {
		delete(next, k)
	}
	tab.Store(&next)
}

// resolve returns key k's region of a table, allocating and publishing it on
// first touch. Bounded mode makes room (inside newRegion) BEFORE the table's
// mutex is taken, so the evictor (which republishes victims' tables under
// their own mutexes) never runs inside one — the lock order is evictMu →
// table mutex. Allocation is double-checked: the table is re-read under the
// mutex, and a region that lost the race gives its slab back.
func resolve[K comparable, M ~map[K]*Region](m *Memory, tab *atomic.Pointer[M], mu *sync.Mutex, k K, bytes int64, clamp bool) *Region {
	if r := lookup(tab, k); r != nil {
		return r
	}
	r := m.newRegion(bytes, clamp)
	mu.Lock()
	defer mu.Unlock()
	if won := lookup(tab, k); won != nil {
		slabs.put(r.cells)
		return won
	}
	m.publish(r)
	republish(tab, k, r)
	return r
}

// Memory is the shadow of one device: a striped page table for global
// memory plus per-block shared-memory shadows.
type Memory struct {
	// shift is the configured granule, 1<<shift bytes per cell: the
	// finest, the one a word-granular region refines to.
	shift uint

	stripes [pageStripes]stripe

	sharedPtr atomic.Pointer[blockMap]
	sharedMu  sync.Mutex // allocation slow path only
	shSize    int64

	// released is set by Release: the run is over and its slabs are gone.
	released atomic.Bool

	// Bounded shadow (bound.go). capBytes == 0 means unbounded; gen is
	// bumped on every eviction/compaction so worker SpanCaches drop
	// stale region pointers.
	capBytes       int64
	resident       atomic.Int64
	peakResident   atomic.Int64
	useClock       atomic.Uint64
	gen            atomic.Uint64
	evictMu        sync.Mutex
	evictions      atomic.Uint64
	liveEvictions  atomic.Uint64
	compactions    atomic.Uint64
	compactedBytes atomic.Int64
	degraded       atomic.Bool

	// Per-region granule (see refine): live regions still at the word
	// granule, and how many were refined.
	wordRegions atomic.Int64
	refinements atomic.Uint64

	// readInflations counts cells whose reads inflated to a side-table map.
	readInflations atomic.Uint64

	syncMu sync.Mutex
	syncs  map[Key]*SyncLoc
}

// Key identifies a shadow location: the memory space, the thread block
// (shared memory only; -1 for global) and the address.
type Key struct {
	Space logging.SpaceID
	Block int32
	Addr  uint64
}

// New creates a shadow memory. granularity is the finest bytes covered
// per cell, a power of two (1 for full generality; 4 and above trade
// precision for speed) — cell indices are shifts, and New panics on any
// other granularity, which detector.Validate rejects as an error;
// sharedBytes is the per-block shared-memory size to preallocate.
func New(granularity int, sharedBytes int64) *Memory {
	if granularity < 1 {
		granularity = 1
	}
	if granularity&(granularity-1) != 0 {
		panic(fmt.Sprintf("shadow: granularity %d is not a power of two", granularity))
	}
	return &Memory{
		shift:  uint(bits.TrailingZeros(uint(granularity))),
		shSize: sharedBytes,
		syncs:  make(map[Key]*SyncLoc),
	}
}

// Granularity returns the configured (finest) bytes covered per cell. A
// region may currently be coarser; see Region.Gran.
func (m *Memory) Granularity() int { return 1 << m.shift }

// newRegion builds a region covering bytes bytes of device memory, at
// the word granule when the configured one is finer. A shared slab (clamp
// set) carries one extra cell at the configured granule, the one
// out-of-slab addresses clamp to; at the word granule it holds whole
// in-slab words only, and anything past them refines it.
func (m *Memory) newRegion(bytes int64, clamp bool) *Region {
	r := &Region{shift: m.shift, fineCells: int(bytes >> m.shift)}
	if clamp {
		r.fineCells++
	}
	n := r.fineCells
	if m.shift < wordShift && bytes >= wordGranule {
		r.shift, n = wordShift, int(bytes>>wordShift)
	}
	m.makeRoom(int64(n) * cellBytes)
	if !clamp && n == slabCells {
		r.cells = slabs.take()
	} else {
		r.cells = make([]Cell, n)
	}
	return r
}

// publish accounts a region that won its allocation race.
func (m *Memory) publish(r *Region) {
	m.addResident(r.RegionBytes())
	if r.shift != m.shift {
		m.wordRegions.Add(1)
	}
}

// SpanCache is one detector worker's private lookup cache: the last
// global page and the last shared-block slab it resolved. GPU warps
// overwhelmingly access runs of nearby addresses, so almost every lookup
// after the first hits the cache and touches no shared state. The zero
// value is ready to use. A SpanCache must not be shared across
// goroutines.
type SpanCache struct {
	pageID uint64
	page   *Region // nil until the first global hit

	sharedBlock int32
	shared      *Region // nil until the first shared hit

	// gen is the shadow generation the cached pointers were resolved
	// under; a mismatch (bounded mode only) means a region may have been
	// evicted or compacted since, so both pointers are dropped.
	gen uint64

	// sink absorbs VisitLanes' touch-ahead loads.
	sink vc.Clock

	// run is the walk's scratch: VisitLanes hands it out, its lane list
	// grown once and reused, so a walk allocates nothing.
	run Run
}

// validateCache drops a worker cache whose generation is stale (bounded
// mode only: generations only move when regions can disappear). Every
// region lookup starts here, so it is also where an access after Release
// is caught, a cached pointer's included.
func (m *Memory) validateCache(sc *SpanCache) {
	if m.released.Load() {
		panic("shadow: access after Release")
	}
	if sc == nil || m.capBytes <= 0 {
		return
	}
	if g := m.gen.Load(); sc.gen != g {
		sc.gen = g
		sc.page = nil
		sc.shared = nil
	}
}

// globalPage returns (allocating if needed) the page covering pageID.
func (m *Memory) globalPage(pageID uint64) *Region {
	s := &m.stripes[pageID&(pageStripes-1)]
	return resolve(m, &s.pages, &s.mu, pageID, PageBytes, false)
}

// sharedSlab returns (allocating if needed) block b's shared-memory
// shadow slab.
func (m *Memory) sharedSlab(block int32) *Region {
	return resolve(m, &m.sharedPtr, &m.sharedMu, block, m.shSize, true)
}

// CellFor returns the cell covering (space, block, addr), allocating
// shadow pages on demand: the inspection entry point of tests and tools.
// The cell handed out is the region's current one — a word cell while the region is
// word-granular, the last cell for an address past a shared slab —
// guarded by the region lock, which CellFor has already released; it is
// therefore only race-free against concurrent traffic on other regions,
// and concurrent production code must go through VisitLanes instead.
func (m *Memory) CellFor(space logging.SpaceID, block int32, addr uint64) *Cell {
	reg, off := m.RegionFor(nil, space, block, addr)
	reg.Lock()
	defer reg.Unlock()
	reg.markLive()
	return &reg.cells[reg.CellAt(off)]
}

// RegionFor resolves the region covering one address and the address's
// byte offset within it, consulting and refreshing the worker's cache
// when one is supplied — the region-granular lookup every path builds
// on. The offset is all a caller may compute without the region lock:
// the cell index depends on the region's granule, which a concurrent
// refinement changes, so indices come from Region.CellAt under that
// lock.
func (m *Memory) RegionFor(sc *SpanCache, space logging.SpaceID, block int32, addr uint64) (*Region, uint64) {
	if space == logging.SpaceShared {
		return m.sharedRegion(sc, block), addr
	}
	m.validateCache(sc)
	pageID := addr >> pageBits
	var reg *Region
	if sc != nil && sc.page != nil && sc.pageID == pageID {
		reg = sc.page
	} else {
		reg = m.globalPage(pageID)
		if sc != nil {
			sc.pageID = pageID
			sc.page = reg
		}
	}
	if m.capBytes > 0 {
		m.stamp(reg)
	}
	return reg, regionOff(space, addr)
}

// Lane is one active lane of a warp-level record: its index in the warp
// and the first byte it accesses.
type Lane struct {
	Index int
	Addr  uint64
}

// LaneCells is one lane's part of a Run: the cells [Lo, Hi) its bytes in
// the run's region cover, at the region's granule, unclamped — cell idx is
// visited as min(idx, Run.Last).
type LaneCells struct {
	Lane   int
	Lo, Hi int
}

// Run is one step of a record's walk (VisitLanes): a region, locked and
// readied for the lanes, and the consecutive lanes whose bytes in it come
// next, in walk order. Weight is Memory.Weight of the region (every cell
// stands for that many configured-granule cells); Last is its last cell,
// the one out-of-slab shared bytes clamp to. A Run is valid only during the
// call it is handed to.
type Run struct {
	Reg    *Region
	Lanes  []LaneCells
	Weight int
	Last   int
}

// Each calls fn for every cell visit of the run, in walk order.
func (run *Run) Each(fn func(lane, idx int)) {
	for _, lc := range run.Lanes {
		for idx := lc.Lo; idx < lc.Hi; idx++ {
			fn(lc.Lane, min(idx, run.Last))
		}
	}
}

// flush hands fn the run over lanes, if it has any, and returns lanes
// emptied for the next run.
func (run *Run) flush(lanes []LaneCells, fn func(*Run)) []LaneCells {
	if len(lanes) > 0 {
		run.Lanes = lanes
		fn(run)
	}
	return lanes[:0]
}

// SpanCached visits every cell covering [addr, addr+size) in (space,
// block), invoking fn with the cell's region lock held: the one-lane case
// of VisitLanes, with a worker-private lookup cache (sc may be nil).
func (m *Memory) SpanCached(sc *SpanCache, space logging.SpaceID, block int32, addr uint64, size int, fn func(r *Region, idx, weight int)) {
	m.VisitLanes(sc, space, block, []Lane{{Addr: addr}}, size, func(run *Run) {
		run.Each(func(_, idx int) { fn(run.Reg, idx, run.Weight) })
	})
}

// VisitLanes walks every cell covering the size bytes each lane accesses
// in (space, block), lane by lane and in address order within a lane, and
// hands them to fn one Run at a time: a region, its lock held, and the
// consecutive lanes that fall in it. sc is the worker's lookup cache (a nil
// one costs an allocation).
//
// A run's prologue readies the region before any of its cells is visited:
// lock it (dropping the one held before, so allocation and the evictor's
// TryLock run with none held), touch ahead, Fit, mark it live, take its
// weight. A run ends exactly where a walk of one lane at a time would do
// something else — at a page change, at a lane that needs refining — and
// the rest of the prologue is idempotent, so the
// visits, their weights, the final state and the reports are those of one
// walk per lane (TestVisitLanesEquivalence). The touch-ahead loads a word at
// each end of the first cell of every further lane in the region — both
// lines of a cell that straddles two — so the misses of a strided record's
// lanes overlap. DESIGN.md, "One walk per record, one
// prologue per run".
func (m *Memory) VisitLanes(sc *SpanCache, space logging.SpaceID, block int32, lanes []Lane, size int, fn func(*Run)) {
	if sc == nil {
		sc = new(SpanCache)
	}
	if size < 1 {
		size = 1
	}
	// A block's slab is one region: shifted out whole, every shared
	// address is on page 0.
	shift := uint(pageBits)
	if space == logging.SpaceShared {
		shift = 64
	}
	// What every lane tests stays in locals: the held region, its granule
	// (gs) and bytes at it (limit), and the run's lanes (out).
	run := &sc.run
	out := run.Lanes[:0]
	var reg *Region
	var page, limit uint64
	var gs uint
	var sink vc.Clock
	ready := false // the held region's prologue has run for the lane in hand
	for i, ln := range lanes {
		whole := WordShaped(ln.Addr, size)
		// A lane whose bytes wrap past 2^64 covers no cell.
		for a, end := ln.Addr, ln.Addr+uint64(size); a < end; {
			stop := end
			if a>>shift != (end-1)>>shift {
				stop = (a>>pageBits + 1) << pageBits // a's page is not the last: no wrap
			}
			if reg == nil || a>>shift != page {
				out = run.flush(out, fn)
				if reg != nil {
					reg.Unlock()
				}
				reg, _ = m.RegionFor(sc, space, block, a)
				page = a >> shift
				reg.Lock()
				run.Reg, ready = reg, false
				for _, nx := range lanes[i+1:] {
					if nx.Addr>>shift != page {
						break
					}
					c := &reg.cells[reg.CellAt(regionOff(space, nx.Addr))]
					sink += c.W.C + vc.Clock(c.rpc)
				}
			}
			off, n := regionOff(space, a), stop-a
			if !ready || gs != m.shift && (!whole || off+n > limit) {
				out = run.flush(out, fn)
				m.Fit(reg, whole, off+n)
				gs, limit = reg.shift, uint64(len(reg.cells))<<reg.shift
				run.Last = len(reg.cells) - 1
				reg.markLive()
				run.Weight, ready = m.Weight(reg), true
			}
			lo, hi := off>>gs, (off+n-1)>>gs+1
			if past := uint64(run.Last) + 1; lo > past {
				// Wholly past a shared slab: every visit is to its clamp
				// cell, and only their number matters.
				lo, hi = past, past+hi-lo
			}
			out = append(out, LaneCells{Lane: ln.Index, Lo: int(lo), Hi: int(hi)})
			a = stop
		}
	}
	run.Lanes = run.flush(out, fn)
	if reg != nil {
		reg.Unlock()
		run.Reg = nil
	}
	sc.sink += sink // keeps the touch-ahead loads alive
}

// regionOff returns a's byte offset within the region containing it.
func regionOff(space logging.SpaceID, a uint64) uint64 {
	if space == logging.SpaceShared {
		return a // one slab per block
	}
	return a & (PageBytes - 1)
}

// SyncLoc is the S_x metadata of one synchronization location: a map from
// thread block to the (compressed) vector clock most recently released at
// that scope, plus a grid-wide entry written by global releases.
type SyncLoc struct {
	mu       sync.Mutex
	perBlock map[int]*ptvc.Snapshot
	global   *ptvc.Snapshot
}

// SyncFor returns (creating if needed) the synchronization metadata for a
// location. GPU code usually has few synchronization locations, so these
// live in their own map rather than in shadow cells.
func (m *Memory) SyncFor(k Key) *SyncLoc {
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	s := m.syncs[k]
	if s == nil {
		s = &SyncLoc{perBlock: make(map[int]*ptvc.Snapshot)}
		m.syncs[k] = s
	}
	return s
}

// PeekSync returns the synchronization metadata for a location if it
// exists, without creating it.
func (m *Memory) PeekSync(k Key) *SyncLoc {
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	return m.syncs[k]
}

// Lock acquires the sync-location lock.
func (s *SyncLoc) Lock() { s.mu.Lock() }

// Unlock releases the sync-location lock.
func (s *SyncLoc) Unlock() { s.mu.Unlock() }

// ReleaseBlock implements RELBLOCK: S_x[b] := snap.
func (s *SyncLoc) ReleaseBlock(b int, snap *ptvc.Snapshot) {
	s.perBlock[b] = snap
}

// ReleaseGlobal implements RELGLOBAL: every block's entry becomes snap.
func (s *SyncLoc) ReleaseGlobal(snap *ptvc.Snapshot) {
	s.perBlock = make(map[int]*ptvc.Snapshot)
	s.global = snap
}

// AcquireBlock returns the snapshots a block-scoped acquire in block b
// joins: S_x[b], which is the block's own entry when a block release has
// replaced it, and otherwise the last global release.
func (s *SyncLoc) AcquireBlock(b int) []*ptvc.Snapshot {
	if snap := s.perBlock[b]; snap != nil {
		return []*ptvc.Snapshot{snap}
	}
	if s.global != nil {
		return []*ptvc.Snapshot{s.global}
	}
	return nil
}

// AcquireGlobal returns the snapshots a global-scoped acquire joins:
// ⊔_b S_x[b] over all totalBlocks blocks. The global entry participates
// only while some block still holds it (i.e. has no per-block override).
func (s *SyncLoc) AcquireGlobal(totalBlocks int) []*ptvc.Snapshot {
	var out []*ptvc.Snapshot
	for _, snap := range s.perBlock {
		out = append(out, snap)
	}
	if s.global != nil && len(s.perBlock) < totalBlocks {
		out = append(out, s.global)
	}
	return out
}
