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
	"maps"
	"sync"
	"sync/atomic"

	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/vc"
)

// Cell is the metadata for one shadow location. Access it only while
// holding the owning Region's lock.
//
// A cell is 32 bytes with no pointer in it (TestCellLayout): it never
// straddles a cache line, two share one, and a slab is a third less
// memory to zero that the collector never scans. The one field that
// would be a pointer, the inflated read map, lives in the owning Region's
// side table (Region.Readers); ReadShared says whether it exists.
type Cell struct {
	// W is the epoch of the most recent write and R of the most recent
	// read, a single epoch in the common totally-ordered case.
	W, R vc.Epoch

	// Provenance for race reports.
	WritePC, ReadPC uint32

	_ uint32 // padding: keeps the cell at 32 bytes

	// Atomic records whether the write W came from an atomic operation;
	// ReadShared that concurrent reads inflated R to a sparse read map.
	Atomic, ReadShared bool
}

// Readers returns the inflated read map of cell idx, nil unless the cell
// is ReadShared. Like the calls below it runs under the region lock,
// which guards the side table and its maps too.
func (r *Region) Readers(idx int) map[vc.TID]vc.Clock {
	if r.reads == nil {
		return nil
	}
	return r.reads[idx]
}

// InflateReads switches cell idx of r to the sparse read vector clock,
// seeding it with the existing read epoch (READINFLATE), and returns it.
func (m *Memory) InflateReads(r *Region, idx int) map[vc.TID]vc.Clock {
	c := &r.cells[idx]
	if c.ReadShared {
		return r.Readers(idx)
	}
	readers := make(map[vc.TID]vc.Clock, 4)
	if !c.R.IsZero() {
		readers[c.R.T] = c.R.C
	}
	c.ReadShared = true
	m.readInflations.Add(1)
	if r.reads == nil {
		r.reads = make([]map[vc.TID]vc.Clock, len(r.cells))
	}
	r.reads[idx] = readers
	return readers
}

// ClearReads resets cell idx's read metadata (the R' = ⊥e step of the
// write and atomic rules).
func (r *Region) ClearReads(idx int) {
	c := &r.cells[idx]
	c.R = vc.Epoch{}
	if c.ReadShared {
		c.ReadShared = false
		r.reads[idx] = nil
	}
}

// pageBits is the per-page coverage: 64 KiB of device memory per page.
const pageBits = 16

// PageBytes is the device-memory coverage of one global shadow page —
// exported so region-granular callers (the core's ownership fast path)
// can detect page-crossing accesses without resolving both ends.
const PageBytes = 1 << pageBits

// wordGranule is the granule regions start at: one cell per aligned
// 4-byte word, the access size of nearly all CUDA code (§4.3.3).
const wordGranule = 4

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
	// granularity is the configured bytes per cell: the finest granule,
	// the one a word-granular region refines to.
	granularity int

	stripes [pageStripes]stripe

	sharedPtr atomic.Pointer[blockMap]
	sharedMu  sync.Mutex // allocation slow path only
	shSize    int64

	// geo maps a summary's (warp, lane) ranks back to thread ids when it
	// is materialized into cells (span.go).
	geo ptvc.Geometry

	// released is set by Release: the run is over and its slabs are gone.
	released atomic.Bool

	// Adaptive ownership tier (owner.go). owned gates the per-region
	// tracking hooks; the counters are fleet-visible diagnostics.
	owned         bool
	ownClaims     atomic.Uint64
	ownPromotions atomic.Uint64
	ownInflations atomic.Uint64
	ownFast       atomic.Uint64

	// Bounded shadow (owner.go). capBytes == 0 means unbounded; gen is
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
// per cell (1 for full generality; 4 and above trade precision for
// speed); sharedBytes is the per-block shared-memory size to preallocate;
// geo is the launch geometry summaries are materialized with.
func New(granularity int, sharedBytes int64, geo ptvc.Geometry) *Memory {
	if granularity < 1 {
		granularity = 1
	}
	return &Memory{
		granularity: granularity,
		shSize:      sharedBytes,
		geo:         geo,
		syncs:       make(map[Key]*SyncLoc),
	}
}

// Granularity returns the configured (finest) bytes covered per cell. A
// region may currently be coarser; see Region.Gran.
func (m *Memory) Granularity() int { return m.granularity }

// allocGranule returns the granule new regions start at: the word, when
// the configured granule divides it; the configured granule otherwise.
func (m *Memory) allocGranule() int {
	if m.granularity < wordGranule && wordGranule%m.granularity == 0 {
		return wordGranule
	}
	return m.granularity
}

// newRegion builds a region covering bytes bytes of device memory. A
// shared slab (clamp set) carries one extra cell at the configured
// granule, the one out-of-slab addresses clamp to; at the word granule it
// holds whole in-slab words only, and anything past them refines it.
func (m *Memory) newRegion(bytes int64, clamp bool) *Region {
	r := &Region{gran: m.granularity, fineCells: int(bytes / int64(m.granularity))}
	if clamp {
		r.fineCells++
	}
	n := r.fineCells
	if g := m.allocGranule(); g != r.gran && bytes >= int64(g) {
		r.gran, n = g, int(bytes/int64(g))
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
	if r.gran != m.granularity {
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
// Any summary covering the cell is demoted first and the cell handed out
// is the region's current one — a word cell while the region is
// word-granular, the last cell for an address past a shared slab —
// guarded by the region lock, which CellFor has already released; it is
// therefore only race-free against concurrent traffic on other regions,
// and concurrent production code must go through VisitLanes instead.
func (m *Memory) CellFor(space logging.SpaceID, block int32, addr uint64) *Cell {
	reg, off := m.RegionFor(nil, space, block, addr)
	reg.Lock()
	defer reg.Unlock()
	idx, _ := reg.CellRange(off, 1)
	idx = min(idx, len(reg.cells)-1)
	reg.demoteOverlapping(m, idx, idx+1)
	reg.markLive()
	// The accessing warp is unknown on this path, so the only safe
	// ownership transition is straight to shared.
	reg.inflateOwner(m)
	return &reg.cells[idx]
}

// RegionFor resolves the region covering one address and the address's
// byte offset within it, consulting and refreshing the worker's cache
// when one is supplied — the region-granular lookup every path builds
// on. The offset is all a caller may compute without the region lock:
// the cell index depends on the region's granule, which a concurrent
// refinement changes, so indices come from Region.CellRange under that
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

// Span visits every cell covering [addr, addr+size) in (space, block),
// invoking fn with the cell's region lock held.
func (m *Memory) Span(space logging.SpaceID, block int32, addr uint64, size int, fn func(r *Region, idx, weight int)) {
	m.SpanCached(nil, space, block, addr, size, fn)
}

// SpanCached is Span with a worker-private lookup cache (sc may be nil):
// the one-lane case of VisitLanes.
func (m *Memory) SpanCached(sc *SpanCache, space logging.SpaceID, block int32, addr uint64, size int, fn func(r *Region, idx, weight int)) {
	m.VisitLanes(sc, space, block, []Lane{{Addr: addr}}, size, func(_ int, r *Region, idx, weight int) { fn(r, idx, weight) })
}

// VisitLanes visits, lane by lane and in address order within a lane,
// every cell covering the size bytes each lane accesses in (space, block):
// fn gets the lane, the cell as (region, index) and its weight, with the
// region lock held. weight is the number of configured-granule cells the
// visited cell stands for: 1, except on a word-granular region, where one
// visit replaces weight visits to cells that provably hold identical
// metadata. sc is the worker's lookup cache and may be nil.
//
// The walk holds one region lock at a time, across all consecutive lanes
// that fall in that region, and drops it before resolving another page,
// so that allocation and the evictor's TryLock run with none held. Per
// lane it does what a one-lane walk does, in the same lane and cell
// order: refine the region first unless the lane is whole words, demote
// every summary the lane overlaps before any cell is observed, then
// visit. Right after taking a lock it loads one word of the first cell of
// every further lane in that region (the touch-ahead): a strided record's
// lanes sit a cache line or a page apart, and independent loads overlap
// the misses that the per-lane sequence takes one after another.
// DESIGN.md, "One walk per record".
func (m *Memory) VisitLanes(sc *SpanCache, space logging.SpaceID, block int32, lanes []Lane, size int, fn func(lane int, r *Region, idx, weight int)) {
	if size < 1 {
		size = 1
	}
	// A block's slab is one region: shifted out whole, every shared
	// address is on page 0.
	shift := uint(pageBits)
	if space == logging.SpaceShared {
		shift = 64
	}
	var reg *Region // the one region lock held, with the page it covers
	var page uint64
	var sink vc.Clock
	for i, ln := range lanes {
		whole := WordShaped(ln.Addr, size)
		end := ln.Addr + uint64(size)
		for a := ln.Addr; a < end; {
			stop := min(end, regionEnd(space, a))
			if reg == nil || a>>shift != page {
				if reg != nil {
					reg.Unlock()
				}
				reg, _ = m.RegionFor(sc, space, block, a)
				page = a >> shift
				reg.Lock()
				g, last := uint64(reg.gran), uint64(len(reg.cells)-1)
				for _, nx := range lanes[i+1:] {
					if nx.Addr>>shift != page {
						break
					}
					sink += reg.cells[min(regionOff(space, nx.Addr)/g, last)].W.C
				}
			}
			off, n := regionOff(space, a), int(stop-a)
			m.Fit(reg, whole, off+uint64(n))
			lo, hi := reg.CellRange(off, n)
			// Out-of-slab shared cells clamp to the slab's last cell, one
			// visit per granule step.
			last := len(reg.cells) - 1
			reg.demoteOverlapping(m, min(lo, last), min(hi, last+1))
			reg.markLive()
			reg.inflateOwner(m)
			weight := m.Weight(reg)
			for idx := lo; idx < hi; idx++ {
				fn(ln.Index, reg, min(idx, last), weight)
			}
			a = stop
		}
	}
	if reg != nil {
		reg.Unlock()
	}
	if sc != nil {
		sc.sink += sink // keeps the touch-ahead loads alive
	}
}

// regionOff returns a's byte offset within the region containing it.
func regionOff(space logging.SpaceID, a uint64) uint64 {
	if space == logging.SpaceShared {
		return a // one slab per block
	}
	return a & (PageBytes - 1)
}

// regionEnd returns the first address past the region containing a.
func regionEnd(space logging.SpaceID, a uint64) uint64 {
	if space == logging.SpaceShared {
		return ^uint64(0) // one slab per block
	}
	return (a>>pageBits + 1) << pageBits
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
