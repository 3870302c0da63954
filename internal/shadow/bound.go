// Memory-bounded shadow.
//
// With a byte cap configured, the shadow tracks the resident footprint
// of every region, stamps regions on use, and evicts the least-recently-
// used region before an allocation would exceed the cap. Evicting a
// region that still holds live metadata silently discards epochs — never
// a false positive (virgin state passes every check), but a later racing
// access can go unreported — so live evictions latch the
// PrecisionDegraded flag that the detector surfaces honestly in its
// report. Epoch-based compaction (dropping a block's shared slab after a
// fully-converged block barrier) is the provably-lossless counterpart,
// triggered by the detector core.
package shadow

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// cellBytes is the resident footprint of one shadow cell. Structural
// accounting: the regions' side tables of inflated read maps are not
// counted (map footprint is runtime-internal), so a kernel whose every
// thread reads one table can outgrow the cap.
const cellBytes = int64(unsafe.Sizeof(Cell{}))

// RegionBytes returns a region's accounted resident footprint.
func (r *Region) RegionBytes() int64 { return int64(len(r.cells)) * cellBytes }

// SetCapBytes bounds the resident shadow (global pages + shared slabs)
// to capBytes via LRU eviction; 0 leaves the shadow unbounded. Call
// once, before any detection traffic.
func (m *Memory) SetCapBytes(capBytes int64) {
	m.capBytes = capBytes
}

// CapBytes returns the configured resident byte cap (0 = unbounded).
func (m *Memory) CapBytes() int64 { return m.capBytes }

// ResidentBytes returns the current accounted resident shadow bytes.
func (m *Memory) ResidentBytes() int64 { return m.resident.Load() }

// PeakResidentBytes returns the high-water resident shadow bytes.
func (m *Memory) PeakResidentBytes() int64 { return m.peakResident.Load() }

// PrecisionDegraded reports whether an eviction has discarded live
// metadata: from that point on, races involving the discarded epochs
// can go unreported (never falsely reported).
func (m *Memory) PrecisionDegraded() bool { return m.degraded.Load() }

// Generation returns the shadow generation, bumped whenever a region is
// evicted or compacted so worker SpanCaches drop stale region pointers.
func (m *Memory) Generation() uint64 { return m.gen.Load() }

// stamp marks a region recently used (bounded mode only).
func (m *Memory) stamp(r *Region) {
	r.lastUse.Store(m.useClock.Add(1))
}

// addResident accounts a newly published region.
func (m *Memory) addResident(n int64) {
	v := m.resident.Add(n)
	for {
		p := m.peakResident.Load()
		if v <= p || m.peakResident.CompareAndSwap(p, v) {
			return
		}
	}
}

// evictCand is one LRU eviction candidate.
type evictCand struct {
	reg      *Region
	stamp    uint64
	pageID   uint64
	block    int32
	isShared bool
}

// makeRoom evicts least-recently-used regions until a pending
// allocation of need bytes fits under the cap. It runs with NO stripe
// or slab lock held (lock order: evictMu → region lock → stripe/slab
// mutex, the same order the allocation slow paths use), and it only
// TryLocks victims — a region currently locked is in active use,
// possibly by the very goroutine that triggered eviction mid-span, so
// blocking on it could self-deadlock. Single-consumer detection is
// strictly capped; concurrent allocations on different queues can
// transiently overshoot by at most one region per worker.
func (m *Memory) makeRoom(need int64) {
	if m.capBytes <= 0 {
		return
	}
	m.evictMu.Lock()
	defer m.evictMu.Unlock()
	for m.resident.Load()+need > m.capBytes {
		progress := false
		for _, c := range m.evictCandidates() {
			if m.resident.Load()+need <= m.capBytes {
				return
			}
			if !c.reg.TryLock() {
				continue // in active use; try the next-coldest
			}
			ok := m.dropRegion(c.reg, c.pageID, c.block, c.isShared)
			wasLive := c.reg.liveMark.Load()
			c.reg.Unlock()
			if !ok {
				continue // vanished since the scan (compaction race)
			}
			progress = true
			m.evictions.Add(1)
			if wasLive {
				m.liveEvictions.Add(1)
				m.degraded.Store(true)
			}
		}
		if !progress {
			return // nothing evictable left; allocation overshoots
		}
	}
}

// evictCandidates scans the page table and slab map over the published
// immutable snapshots, taking no lock, and returns every region, coldest
// first.
func (m *Memory) evictCandidates() []evictCand {
	var out []evictCand
	for i := range m.stripes {
		pm := m.stripes[i].pages.Load()
		if pm == nil {
			continue
		}
		for id, p := range *pm {
			out = append(out, evictCand{reg: p, stamp: p.lastUse.Load(), pageID: id})
		}
	}
	if bm := m.sharedPtr.Load(); bm != nil {
		for b, r := range *bm {
			out = append(out, evictCand{reg: r, stamp: r.lastUse.Load(), block: b, isShared: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].stamp < out[j].stamp })
	return out
}

// dropRegion unpublishes a region (locked by the caller) from its owning
// map, bumps the generation (stale SpanCache pointers must not resolve to
// it), and releases its resident accounting. Returns false if the region
// was already gone.
func (m *Memory) dropRegion(victim *Region, pageID uint64, block int32, isShared bool) bool {
	var dropped bool
	if isShared {
		dropped = unpublish(&m.sharedPtr, &m.sharedMu, block, victim) != nil
	} else {
		s := &m.stripes[pageID&(pageStripes-1)]
		dropped = unpublish(&s.pages, &s.mu, pageID, victim) != nil
	}
	if dropped {
		m.release(victim)
	}
	return dropped
}

// unpublish removes key k's region from a table and returns it; nil when
// the key is vacant or, with only non-nil, held by another region.
func unpublish[K comparable, M ~map[K]*Region](tab *atomic.Pointer[M], mu *sync.Mutex, k K, only *Region) *Region {
	mu.Lock()
	defer mu.Unlock()
	r := lookup(tab, k)
	if r == nil || (only != nil && r != only) {
		return nil
	}
	republish(tab, k, nil)
	return r
}

// release drops an unpublished region (locked by the caller) from the
// generation, resident and granule accounting; it returns the bytes freed.
func (m *Memory) release(r *Region) int64 {
	n := r.RegionBytes()
	m.gen.Add(1)
	m.resident.Add(-n)
	if r.shift != m.shift {
		m.wordRegions.Add(-1)
	}
	return n
}

// CompactSharedSlab drops a block's shared slab entirely — the
// epoch-based compaction step. The detector calls it only after a
// fully-converged block-wide barrier, where every epoch in the slab is
// provably ordered before every future access by the block (the slab is
// block-private), so the virgin slab a later access reallocates yields
// byte-identical race reports. Returns the bytes released.
func (m *Memory) CompactSharedSlab(block int32) int64 {
	r := unpublish(&m.sharedPtr, &m.sharedMu, block, nil)
	if r == nil {
		return 0
	}
	r.Lock()
	n := m.release(r)
	r.Unlock()
	m.compactions.Add(1)
	m.compactedBytes.Add(n)
	return n
}

// MemStats is the shadow occupancy and bounded-shadow counter snapshot.
type MemStats struct {
	GlobalPages       int   `json:"global_pages"`
	SharedBlocks      int   `json:"shared_blocks"`
	SyncLocs          int   `json:"sync_locs"`
	ResidentBytes     int64 `json:"resident_bytes"`
	PeakResidentBytes int64 `json:"peak_resident_bytes"`
	CapBytes          int64 `json:"cap_bytes,omitempty"`

	// CellBytes is the size of one shadow cell; ReadInflations counts the
	// cells whose concurrent reads needed a read map beside it (never
	// charged to ResidentBytes).
	CellBytes      int    `json:"cell_bytes"`
	ReadInflations uint64 `json:"read_inflations,omitempty"`

	// Per-region granule: live regions still at the word granule (one
	// cell per 4 bytes) and at the configured Granularity, and how many
	// were refined from the first to the second by a sub-word access.
	WordRegions int    `json:"word_regions,omitempty"`
	ByteRegions int    `json:"byte_regions,omitempty"`
	Refinements uint64 `json:"refinements,omitempty"`

	// Inflations and OwnedFast always read 0 and are never encoded: they
	// counted an exclusive-ownership tier the walk no longer has. They
	// stay only while benchmarks/e2e names them.
	Inflations uint64 `json:"-"`
	OwnedFast  uint64 `json:"-"`

	// Bounded shadow.
	Compactions       uint64 `json:"compactions,omitempty"`
	CompactedBytes    int64  `json:"compacted_bytes,omitempty"`
	Evictions         uint64 `json:"evictions,omitempty"`
	LiveEvictions     uint64 `json:"live_evictions,omitempty"`
	PrecisionDegraded bool   `json:"precision_degraded,omitempty"`
}

// Stats reports shadow occupancy, resident footprint and the
// bounded-memory counters.
func (m *Memory) Stats() MemStats {
	st := MemStats{
		ResidentBytes:     m.resident.Load(),
		PeakResidentBytes: m.peakResident.Load(),
		CapBytes:          m.capBytes,
		CellBytes:         int(cellBytes),
		ReadInflations:    m.readInflations.Load(),
		WordRegions:       int(m.wordRegions.Load()),
		Refinements:       m.refinements.Load(),
		Compactions:       m.compactions.Load(),
		CompactedBytes:    m.compactedBytes.Load(),
		Evictions:         m.evictions.Load(),
		LiveEvictions:     m.liveEvictions.Load(),
		PrecisionDegraded: m.degraded.Load(),
	}
	for i := range m.stripes {
		if pm := m.stripes[i].pages.Load(); pm != nil {
			st.GlobalPages += len(*pm)
		}
	}
	if bm := m.sharedPtr.Load(); bm != nil {
		st.SharedBlocks = len(*bm)
	}
	st.ByteRegions = max(0, st.GlobalPages+st.SharedBlocks-st.WordRegions)
	m.syncMu.Lock()
	st.SyncLocs = len(m.syncs)
	m.syncMu.Unlock()
	return st
}
