// Adaptive ownership tier and memory-bounded shadow.
//
// Ownership (the SmartTrack-style tier below FastTrack): each region
// carries a one-word ownership state recording WHO has touched its cells
// since the region was last virgin — nobody (OwnNone), exactly one warp
// (OwnWarp), exactly one thread block (OwnBlock), or a mix (OwnShared,
// sticky). While a region is exclusively owned, the detector's hot path
// can prove every stored epoch ordered with a single region-level
// comparison and skip the per-cell epoch machinery entirely (see
// core.tryOwned for the soundness argument). The word is published
// atomically so the detector can probe it without the lock, but the probe
// is ONLY a pre-filter: the claim→inflate protocol requires every decision
// to be re-validated after taking the region lock, because another
// detector thread may inflate the region between the probe and the lock
// (the TOCTOU pitfall). All transitions happen under the region lock.
//
// Bounded shadow: with a byte cap configured, the shadow tracks the
// resident footprint of every region, stamps regions on use, and evicts
// the least-recently-used region before an allocation would exceed the
// cap. Evicting a region that still holds live metadata silently
// discards epochs — never a false positive (virgin state passes every
// check), but a later racing access can go unreported — so live
// evictions latch the PrecisionDegraded flag that the detector
// surfaces honestly in its report. Epoch-based compaction (dropping a
// block's shared slab after a fully-converged block barrier) is the
// provably-lossless counterpart, triggered by the detector core.
package shadow

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"barracuda/internal/vc"
)

// OwnState is a region's ownership tier.
type OwnState uint32

const (
	// OwnNone: no tracked access since the region was virgin.
	OwnNone OwnState = iota
	// OwnWarp: every access so far came from one warp (the probe id).
	OwnWarp
	// OwnBlock: every access so far came from one block (the probe id).
	OwnBlock
	// OwnShared: accesses from several blocks, or an access the tracking
	// paths could not attribute. Sticky — a shared region never returns
	// to an exclusive state until it is compacted or evicted.
	OwnShared
)

func (s OwnState) String() string {
	switch s {
	case OwnNone:
		return "none"
	case OwnWarp:
		return "warp"
	case OwnBlock:
		return "block"
	case OwnShared:
		return "shared"
	}
	return "?"
}

// packOwner packs state and owner id into the probe word.
func packOwner(st OwnState, id uint32) uint64 {
	return uint64(st) | uint64(id)<<2
}

// OwnerProbe reads the ownership word WITHOUT the region lock: the
// pre-filter of the claim→inflate protocol. Callers must
// re-validate with Owner after locking before acting on it.
func (r *Region) OwnerProbe() (OwnState, uint32) {
	w := r.owner.Load()
	return OwnState(w & 3), uint32(w >> 2)
}

// Owner reads the ownership state under the region lock.
func (r *Region) Owner() (OwnState, uint32) {
	w := r.owner.Load()
	return OwnState(w & 3), uint32(w >> 2)
}

// OwnerClocks returns the clock bounds backing the exclusive states,
// under the region lock: lastWarp is the warp of the most recent tracked
// access, lastMax the maximum epoch clock it has stored since becoming
// the most recent, and otherMax the maximum clock stored by every other
// warp ever tracked. Together they bound every epoch resident in the
// region: an access that proves both maxima ordered needs no per-cell
// checks at all.
func (r *Region) OwnerClocks() (lastWarp uint32, lastMax, otherMax vc.Clock) {
	return r.ownLastWarp, r.ownLastMax, r.ownOtherMax
}

// setOwner publishes an ownership transition (region lock held).
func (r *Region) setOwner(st OwnState, id uint32) {
	r.owner.Store(packOwner(st, id))
}

// Claim marks a virgin region exclusively owned by a warp (region lock
// held; caller verified state OwnNone).
func (m *Memory) Claim(r *Region, warp uint32, clock vc.Clock) {
	r.setOwner(OwnWarp, warp)
	r.ownLastWarp = warp
	r.ownLastMax = clock
	r.ownOtherMax = 0
	m.ownClaims.Add(1)
}

// Retain extends an exclusive owner's clock bound after another access
// by the current last warp (region lock held).
func (r *Region) Retain(clock vc.Clock) {
	if clock > r.ownLastMax {
		r.ownLastMax = clock
	}
}

// Rotate makes a different warp of the SAME owning scope the region's
// most recent accessor (region lock held): the previous last warp's
// bound folds into otherMax. Promoting an OwnWarp region to OwnBlock is
// a Rotate with the block id published.
func (m *Memory) Rotate(r *Region, st OwnState, id uint32, warp uint32, clock vc.Clock) {
	if prev, _ := r.Owner(); prev == OwnWarp && st == OwnBlock {
		m.ownPromotions.Add(1)
	}
	r.setOwner(st, id)
	if r.ownLastMax > r.ownOtherMax {
		r.ownOtherMax = r.ownLastMax
	}
	r.ownLastWarp = warp
	r.ownLastMax = clock
}

// Inflate demotes a region to the sticky OwnShared state (region lock
// held). Counted only when the region actually was exclusively owned:
// the counter measures lost fast-path coverage, not slow-path traffic.
func (m *Memory) Inflate(r *Region) {
	st, _ := r.Owner()
	if st == OwnShared {
		return
	}
	if st == OwnWarp || st == OwnBlock {
		m.ownInflations.Add(1)
	}
	r.setOwner(OwnShared, 0)
}

// inflateOwner is the untracked-access hook on the per-cell paths
// (VisitLanes, CellFor): those paths do not know the accessing warp, so
// the only safe transition is straight to OwnShared.
func (r *Region) inflateOwner(m *Memory) {
	if m.owned {
		m.Inflate(r)
	}
}

// resetOwner returns a region to the virgin ownership state (used by
// tests; compaction and eviction reset by dropping the region object).
func (r *Region) resetOwner() {
	r.owner.Store(0)
	r.ownLastWarp = 0
	r.ownLastMax = 0
	r.ownOtherMax = 0
}

// EnableOwnership switches ownership tracking on. Call once, before any
// detection traffic.
func (m *Memory) EnableOwnership() {
	m.owned = true
}

// NoteOwnedFast counts one record fully handled by the ownership fast
// path.
func (m *Memory) NoteOwnedFast() { m.ownFast.Add(1) }

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
	if r.gran != m.granularity {
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

// MemStats is the shadow occupancy and adaptive-tier counter snapshot.
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

	// Ownership tier.
	Claims     uint64 `json:"ownership_claims,omitempty"`
	Promotions uint64 `json:"ownership_promotions,omitempty"`
	Inflations uint64 `json:"ownership_inflations,omitempty"`
	OwnedFast  uint64 `json:"owned_fast_records,omitempty"`

	// Bounded shadow.
	Compactions       uint64 `json:"compactions,omitempty"`
	CompactedBytes    int64  `json:"compacted_bytes,omitempty"`
	Evictions         uint64 `json:"evictions,omitempty"`
	LiveEvictions     uint64 `json:"live_evictions,omitempty"`
	PrecisionDegraded bool   `json:"precision_degraded,omitempty"`
}

// Stats reports shadow occupancy, resident footprint and the adaptive
// ownership / bounded-memory counters.
func (m *Memory) Stats() MemStats {
	st := MemStats{
		ResidentBytes:     m.resident.Load(),
		PeakResidentBytes: m.peakResident.Load(),
		CapBytes:          m.capBytes,
		CellBytes:         int(cellBytes),
		ReadInflations:    m.readInflations.Load(),
		WordRegions:       int(m.wordRegions.Load()),
		Refinements:       m.refinements.Load(),
		Claims:            m.ownClaims.Load(),
		Promotions:        m.ownPromotions.Load(),
		Inflations:        m.ownInflations.Load(),
		OwnedFast:         m.ownFast.Load(),
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
