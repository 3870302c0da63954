// Package core implements the BARRACUDA data race detection algorithm
// (PLDI 2017, §3.3): the operational rules of Figures 2 and 3 over the
// analysis state (K, C, S, R, W), where
//
//	K — per-warp SIMT-mirror stacks of compressed per-thread vector
//	    clocks (package ptvc)
//	C — per-thread vector clocks, stored at warp granularity
//	S — per-synchronization-location, per-block vector clocks
//	R, W — per-location read/write metadata (package shadow)
//
// The detector consumes the warp-level records produced by instrumented
// kernels (package logging) and reports data races classified as
// intra-warp (divergence), intra-block or inter-block, plus barrier
// divergence errors. Intra-warp write-write races where every lane stores
// the same value are filtered, following the CUDA documentation's
// guarantee that such writes are well-defined.
//
// Concurrency: each queue-consumer goroutine should create a Worker with
// NewWorker and deliver records through Worker.Handle, keeping all
// records of one thread block on the same worker (the block-to-queue
// affinity of package logging guarantees this). Per-warp and per-block
// state is block-affine; shadow cells are guarded by their region's
// spinlock in every configuration; and per-record statistics (record
// count, same-value filter count, PTVC format histogram) live in
// per-worker shards merged lazily by Report and FormatHistogram — so the
// per-record fast path of a memory access acquires no mutex at all. Only
// the rare events (a detected race, a barrier divergence) take the report
// mutex. Detector.Handle remains as a worker-less convenience for tests
// and single-consumer callers; it is safe for concurrent use but skips
// the worker-private caches.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/shadow"
	"barracuda/internal/trace"
	"barracuda/internal/vc"
)

// RaceKind classifies a detected race by the threads involved.
type RaceKind int

// Race classifications (§4.3.3: "the offending TIDs are examined to
// classify the race as a divergence race, an intra-block race or
// inter-block race").
const (
	IntraWarp RaceKind = iota // same warp: same-instruction or branch-ordering
	IntraBlock
	InterBlock
)

func (k RaceKind) String() string {
	switch k {
	case IntraWarp:
		return "intra-warp"
	case IntraBlock:
		return "intra-block"
	case InterBlock:
		return "inter-block"
	}
	return "?"
}

// Access describes one side of a race.
type Access struct {
	TID    vc.TID
	PC     uint32 // source line of the access
	Write  bool
	Atomic bool
}

// Race is one detected data race.
type Race struct {
	Kind      RaceKind
	Space     logging.SpaceID
	Block     int32 // thread block (shared memory), -1 for global
	Addr      uint64
	Prev, Cur Access
	SameInstr bool // both accesses in the same warp instruction
	Count     int  // dynamic occurrences of this static race
}

func (r Race) String() string {
	rw := func(a Access) string {
		switch {
		case a.Atomic:
			return "atomic"
		case a.Write:
			return "write"
		default:
			return "read"
		}
	}
	return fmt.Sprintf("%s race on %s memory at %#x: %s (line %d, thread %d) vs %s (line %d, thread %d)",
		r.Kind, r.Space, r.Addr, rw(r.Prev), r.Prev.PC, r.Prev.TID, rw(r.Cur), r.Cur.PC, r.Cur.TID)
}

// BarrierDivergence is a bar.sync executed with inactive threads.
type BarrierDivergence struct {
	Block int
	Warp  int
	PC    uint32
	Mask  uint32 // active mask at the barrier
}

// Report aggregates everything the detector found.
type Report struct {
	Races        []Race
	Divergences  []BarrierDivergence
	RecordsSeen  uint64
	SameValueGag uint64 // intra-warp same-value writes filtered

	// Shadow snapshots the shadow-memory occupancy and the adaptive-
	// tier counters (ownership claims/inflations, evictions,
	// compactions) at report time. Diagnostic only: the canonical
	// digest does not cover it.
	Shadow shadow.MemStats
	// PrecisionDegraded is true when an LRU eviction discarded live
	// shadow metadata: from that point on, races involving the
	// discarded epochs can go unreported (never falsely reported).
	PrecisionDegraded bool
}

// RaceCount returns the number of distinct static races.
func (r *Report) RaceCount() int { return len(r.Races) }

// HasRaces reports whether any race or barrier divergence was found.
func (r *Report) HasRaces() bool { return len(r.Races) > 0 }

// CountKind returns the number of distinct races of one kind.
func (r *Report) CountKind(k RaceKind) int {
	n := 0
	for _, rc := range r.Races {
		if rc.Kind == k {
			n++
		}
	}
	return n
}

// Options tunes the detector.
type Options struct {
	// Granularity is the finest shadow bytes per cell (default 1).
	// Regions start at one cell per 4-byte word and refine to it on the
	// first sub-word access; reports are the same either way.
	Granularity int
	// MaxRaces bounds the number of distinct races recorded (default
	// 1024; 0 means the default).
	MaxRaces int
	// NoSameValueFilter disables the intra-warp same-value write filter.
	NoSameValueFilter bool
	// FullVC replaces the compressed PTVC representation with plain
	// per-thread vector clocks — the ablation baseline for §4.3.1.
	FullVC bool
	// PerCellShadow disables the coalesced-span fast path, forcing every
	// warp access down the per-cell shadow walk — the A/B baseline for
	// the span optimization. The shadow itself is the default one.
	PerCellShadow bool
	// Ownership enables the exclusive-ownership fast tier (owned.go):
	// regions touched by a single warp or block skip the epoch checks
	// entirely. No effect under FullVC or PerCellShadow, which the
	// detector-level Config rejects.
	Ownership bool
	// ShadowCapBytes bounds the resident shadow (global pages + shared
	// slabs) to this many bytes via LRU eviction, and enables epoch-
	// based compaction of shared slabs at fully-converged block
	// barriers. 0 means unbounded. No effect under FullVC or
	// PerCellShadow, which the detector-level Config rejects.
	ShadowCapBytes int64
	// OnRace, when set, is invoked once per *new* static race, at the
	// moment of discovery (subsequent dynamic occurrences only bump the
	// count and do not re-fire). The callback runs under the detector's
	// report lock on a detection worker goroutine, so it must be fast and
	// must never block indefinitely or call back into the detector; the
	// streaming job API hands it a buffered channel sized to MaxRaces so
	// a send can never block. The Race passed is a snapshot (Count == 1).
	OnRace func(Race)
}

// raceKey dedupes dynamic races into static ones.
type raceKey struct {
	kind       RaceKind
	space      logging.SpaceID
	prevPC     uint32
	curPC      uint32
	prevW      bool
	curW       bool
	sameInstr  bool
	prevAtomic bool
}

// frame is one divergence level of a warp's mirror stack.
type frame struct {
	second    *ptvc.Group // pending second path (nil once it started)
	firstDone *ptvc.Group // completed first path, kept for the merge
}

// warpMirror mirrors one warp's SIMT stack.
type warpMirror struct {
	stack  []*ptvc.Group // stack[0] is the base group; top is active
	frames []frame       // one per divergence level
}

func (w *warpMirror) top() *ptvc.Group { return w.stack[len(w.stack)-1] }

// Detector is the BARRACUDA analysis state plus race reports.
type Detector struct {
	geo  ptvc.Geometry
	opts Options
	mem  *shadow.Memory

	// spans enables the coalesced-span fast path (uniform-span
	// summaries). Off under FullVC (per-thread clocks are not uniform
	// across a warp) and under the PerCellShadow baseline knob.
	spans bool

	// owned enables the exclusive-ownership fast tier and compact the
	// barrier-time shared-slab compaction; both ride on spans.
	owned   bool
	compact bool

	warps []*warpMirror // indexed by global warp id; block-affine access

	// repMu guards only the slow path: the race dedup map and the
	// barrier-divergence list. It is never taken for a record that does
	// not report anything.
	repMu    sync.Mutex
	races    map[raceKey]*Race
	diverge  []BarrierDivergence
	divergeK map[[2]uint32]bool
	fullVC   *fullVCState // non-nil in the FullVC ablation mode

	// base is the shared stats shard behind the worker-less Handle; its
	// counters are atomic so concurrent legacy callers stay safe, but
	// its worker-private caches are disabled.
	base Worker

	// workers registers every NewWorker shard for the lazy merges in
	// Report, FormatHistogram and RecordsSeen.
	workersMu sync.Mutex
	workers   []*Worker

	// syncCursor orders synchronization records globally across queue
	// consumers: a sync record with sequence s is processed only after
	// every sync record with a smaller sequence (and, by per-queue FIFO
	// order, everything program-ordered before them). Without this, a
	// release in one queue could be processed after a dependent acquire
	// from another queue, losing the synchronization edge.
	syncCursor atomic.Uint64
}

// Worker is one queue consumer's private view of a Detector. It shards
// the per-record statistics (record count, same-value filter count, PTVC
// format histogram) so the hot path touches only worker-local cache
// lines, and carries the worker's shadow-lookup and warp-mirror caches.
// A Worker must not be shared across goroutines (except the detector's
// own base shard, which disables the caches).
type Worker struct {
	d       *Detector
	caching bool // false only for the shared base shard

	// Counters are atomic so Report/FormatHistogram may run while
	// workers are still consuming; the adds are uncontended (one writer
	// per shard) and therefore cheap.
	records   atomic.Uint64
	sameValue atomic.Uint64
	hist      [4]atomic.Uint64

	span shadow.SpanCache

	// Last-warp cache: records arrive in bursts from the same warp, so
	// remembering the previous mirror skips the shared-slice lookup.
	lastGwid int32
	lastWarp *warpMirror
}

// NewWorker creates and registers a per-goroutine worker shard.
func (d *Detector) NewWorker() *Worker {
	w := &Worker{d: d, caching: true, lastGwid: -1}
	d.workersMu.Lock()
	d.workers = append(d.workers, w)
	d.workersMu.Unlock()
	return w
}

// shards snapshots the registered worker shards plus the base shard.
func (d *Detector) shards() []*Worker {
	d.workersMu.Lock()
	out := make([]*Worker, 0, len(d.workers)+1)
	out = append(out, &d.base)
	out = append(out, d.workers...)
	d.workersMu.Unlock()
	return out
}

// New creates a detector for a launch with the given geometry and
// per-block static shared-memory size.
func New(geo ptvc.Geometry, sharedBytes int64, opts Options) *Detector {
	if opts.Granularity < 1 {
		opts.Granularity = 1
	}
	if opts.MaxRaces <= 0 {
		opts.MaxRaces = 1024
	}
	d := &Detector{
		geo:      geo,
		opts:     opts,
		mem:      shadow.New(opts.Granularity, sharedBytes, geo),
		warps:    make([]*warpMirror, geo.Blocks*geo.WarpsPerBlock()),
		races:    make(map[raceKey]*Race),
		divergeK: make(map[[2]uint32]bool),
	}
	d.base.d = d
	d.base.lastGwid = -1
	if opts.FullVC {
		d.fullVC = newFullVCState(geo)
	} else if !opts.PerCellShadow {
		d.spans = true
		if opts.Ownership {
			d.owned = true
			d.mem.EnableOwnership()
		}
		if opts.ShadowCapBytes > 0 {
			d.compact = true
			d.mem.SetCapBytes(opts.ShadowCapBytes)
		}
	}
	return d
}

// Geometry returns the launch geometry the detector was built for.
func (d *Detector) Geometry() ptvc.Geometry { return d.geo }

// Shadow exposes the shadow memory (stats and tests).
func (d *Detector) Shadow() *shadow.Memory { return d.mem }

// warp returns the mirror state of a global warp through the worker's
// last-warp cache.
func (w *Worker) warp(gwid int) *warpMirror {
	if w.caching && int32(gwid) == w.lastGwid {
		return w.lastWarp
	}
	m := w.d.warp(gwid)
	if w.caching {
		w.lastGwid = int32(gwid)
		w.lastWarp = m
	}
	return m
}

// warp returns (creating lazily) the mirror state of a global warp.
func (d *Detector) warp(gwid int) *warpMirror {
	w := d.warps[gwid]
	if w == nil {
		lanes := d.geo.BlockSize - (gwid%d.geo.WarpsPerBlock())*d.geo.WarpSize
		if lanes > d.geo.WarpSize {
			lanes = d.geo.WarpSize
		}
		var mask uint32
		if lanes >= 32 {
			mask = ^uint32(0)
		} else {
			mask = 1<<uint(lanes) - 1
		}
		w = &warpMirror{stack: []*ptvc.Group{ptvc.NewGroup(d.geo, gwid, mask)}}
		d.warps[gwid] = w
	}
	return w
}

// Handle processes one record without a per-goroutine worker: stats land
// in the detector's shared base shard (atomically, so concurrent callers
// stay safe) and the worker-private caches are skipped. Queue consumers
// should prefer NewWorker + Worker.Handle.
func (d *Detector) Handle(r *logging.Record) {
	d.base.Handle(r)
}

// Handle processes one record (the detector's per-event entry point).
func (w *Worker) Handle(r *logging.Record) {
	if r.Op == trace.OpFlush {
		// Producer-side filter flush: Seq suppressed records for this warp
		// since the last flush. They are provably report-neutral, but they
		// would have counted toward RecordsSeen and the format histogram, so
		// merge them back here. The producer flushes before anything that
		// changes the warp's group format, so the current top format is the
		// one every suppressed record would have been counted under.
		w.records.Add(r.Seq)
		g := w.warp(int(r.Warp)).top()
		w.hist[g.Format()].Add(r.Seq)
		return
	}
	w.records.Add(1)
	d := w.d
	if d.fullVC != nil {
		d.handleFullVC(r, w)
		return
	}
	switch r.Op {
	case trace.OpRead, trace.OpWrite, trace.OpAtom:
		d.handleMemory(r, w)
	case trace.OpAcqBlk, trace.OpRelBlk, trace.OpArBlk,
		trace.OpAcqGlb, trace.OpRelGlb, trace.OpArGlb:
		d.handleSync(r, w)
	case trace.OpBar:
		d.handleBarMarker(r, w)
	case trace.OpBarRel:
		d.handleBarRelease(r, w)
	case trace.OpIf:
		d.handleIf(r, w)
	case trace.OpElse:
		d.handleElse(r, w)
	case trace.OpFi:
		d.handleFi(r, w)
	case trace.OpEnd, trace.OpNone:
		// stream control; nothing to do
	}
}

// ordered reports whether epoch e happens-before the current operation of
// the group's active lane `tid`.
func ordered(g *ptvc.Group, tid vc.TID, e vc.Epoch) bool {
	if e.IsZero() {
		return true
	}
	if e.T == tid {
		return e.C <= g.L
	}
	return g.EpochOrdered(e)
}

// handleMemory implements the READ*/WRITE*/ATOM* rules for every active
// lane of a warp-level memory record, followed by ENDINSN. This is the
// per-record fast path: no mutex is acquired anywhere on it — stats go
// to the worker's shard, shadow lookups go through the worker's span
// cache over the page table, and cells are guarded by their region's CAS
// spinlock.
func (d *Detector) handleMemory(r *logging.Record, w *Worker) {
	g := w.warp(int(r.Warp)).top()
	w.hist[g.Format()].Add(1)
	if !d.tryOwned(r, g, w) && !d.trySpan(r, g, w) {
		var span *shadow.SpanCache
		if w.caching {
			span = &w.span
		}
		tid0 := d.geo.TIDOf(int(r.Warp), 0)
		d.forEachLaneCell(span, r, func(lane int, reg *shadow.Region, idx, weight int) {
			d.apply(reg, idx, g, tid0+vc.TID(lane), r, lane, weight, w)
		})
	}
	g.EndInstr()
}

// apply runs the record's READ*/WRITE*/ATOM* rule for one lane on cell
// idx of reg, whose lock the caller holds. weight is the number
// of configured-granule cells the cell stands for (shadow.Memory.Weight):
// every check on it counts that many times.
func (d *Detector) apply(reg *shadow.Region, idx int, g *ptvc.Group, tid vc.TID, r *logging.Record, lane, weight int, w *Worker) {
	switch r.Op {
	case trace.OpRead:
		d.applyRead(reg, idx, g, tid, r, lane, weight)
	case trace.OpWrite:
		d.applyWrite(reg, idx, g, tid, r, lane, weight, w)
	case trace.OpAtom:
		d.applyAtomic(reg, idx, g, tid, r, lane, weight)
	}
}

func (d *Detector) applyRead(reg *shadow.Region, idx int, g *ptvc.Group, tid vc.TID, r *logging.Record, lane, weight int) {
	c := &reg.Cells()[idx]
	if !ordered(g, tid, c.W) {
		d.report(tid, r, lane, false, c.W.T, c.WritePC, true, c.Atomic, false, weight)
	}
	c.ReadPC = r.PC
	switch {
	case c.ReadShared:
		// READSHARED: concurrent readers use the sparse read clock.
		reg.Readers(idx)[tid] = g.L
	case ordered(g, tid, c.R):
		// READEXCL: totally-ordered reads stay an epoch.
		c.R = vc.Epoch{T: tid, C: g.L}
	default:
		// READINFLATE: first concurrent read inflates to a read map.
		d.mem.InflateReads(reg, idx)[tid] = g.L
	}
}

func (d *Detector) applyWrite(reg *shadow.Region, idx int, g *ptvc.Group, tid vc.TID, r *logging.Record, lane, weight int, w *Worker) {
	c := &reg.Cells()[idx]
	if !ordered(g, tid, c.W) {
		// Same-instruction intra-warp write-write: filter when the
		// lanes stored the same value (§3.3.1).
		sameInstr := d.sameInstruction(g, c.W, tid)
		filtered := false
		if sameInstr && !d.opts.NoSameValueFilter && r.Op == trace.OpWrite && !c.Atomic {
			prevLane := d.geo.LaneOf(c.W.T)
			if r.Mask&(1<<uint(prevLane)) != 0 && r.Vals[prevLane] == r.Vals[lane] {
				filtered = true
				w.sameValue.Add(uint64(weight))
			}
		}
		if !filtered {
			d.report(tid, r, lane, true, c.W.T, c.WritePC, true, c.Atomic, sameInstr, weight)
		}
	}
	d.checkReaders(reg, idx, g, tid, r, lane, weight)
	c.W = vc.Epoch{T: tid, C: g.L}
	c.Atomic = false
	c.WritePC = r.PC
	reg.ClearReads(idx)
}

func (d *Detector) applyAtomic(reg *shadow.Region, idx int, g *ptvc.Group, tid vc.TID, r *logging.Record, lane, weight int) {
	c := &reg.Cells()[idx]
	// ATOMEXCL/ATOMSHARED: atomic-to-atomic needs no write check —
	// atomics do not race with each other (nor synchronize). INITATOM*:
	// the previous write was non-atomic; PTX gives no atomicity
	// guarantee against normal stores.
	if !c.Atomic && !ordered(g, tid, c.W) {
		d.report(tid, r, lane, true, c.W.T, c.WritePC, true, false, false, weight)
	}
	d.checkReaders(reg, idx, g, tid, r, lane, weight)
	c.W = vc.Epoch{T: tid, C: g.L}
	c.Atomic = true
	c.WritePC = r.PC
	reg.ClearReads(idx)
}

// checkReaders verifies all previous reads happen-before the current
// write/atomic. Readers are visited in TID order: the first racing
// reader becomes the race's reported representative, and map iteration
// order would make that attribution flap from run to run.
func (d *Detector) checkReaders(reg *shadow.Region, idx int, g *ptvc.Group, tid vc.TID, r *logging.Record, lane, weight int) {
	c := &reg.Cells()[idx]
	if c.ReadShared {
		readers := reg.Readers(idx)
		for _, u := range sortedReaders(readers) {
			if !ordered(g, tid, vc.Epoch{T: u, C: readers[u]}) {
				d.report(tid, r, lane, true, u, c.ReadPC, false, false, false, weight)
			}
		}
		return
	}
	if !ordered(g, tid, c.R) {
		d.report(tid, r, lane, true, c.R.T, c.ReadPC, false, false, false, weight)
	}
}

// sortedReaders returns the read map's TIDs in ascending order.
func sortedReaders(m map[vc.TID]vc.Clock) []vc.TID {
	tids := make([]vc.TID, 0, len(m))
	for u := range m {
		tids = append(tids, u)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	return tids
}

// sameInstruction reports whether the conflicting epoch belongs to an
// active lane-mate at the current local clock — i.e. the two accesses come
// from the same warp instruction.
func (d *Detector) sameInstruction(g *ptvc.Group, e vc.Epoch, tid vc.TID) bool {
	if e.IsZero() || d.geo.WarpOf(e.T) != d.geo.WarpOf(tid) {
		return false
	}
	lane := d.geo.LaneOf(e.T)
	return g.Mask&(1<<uint(lane)) != 0 && e.C == g.L
}

// awaitSyncTurn blocks until every earlier synchronization record has
// been fully processed (cross-queue sync ordering). The bounded backoff
// matters at high queue counts: a consumer whose sync record is far down
// the global order would otherwise burn a core spinning.
func (d *Detector) awaitSyncTurn(r *logging.Record) {
	if r.Seq == 0 {
		return
	}
	var bo logging.Backoff
	for d.syncCursor.Load() != r.Seq-1 {
		bo.Wait()
	}
}

// finishSyncTurn publishes that this sync record is done.
func (d *Detector) finishSyncTurn(r *logging.Record) {
	if r.Seq != 0 {
		d.syncCursor.Store(r.Seq)
	}
}

// handleSync implements ACQ*/REL*/ACQREL* for every active lane, followed
// by ENDINSN. A synchronization access updates S_x and does not undergo
// the plain-access race checks, matching Figure 3.
func (d *Detector) handleSync(r *logging.Record, w *Worker) {
	d.awaitSyncTurn(r)
	defer d.finishSyncTurn(r)
	g := w.warp(int(r.Warp)).top()
	block := d.geo.BlockOfWarp(int(r.Warp))
	blk := int32(-1)
	if r.Space == logging.SpaceShared {
		blk = int32(r.Block)
	}
	for lane := 0; lane < d.geo.WarpSize && lane < logging.WarpWidth; lane++ {
		if r.Mask&(1<<uint(lane)) == 0 {
			continue
		}
		key := shadow.Key{Space: r.Space, Block: blk, Addr: r.LaneAddr(lane)}
		loc := d.mem.SyncFor(key)
		loc.Lock()
		if r.Op.IsAcquire() {
			var snaps []*ptvc.Snapshot
			if r.Op.GlobalScope() {
				snaps = loc.AcquireGlobal(d.geo.Blocks)
			} else {
				snaps = loc.AcquireBlock(block)
			}
			for _, s := range snaps {
				g.Acquire(s)
			}
		}
		if r.Op.IsRelease() {
			snap := g.Snapshot(lane)
			if r.Op.GlobalScope() {
				loc.ReleaseGlobal(snap)
			} else {
				loc.ReleaseBlock(block, snap)
			}
		}
		loc.Unlock()
	}
	g.EndInstr()
}

// handleBarMarker checks a per-warp barrier record for barrier divergence:
// every populated lane of the warp must be active.
func (d *Detector) handleBarMarker(r *logging.Record, w *Worker) {
	g := w.warp(int(r.Warp)).top()
	if r.Mask == g.FullMask && len(w.warp(int(r.Warp)).stack) == 1 {
		return
	}
	key := [2]uint32{r.Warp, r.PC}
	d.repMu.Lock()
	if !d.divergeK[key] {
		d.divergeK[key] = true
		d.diverge = append(d.diverge, BarrierDivergence{
			Block: int(r.Block), Warp: int(r.Warp), PC: r.PC, Mask: r.Mask,
		})
	}
	d.repMu.Unlock()
}

// handleBarRelease applies the BAR rule: a block-wide join of the arrived
// warps' clocks, implemented as a broadcast of the block's maximum clock.
func (d *Detector) handleBarRelease(r *logging.Record, _ *Worker) {
	wpb := d.geo.WarpsPerBlock()
	base := int(r.Block) * wpb
	var groups []*ptvc.Group
	var m vc.Clock
	for wi := 0; wi < wpb && wi < 32; wi++ {
		if r.Mask&(1<<uint(wi)) == 0 {
			continue
		}
		g := d.warp(base + wi).top()
		groups = append(groups, g)
		if g.L > m {
			m = g.L
		}
	}
	ptvc.MergeExt(groups)
	for _, g := range groups {
		g.Barrier(m)
	}
	if d.compact {
		d.maybeCompactShared(r, base, wpb)
	}
}

// handleIf mirrors the SIMT-stack push of a divergent branch (IF rule).
func (d *Detector) handleIf(r *logging.Record, wk *Worker) {
	w := wk.warp(int(r.Warp))
	g := w.top()
	first, second := g.Split(r.Mask)
	w.frames = append(w.frames, frame{second: second})
	w.stack = append(w.stack, first)
}

// handleElse switches to the second divergent path (ELSE rule).
func (d *Detector) handleElse(r *logging.Record, wk *Worker) {
	w := wk.warp(int(r.Warp))
	if len(w.frames) == 0 {
		return // tolerate stray events
	}
	f := &w.frames[len(w.frames)-1]
	if f.second == nil {
		return
	}
	f.firstDone = w.top()
	w.stack[len(w.stack)-1] = f.second
	f.second = nil
}

// handleFi reconverges the paths (FI rule).
func (d *Detector) handleFi(r *logging.Record, wk *Worker) {
	w := wk.warp(int(r.Warp))
	if len(w.frames) == 0 || len(w.stack) < 2 {
		return
	}
	f := w.frames[len(w.frames)-1]
	w.frames = w.frames[:len(w.frames)-1]
	second := w.top()
	w.stack = w.stack[:len(w.stack)-1]
	firstDone := f.firstDone
	if firstDone == nil {
		// The second path never ran (it was empty): merge the single
		// path with itself.
		firstDone = second
	}
	w.top().Merge(firstDone, second)
}

// report records weight dynamic occurrences of one race, deduplicating
// into static races. weight is the number of configured-granule cells
// the checked cell stands for: the per-byte detector would have made
// this very report once per byte cell of the word, back to back, so the
// first occurrence discovers the race (OnRace sees Count 1, MaxRaces
// drops it or not) and the rest only count.
func (d *Detector) report(tid vc.TID, r *logging.Record,
	lane int, curWrite bool, prevTID vc.TID, prevPC uint32, prevWrite, prevAtomic, sameInstr bool, weight int) {

	kind := InterBlock
	switch {
	case d.geo.WarpOf(prevTID) == d.geo.WarpOf(tid):
		kind = IntraWarp
	case d.geo.BlockOf(prevTID) == d.geo.BlockOf(tid):
		kind = IntraBlock
	}
	key := raceKey{
		kind: kind, space: r.Space, prevPC: prevPC, curPC: r.PC,
		prevW: prevWrite, curW: curWrite, sameInstr: sameInstr,
		prevAtomic: prevAtomic,
	}
	d.repMu.Lock()
	defer d.repMu.Unlock()
	if rc := d.races[key]; rc != nil {
		rc.Count += weight
		return
	}
	if len(d.races) >= d.opts.MaxRaces {
		return
	}
	blk := int32(-1)
	if r.Space == logging.SpaceShared {
		blk = int32(r.Block)
	}
	rc := &Race{
		Kind:      kind,
		Space:     r.Space,
		Block:     blk,
		Addr:      r.LaneAddr(lane),
		Prev:      Access{TID: prevTID, PC: prevPC, Write: prevWrite, Atomic: prevAtomic},
		Cur:       Access{TID: tid, PC: r.PC, Write: curWrite, Atomic: r.Op == trace.OpAtom},
		SameInstr: sameInstr,
		Count:     1,
	}
	d.races[key] = rc
	if d.opts.OnRace != nil {
		d.opts.OnRace(*rc)
	}
	rc.Count = weight
}

// Report snapshots the detector's findings, with races ordered by source
// position for stable output. The per-record counters are merged from
// the worker shards here, lazily, instead of being maintained centrally
// on the hot path.
func (d *Detector) Report() *Report {
	out := &Report{}
	for _, w := range d.shards() {
		out.RecordsSeen += w.records.Load()
		out.SameValueGag += w.sameValue.Load()
	}
	out.Shadow = d.mem.Stats()
	out.PrecisionDegraded = out.Shadow.PrecisionDegraded
	d.repMu.Lock()
	defer d.repMu.Unlock()
	for _, rc := range d.races {
		out.Races = append(out.Races, *rc)
	}
	sort.Slice(out.Races, func(i, j int) bool {
		a, b := out.Races[i], out.Races[j]
		if a.Prev.PC != b.Prev.PC {
			return a.Prev.PC < b.Prev.PC
		}
		if a.Cur.PC != b.Cur.PC {
			return a.Cur.PC < b.Cur.PC
		}
		return a.Kind < b.Kind
	})
	out.Divergences = append(out.Divergences, d.diverge...)
	return out
}

// FormatStats counts the PTVC formats currently in use across all warps
// (the Figure 7 distribution at the current instant).
func (d *Detector) FormatStats() map[ptvc.Format]int {
	out := make(map[ptvc.Format]int)
	for _, w := range d.warps {
		if w == nil {
			continue
		}
		for _, g := range w.stack {
			out[g.Format()]++
		}
	}
	return out
}

// FormatHistogram returns how often each PTVC format was the active
// group's representation, sampled at every memory record processed — the
// "roughly 90% of the time PTVCs are compressible" measurement of
// §4.3.1. The histogram is merged from the per-worker shards.
func (d *Detector) FormatHistogram() map[ptvc.Format]uint64 {
	var hist [4]uint64
	for _, w := range d.shards() {
		for i := range hist {
			hist[i] += w.hist[i].Load()
		}
	}
	return map[ptvc.Format]uint64{
		ptvc.Converged:      hist[ptvc.Converged],
		ptvc.Diverged:       hist[ptvc.Diverged],
		ptvc.NestedDiverged: hist[ptvc.NestedDiverged],
		ptvc.SparseVC:       hist[ptvc.SparseVC],
	}
}
