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
// Concurrency: records enter only through Worker.Handle. Each
// queue-consumer goroutine creates its Worker with NewWorker, keeping all
// records of one thread block on the same worker (the block-to-queue
// affinity of package logging guarantees this). Per-warp and per-block
// state is block-affine; shadow cells are guarded by their region's
// spinlock in every configuration; and per-record statistics (record
// count, same-value filter count, PTVC format histogram) live in
// per-worker shards merged lazily by Report and FormatHistogram — so the
// per-record fast path of a memory access acquires no mutex at all. Only
// the rare events (a detected race, a barrier divergence) take the report
// mutex.
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

	// Shadow snapshots the shadow-memory occupancy and the bounded-
	// shadow counters (evictions, compactions) at report time. Diagnostic only: the canonical
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
	// per-thread vector clocks — the ablation baseline for §4.3.1. It
	// walks the same shadow as the epoch rules.
	FullVC bool
	// PerCellShadow and Ownership are read by nothing: every record takes
	// the one per-cell walk, which has neither a coalesced-span path nor
	// an ownership tier beside it. They stay only while benchmarks/e2e
	// names them.
	PerCellShadow bool
	Ownership     bool
	// ShadowCapBytes bounds the resident shadow (global pages + shared
	// slabs) to this many bytes via LRU eviction, and enables epoch-
	// based compaction of shared slabs at fully-converged block
	// barriers (the epoch rules only: FullVC handles barriers itself).
	// 0 means unbounded.
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

	// compact enables the barrier-time shared-slab compaction of the
	// bounded shadow.
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
// A Worker must not be shared across goroutines.
type Worker struct {
	d *Detector

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
	w := &Worker{d: d, lastGwid: -1}
	d.workersMu.Lock()
	d.workers = append(d.workers, w)
	d.workersMu.Unlock()
	return w
}

// shards snapshots the registered worker shards.
func (d *Detector) shards() []*Worker {
	d.workersMu.Lock()
	defer d.workersMu.Unlock()
	return append([]*Worker(nil), d.workers...)
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
		mem:      shadow.New(opts.Granularity, sharedBytes),
		warps:    make([]*warpMirror, geo.Blocks*geo.WarpsPerBlock()),
		races:    make(map[raceKey]*Race),
		divergeK: make(map[[2]uint32]bool),
	}
	if opts.FullVC {
		d.fullVC = newFullVCState(geo)
	}
	if opts.ShadowCapBytes > 0 {
		d.compact = true
		d.mem.SetCapBytes(opts.ShadowCapBytes)
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
	if int32(gwid) != w.lastGwid {
		w.lastGwid, w.lastWarp = int32(gwid), w.d.warp(gwid)
	}
	return w.lastWarp
}

// warp returns (creating lazily) the mirror state of a global warp.
func (d *Detector) warp(gwid int) *warpMirror {
	w := d.warps[gwid]
	if w == nil {
		w = &warpMirror{stack: []*ptvc.Group{ptvc.NewGroup(d.geo, gwid, d.laneMask(gwid))}}
		d.warps[gwid] = w
	}
	return w
}

// laneMask returns the populated-lane mask of a global warp: every lane
// but those past the end of a partial last warp.
func (d *Detector) laneMask(gwid int) uint32 {
	lanes := min(d.geo.BlockSize-(gwid%d.geo.WarpsPerBlock())*d.geo.WarpSize, d.geo.WarpSize)
	if lanes >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(lanes) - 1
}

// Handle processes one record (the detector's per-event entry point).
func (w *Worker) Handle(r *logging.Record) {
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

// clockView is what the READ/WRITE/ATOM rules ask of the accessing
// thread's vector clock: whether an epoch is ordered before its current
// operation, what its current clock is, and whether an epoch comes from
// the same warp instruction. The compressed group (epochView) and the
// FullVC ablation's per-thread clocks (fullVCState) each answer them, so
// both representations run one copy of the rules.
type clockView interface {
	ordered(tid vc.TID, e vc.Epoch) bool
	clock(tid vc.TID) vc.Clock
	sameInstr(e vc.Epoch, tid vc.TID) bool
}

// epochView is the compressed group's clockView: every active lane's
// current clock is the group's local clock L.
type epochView ptvc.Group

func (v *epochView) ordered(tid vc.TID, e vc.Epoch) bool {
	return ordered((*ptvc.Group)(v), tid, e)
}

func (v *epochView) clock(vc.TID) vc.Clock { return v.L }

// sameInstr reports whether the epoch belongs to an active lane-mate at
// the current local clock, i.e. to this very warp instruction.
func (v *epochView) sameInstr(e vc.Epoch, tid vc.TID) bool {
	if e.IsZero() || v.Geo.WarpOf(e.T) != v.Geo.WarpOf(tid) {
		return false
	}
	return v.Mask&(1<<uint(v.Geo.LaneOf(e.T))) != 0 && e.C == v.L
}

// handleMemory implements the READ*/WRITE*/ATOM* rules for every active
// lane of a warp-level memory record, followed by ENDINSN. This is the
// per-record hot path: no mutex is acquired anywhere on it — stats go
// to the worker's shard, shadow lookups go through the worker's span
// cache over the page table, and cells are guarded by their region's CAS
// spinlock.
func (d *Detector) handleMemory(r *logging.Record, w *Worker) {
	g := w.warp(int(r.Warp)).top()
	w.hist[g.Format()].Add(1)
	d.walkRecord(r, g, w)
	g.EndInstr()
}

// applyRun runs the record's READ*/WRITE*/ATOM* rule on every cell of a
// region run, whose lock the caller holds. The loop inlines the case nearly
// every cell is in — the last write ordered (or none), the last read
// ordered, no read map — where a read only advances the read epoch
// (READEXCL) and a write or atomic only installs its write epoch and clears
// the read; every other cell goes to applyCell. Every check on a cell counts
// the run's weight (shadow.Memory.Weight).
func (d *Detector) applyRun(run *shadow.Run, g *ptvc.Group, r *logging.Record, w *Worker) {
	reg, cells, tid0 := run.Reg, run.Reg.Cells(), d.geo.TIDOf(int(r.Warp), 0)
	read, atomic := r.Op == trace.OpRead, r.Op == trace.OpAtom
	for _, lc := range run.Lanes {
		tid := tid0 + vc.TID(lc.Lane)
		for idx := lc.Lo; idx < lc.Hi; idx++ {
			i := min(idx, run.Last)
			c := &cells[i]
			switch fast := !c.ReadShared() && ordered(g, tid, c.W) && ordered(g, tid, c.R); {
			case fast && read:
				c.SetRead(vc.Epoch{T: tid, C: g.L}, r.PC)
			case fast:
				c.SetWrite(vc.Epoch{T: tid, C: g.L}, r.PC, atomic)
				c.R = vc.Epoch{}
			default:
				d.applyCell(reg, i, (*epochView)(g), tid, r, lc.Lane, run.Weight, w)
			}
		}
	}
}

// applyCell runs the record's rule on cell idx of a locked region for
// thread tid, against its clock as v sees it.
func (d *Detector) applyCell(reg *shadow.Region, idx int, v clockView, tid vc.TID, r *logging.Record, lane, weight int, w *Worker) {
	switch r.Op {
	case trace.OpRead:
		d.applyRead(reg, idx, v, tid, r, lane, weight)
	case trace.OpAtom:
		d.applyAtomic(reg, idx, v, tid, r, lane, weight)
	default:
		d.applyWrite(reg, idx, v, tid, r, lane, weight, w)
	}
}

func (d *Detector) applyRead(reg *shadow.Region, idx int, v clockView, tid vc.TID, r *logging.Record, lane, weight int) {
	c := &reg.Cells()[idx]
	if !v.ordered(tid, c.W) {
		d.report(tid, r, lane, false, c.W.T, c.WritePC(), true, c.Atomic(), false, weight)
	}
	switch {
	case c.ReadShared():
		// READSHARED: concurrent readers use the sparse read clock.
		reg.Readers(idx)[tid] = shadow.Read{C: v.clock(tid), PC: r.PC}
	case v.ordered(tid, c.R):
		// READEXCL: totally-ordered reads stay an epoch.
		c.SetRead(vc.Epoch{T: tid, C: v.clock(tid)}, r.PC)
	default:
		// READINFLATE: first concurrent read inflates to a read map, seeded
		// with the read epoch and its PC.
		d.mem.InflateReads(reg, idx)[tid] = shadow.Read{C: v.clock(tid), PC: r.PC}
	}
}

func (d *Detector) applyWrite(reg *shadow.Region, idx int, v clockView, tid vc.TID, r *logging.Record, lane, weight int, w *Worker) {
	c := &reg.Cells()[idx]
	if !v.ordered(tid, c.W) {
		// Same-instruction intra-warp write-write: filter when the
		// lanes stored the same value (§3.3.1).
		sameInstr := v.sameInstr(c.W, tid)
		filtered := false
		if sameInstr && !d.opts.NoSameValueFilter && !c.Atomic() {
			prevLane := d.geo.LaneOf(c.W.T)
			if r.Mask&(1<<uint(prevLane)) != 0 && r.Vals[prevLane] == r.Vals[lane] {
				filtered = true
				w.sameValue.Add(uint64(weight))
			}
		}
		if !filtered {
			d.report(tid, r, lane, true, c.W.T, c.WritePC(), true, c.Atomic(), sameInstr, weight)
		}
	}
	d.checkReaders(reg, idx, v, tid, r, lane, weight)
	c.SetWrite(vc.Epoch{T: tid, C: v.clock(tid)}, r.PC, false)
	reg.ClearReads(idx)
}

func (d *Detector) applyAtomic(reg *shadow.Region, idx int, v clockView, tid vc.TID, r *logging.Record, lane, weight int) {
	c := &reg.Cells()[idx]
	// ATOMEXCL/ATOMSHARED: atomic-to-atomic needs no write check —
	// atomics do not race with each other (nor synchronize). INITATOM*:
	// the previous write was non-atomic; PTX gives no atomicity
	// guarantee against normal stores.
	if !c.Atomic() && !v.ordered(tid, c.W) {
		d.report(tid, r, lane, true, c.W.T, c.WritePC(), true, false, false, weight)
	}
	d.checkReaders(reg, idx, v, tid, r, lane, weight)
	c.SetWrite(vc.Epoch{T: tid, C: v.clock(tid)}, r.PC, true)
	reg.ClearReads(idx)
}

// checkReaders verifies all previous reads happen-before the current
// write/atomic, and reports each racing reader with its own PC. Readers
// are visited in TID order: the first racing reader of a static race is
// its reported witness, and map iteration order would make that flap
// from run to run.
func (d *Detector) checkReaders(reg *shadow.Region, idx int, v clockView, tid vc.TID, r *logging.Record, lane, weight int) {
	c := &reg.Cells()[idx]
	if c.ReadShared() {
		readers := reg.Readers(idx)
		for _, u := range sortedReaders(readers) {
			if rd := readers[u]; !v.ordered(tid, vc.Epoch{T: u, C: rd.C}) {
				d.report(tid, r, lane, true, u, rd.PC, false, false, false, weight)
			}
		}
		return
	}
	if !v.ordered(tid, c.R) {
		d.report(tid, r, lane, true, c.R.T, c.ReadPC(), false, false, false, weight)
	}
}

// sortedReaders returns the read map's TIDs in ascending order.
func sortedReaders(m map[vc.TID]shadow.Read) []vc.TID {
	tids := make([]vc.TID, 0, len(m))
	for u := range m {
		tids = append(tids, u)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	return tids
}

// awaitSyncTurn blocks until every earlier synchronization record has
// been fully processed (cross-queue sync ordering). The backoff matters at
// high queue counts: a consumer whose sync record is far down the global
// order would otherwise burn a core spinning. Nothing signals the cursor,
// so once the backoff reaches its sleeps the wait advances in 1 ms steps
// (see logging.Backoff); with one queue the sync records arrive in Seq
// order and it never waits.
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
	if m := w.warp(int(r.Warp)); r.Mask != m.top().FullMask || len(m.stack) != 1 {
		d.noteDivergence(r)
	}
}

// noteDivergence records a barrier reached with inactive lanes, once per
// warp and barrier.
func (d *Detector) noteDivergence(r *logging.Record) {
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
// The release mask has a bit for every warp of the block: a launch holds
// a block to gpusim.MaxBlockWarps warps.
func (d *Detector) handleBarRelease(r *logging.Record, _ *Worker) {
	wpb := d.geo.WarpsPerBlock()
	base := int(r.Block) * wpb
	var groups []*ptvc.Group
	var m vc.Clock
	for wi := 0; wi < wpb; wi++ {
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

// maybeCompactShared drops a block's shared-memory shadow slab after a
// barrier release at which every populated warp of the block arrived
// fully converged. At such a barrier, every epoch stored in the slab
// has clock < its warp's pre-barrier L <= m (the convergence
// invariant: while a warp's group is fully converged, every epoch the
// warp stored has a clock below its L), and Barrier(m) relabels every
// warp to B = m, L = m+1 — so each resident epoch is forever ordered
// before every future access by the block, and the slab is block-
// private, so no other accessor exists. Dropping it (a later access
// reallocates virgin cells) is therefore report-identical. A warp that
// did not arrive, or arrived diverged, can hold unrelabeled sibling
// clocks above m, making the drop unsafe — hence both checks.
func (d *Detector) maybeCompactShared(r *logging.Record, base, wpb int) {
	for wi := 0; wi < wpb; wi++ {
		w := d.warps[base+wi]
		if w == nil {
			continue // never ran: stored nothing
		}
		if r.Mask&(1<<uint(wi)) == 0 {
			return // populated but not arrived
		}
		if len(w.stack) != 1 || w.top().Mask != w.top().FullMask {
			return // not converged at the barrier
		}
	}
	d.mem.CompactSharedSlab(int32(r.Block))
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
