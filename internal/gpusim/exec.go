package gpusim

import (
	"fmt"
	"math/rand"

	"barracuda/internal/logging"
	"barracuda/internal/trace"
)

// LaunchConfig describes one kernel launch.
type LaunchConfig struct {
	Grid  Dim3     // grid dimensions in thread blocks
	Block Dim3     // block dimensions in threads
	Args  []uint64 // one value per kernel parameter

	// Sink receives records from `_log.*` pseudo-instructions and (when
	// EmitBranchEvents is set) the If/Else/Fi divergence events from the
	// SIMT stack. Nil runs the kernel natively with no logging.
	Sink             Sink
	EmitBranchEvents bool

	// MaxResidentBlocks bounds how many thread blocks execute
	// concurrently (a wave), like SM occupancy limits on a real GPU.
	// 0 means the default of 48.
	MaxResidentBlocks int

	// RandomSched randomizes the warp scheduling order each pass using
	// Seed; otherwise scheduling is deterministic round-robin.
	RandomSched bool
	Seed        int64

	// MaxWarpInstrs aborts the launch with ErrStepBudget once this many
	// dynamic warp instructions have executed (0 = no limit). Kernels
	// that starve on the SIMT stack — e.g. an intra-warp spinlock, a
	// real deadlock on pre-Volta GPUs — otherwise spin forever.
	MaxWarpInstrs uint64

	// WarpSize overrides the architecture's warp width (default 32,
	// range 2..32). Running a kernel at a smaller warp size exposes
	// latent bugs in code that assumes 32-thread lockstep.
	WarpSize int

	// ProducerFilter enables the producer-side epoch filter: each warp
	// keeps a small direct-mapped cache of recently emitted global-space
	// access records and suppresses a record when an equivalent one was
	// already emitted by the same warp in the current synchronization
	// interval with no intervening global interference (see filter.go for
	// the exact validity conditions). Suppressed counts are reconciled via
	// trace.OpFlush records so detector statistics and canonical digests
	// are byte-identical to an unfiltered run. Only active with a Sink
	// and EmitBranchEvents set; ignored otherwise.
	ProducerFilter bool

	// FilterGranularity is the detector's shadow granularity in bytes,
	// used by the filter's write-suppression gate (lanes of a suppressed
	// multi-lane write must provably touch disjoint shadow cells so
	// same-value counters cannot drift). 0 means 1.
	FilterGranularity int
}

// ErrStepBudget is returned (wrapped) when a launch exceeds
// LaunchConfig.MaxWarpInstrs.
var ErrStepBudget = fmt.Errorf("gpusim: warp instruction budget exceeded")

// Stats summarises one launch.
type Stats struct {
	WarpInstrs   uint64      // dynamic warp-level instructions executed
	ThreadInstrs uint64      // dynamic per-lane instructions executed
	Records      uint64      // records emitted to the sink
	Barriers     uint64      // block barrier episodes completed
	Divergences  uint64      // dynamic divergent branches
	Filter       FilterStats // producer-side filter activity (zero when off)
}

// FilterStats counts producer-side filter activity. All fields are zero
// unless LaunchConfig.ProducerFilter was active for the launch.
type FilterStats struct {
	Probes       uint64 // dynamic filter-cache probes
	Hits         uint64 // records suppressed by the dynamic cache
	StaticElides uint64 // records elided at statically marked log-once sites
	Flushes      uint64 // OpFlush reconciliation records emitted
}

// Suppressed returns the total number of access records the filter kept
// off the queue.
func (f FilterStats) Suppressed() uint64 { return f.Hits + f.StaticElides }

// stackRole distinguishes SIMT stack entries for If/Else/Fi event emission.
type stackRole uint8

const (
	roleTop    stackRole = iota // base entry or reconvergence continuation
	roleFirst                   // first-executing divergent path
	roleSecond                  // second-executing divergent path
)

type stackEntry struct {
	pc   int
	rpc  int // reconvergence pc (-1 for the base entry)
	mask uint32
	role stackRole
}

type warpState struct {
	blk      *blockState
	widx     int    // warp index within the block
	gwid     int    // global warp id
	baseTID  int    // global TID of lane 0
	fullMask uint32 // lanes populated at launch (partial last warp)
	lanes    int    // populated lanes: fullMask is the low `lanes` bits
	exited   uint32
	stack    []stackEntry
	regs     []uint64 // register-major: regs[r*WarpSize+lane], WarpSize*nRegs long
	preds    []uint32 // preds[p] is a lane mask: bit `lane` is the lane's value
	local    []byte   // lane-private local memory, localBytes per lane
	waiting  bool     // parked at a barrier
	done     bool

	// Producer-side filter state (see filter.go). fgen is monotone over
	// the warpState's lifetime — including arena reuse across launches —
	// so stale cache slots are invalidated by a single increment.
	fgen   uint64
	fpend  uint64     // suppressed records not yet reconciled via OpFlush
	fslots []fslot    // dynamic direct-mapped cache (lazy)
	fonce  []onceSlot // per static log-once site (lazy)
}

type blockState struct {
	idx      int // linear block id
	shared   []byte
	warps    []*warpState
	liveWarp int // warps not done
}

type engine struct {
	mod     *Module
	lk      *loadedKernel
	code    []cInstr
	dev     *Device
	cfg     LaunchConfig
	grid    Dim3
	block   Dim3
	bsz     int // threads per block
	wpb     int // warps per block
	ws      int // warp width (lanes per warp)
	rng     *rand.Rand
	stats   Stats
	rec     logging.Record // scratch record
	syncSeq uint64         // global ordering for synchronization records

	// Producer-side filter (see filter.go).
	filtOn       bool
	fGran        uint64         // shadow granularity for the write gate
	fWriteEpoch  uint64         // emitted global write/atomic/sync records
	fAccessEpoch uint64         // emitted global memory records of any kind
	frec         logging.Record // scratch for OpFlush (must not alias rec)
}

// Launch runs a kernel to completion and returns execution statistics.
func (mod *Module) Launch(name string, cfg LaunchConfig) (Stats, error) {
	lk := mod.kernels[name]
	if lk == nil {
		return Stats{}, fmt.Errorf("gpusim: unknown kernel %q", name)
	}
	if len(cfg.Args) != len(lk.cfg.Kernel.Params) {
		return Stats{}, fmt.Errorf("gpusim: kernel %s wants %d args, got %d",
			name, len(lk.cfg.Kernel.Params), len(cfg.Args))
	}
	code, err := mod.compile(lk)
	if err != nil {
		return Stats{}, err
	}
	e := &engine{
		mod:   mod,
		lk:    lk,
		code:  code,
		dev:   mod.Dev,
		cfg:   cfg,
		grid:  cfg.Grid.norm(),
		block: cfg.Block.norm(),
	}
	e.bsz = e.block.Count()
	if e.bsz == 0 || e.grid.Count() == 0 {
		return Stats{}, fmt.Errorf("gpusim: empty launch configuration")
	}
	e.ws = cfg.WarpSize
	if e.ws == 0 {
		e.ws = WarpSize
	}
	if e.ws < 2 || e.ws > 32 {
		return Stats{}, fmt.Errorf("gpusim: warp size %d out of range [2,32]", e.ws)
	}
	e.wpb = (e.bsz + e.ws - 1) / e.ws
	e.filtOn = cfg.ProducerFilter && cfg.Sink != nil && cfg.EmitBranchEvents
	e.fGran = uint64(cfg.FilterGranularity)
	if e.fGran == 0 {
		e.fGran = 1
	}
	if cfg.RandomSched {
		e.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	if err := e.run(); err != nil {
		return e.stats, fmt.Errorf("gpusim: kernel %s: %w", name, err)
	}
	return e.stats, nil
}

func (e *engine) newBlock(ar *launchArena, idx int) *blockState {
	if blk, ok := ar.takeBlock(e, idx); ok {
		return blk
	}
	blk := &blockState{
		idx:    idx,
		shared: make([]byte, e.lk.sharedBytes),
		warps:  make([]*warpState, e.wpb),
	}
	for wi := 0; wi < e.wpb; wi++ {
		lanes := e.bsz - wi*e.ws
		if lanes > e.ws {
			lanes = e.ws
		}
		var mask uint32
		if lanes == 32 {
			mask = ^uint32(0)
		} else {
			mask = (1 << uint(lanes)) - 1
		}
		w := &warpState{
			blk:      blk,
			widx:     wi,
			gwid:     idx*e.wpb + wi,
			baseTID:  idx*e.bsz + wi*e.ws,
			fullMask: mask,
			lanes:    lanes,
			stack:    []stackEntry{{pc: 0, rpc: -1, mask: mask, role: roleTop}},
			regs:     make([]uint64, WarpSize*e.lk.nRegs),
			preds:    make([]uint32, e.lk.nPreds),
		}
		if e.lk.localBytes > 0 {
			w.local = make([]byte, e.ws*int(e.lk.localBytes))
		}
		blk.warps[wi] = w
	}
	blk.liveWarp = e.wpb
	return blk
}

func (e *engine) run() error {
	nBlocks := e.grid.Count()
	maxRes := e.cfg.MaxResidentBlocks
	if maxRes <= 0 {
		maxRes = 48
	}
	if maxRes > nBlocks {
		maxRes = nBlocks
	}
	ar := e.acquireArena()
	resident, order := ar.resident[:0], ar.order[:0]
	defer func() {
		// Keep the (possibly grown) scratch slices for the next launch.
		ar.resident, ar.order = resident[:0], order[:0]
		e.lk.arena.Store(ar)
	}()
	nextBlock := 0
	for len(resident) < maxRes {
		resident = append(resident, e.newBlock(ar, nextBlock))
		nextBlock++
	}
	for len(resident) > 0 {
		// Gather runnable warps for this pass.
		order = order[:0]
		for _, blk := range resident {
			for _, w := range blk.warps {
				if !w.done && !w.waiting {
					order = append(order, w)
				}
			}
		}
		if len(order) == 0 {
			// Everyone is waiting or done but barriers did not release:
			// should be impossible (release is checked on every park).
			return fmt.Errorf("scheduler deadlock: all warps parked")
		}
		if e.rng != nil {
			e.rng.Shuffle(len(order), func(i, j int) {
				order[i], order[j] = order[j], order[i]
			})
		}
		for _, w := range order {
			if w.done || w.waiting {
				continue // barrier may have parked it mid-pass
			}
			if err := e.stepWarp(w); err != nil {
				return err
			}
			if e.cfg.MaxWarpInstrs > 0 && e.stats.WarpInstrs > e.cfg.MaxWarpInstrs {
				return fmt.Errorf("%w after %d instructions", ErrStepBudget, e.stats.WarpInstrs)
			}
		}
		// Retire finished blocks into the arena and bring in the next wave.
		keep := resident[:0]
		for _, blk := range resident {
			if blk.liveWarp > 0 {
				keep = append(keep, blk)
				continue
			}
			ar.free = append(ar.free, blk)
			if nextBlock < nBlocks {
				keep = append(keep, e.newBlock(ar, nextBlock))
				nextBlock++
			}
		}
		resident = keep
	}
	return nil
}

// effMask returns the top entry's mask with exited lanes removed.
func (w *warpState) effMask() uint32 {
	return w.stack[len(w.stack)-1].mask &^ w.exited
}

// popEntry pops the top SIMT stack entry, emitting Else/Fi divergence
// events as paths complete.
func (e *engine) popEntry(w *warpState) {
	top := w.stack[len(w.stack)-1]
	w.stack = w.stack[:len(w.stack)-1]
	if len(w.stack) == 0 {
		if e.filtOn {
			e.filterFlush(w) // reconcile suppressed counts at warp exit
		}
		w.done = true
		w.blk.liveWarp--
		return
	}
	switch top.role {
	case roleFirst:
		// The second path begins: logically concurrent with the first.
		e.emitBranch(w, trace.OpElse, w.effMask())
	case roleSecond:
		// Both paths complete; lockstep resumes at the reconvergence
		// entry.
		e.emitBranch(w, trace.OpFi, w.effMask())
	}
}

func (e *engine) emitBranch(w *warpState, kind trace.OpKind, mask uint32) {
	if e.cfg.Sink == nil || !e.cfg.EmitBranchEvents {
		return
	}
	if e.filtOn {
		// Divergence events split/merge the warp's PTVC groups: flush the
		// pending suppressed count under the old format and invalidate the
		// caches before the event reaches the detector.
		e.filterBump(w)
	}
	header(&e.rec, w.gwid, w.blk.idx, kind, mask)
	e.cfg.Sink.Emit(&e.rec)
	e.stats.Records++
}

// parkAtBarrier marks w as waiting and releases the block's barrier when
// every live warp has arrived. On release it emits a synthesized
// barrier-release record carrying the arrived-warp mask, which the
// detector uses to apply the block-wide BAR join.
func (e *engine) parkAtBarrier(w *warpState) {
	w.waiting = true
	for _, o := range w.blk.warps {
		if !o.done && !o.waiting {
			return
		}
	}
	var arrived uint32
	for _, o := range w.blk.warps {
		if o.waiting {
			arrived |= 1 << uint(o.widx)
		}
		o.waiting = false
	}
	e.stats.Barriers++
	if e.cfg.Sink != nil && e.cfg.EmitBranchEvents {
		if e.filtOn {
			// The release joins every warp's clock block-wide: flush all
			// pending counts (same block queue, so FIFO delivers them ahead
			// of the release) and start a fresh generation for each warp.
			for _, o := range w.blk.warps {
				e.filterBump(o)
			}
		}
		header(&e.rec, 0, w.blk.idx, trace.OpBarRel, arrived)
		e.cfg.Sink.Emit(&e.rec)
		e.stats.Records++
	}
}

// execError decorates an error with source position.
func (e *engine) execError(pc int, format string, args ...any) error {
	line := 0
	if pc < len(e.lk.cfg.Instrs) {
		line = e.lk.cfg.Instrs[pc].Line
	}
	return fmt.Errorf("pc %d (line %d): %s", pc, line, fmt.Sprintf(format, args...))
}
