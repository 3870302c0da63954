package gpusim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

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

	// Deadline aborts the launch with ErrDeadline once the wall clock
	// passes it (zero = none), read every 1 024 warp instructions.
	Deadline time.Time

	// WarpSize overrides the architecture's warp width (default 32,
	// range 2..32). Running a kernel at a smaller warp size exposes
	// latent bugs in code that assumes 32-thread lockstep.
	WarpSize int

	// ProducerFilter and FilterGranularity are read by nothing: the
	// simulator emits every logged access, with no producer-side filter
	// beside it. They stay only while benchmarks/e2e names them.
	ProducerFilter    bool
	FilterGranularity int
}

// ErrStepBudget is returned (wrapped) when a launch exceeds
// LaunchConfig.MaxWarpInstrs.
var ErrStepBudget = fmt.Errorf("gpusim: warp instruction budget exceeded")

// ErrDeadline is returned (wrapped) when a launch runs past LaunchConfig.Deadline.
var ErrDeadline = fmt.Errorf("gpusim: launch deadline passed")

// Stats summarises one launch.
type Stats struct {
	WarpInstrs   uint64      // dynamic warp-level instructions executed
	ThreadInstrs uint64      // dynamic per-lane instructions executed
	Records      uint64      // records emitted to the sink
	Barriers     uint64      // block barrier episodes completed
	Divergences  uint64      // dynamic divergent branches
	Filter       FilterStats // always empty
}

// FilterStats is empty: no producer-side filter exists. It stays, with
// Suppressed, only while benchmarks/e2e names them.
type FilterStats struct{}

// Suppressed returns 0: no record is ever kept off the queue.
func (FilterStats) Suppressed() uint64 { return 0 }

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
	check   uint64         // WarpInstrs past which the step loop calls bound
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
	if e.wpb > MaxBlockWarps {
		return Stats{}, fmt.Errorf("gpusim: a block of %d threads at warp size %d is %d warps, more than %d", e.bsz, e.ws, e.wpb, MaxBlockWarps)
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
			err := e.stepWarp(w)
			if err == nil && e.stats.WarpInstrs > e.check {
				err = e.bound()
			}
			if err != nil {
				return err
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

// bound stops a launch past its budget or deadline. Otherwise it sets
// check, the count the step loop next stops at: the budget, or the next
// clock read if a deadline makes that come first.
func (e *engine) bound() error {
	n, limit := e.stats.WarpInstrs, e.cfg.MaxWarpInstrs
	if limit == 0 {
		limit = math.MaxUint64
	}
	if n > limit {
		return fmt.Errorf("%w after %d instructions", ErrStepBudget, n)
	}
	e.check = limit
	if !e.cfg.Deadline.IsZero() {
		if !time.Now().Before(e.cfg.Deadline) {
			return fmt.Errorf("%w after %d instructions", ErrDeadline, n)
		}
		e.check = min(limit, n+1023)
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
