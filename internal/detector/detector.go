// Package detector assembles the end-to-end BARRACUDA pipeline (Figure 5):
// fat binary → PTX extraction → binary instrumentation → SIMT simulation
// with GPU-side logging → multi-queue event transport → host-side race
// detection threads.
//
// A Session owns one simulated device with the native and instrumented
// variants of a module loaded side by side, so the same kernels can be
// run natively (for baseline timing) and under detection.
package detector

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"barracuda/internal/core"
	"barracuda/internal/fatbin"
	"barracuda/internal/gpusim"
	"barracuda/internal/instrument"
	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

// Config tunes the pipeline. It is the one definition of the detector's
// knobs, and Validate owns every field's range. The knobs are the paper's
// ablations: the library, the bench harness and the local barracuda CLI
// set them; the daemon runs every job under Config{} and takes none from
// a request.
type Config struct {
	// Queues is the number of GPU→CPU event queues (and host detector
	// threads). 1 (the default) gives deterministic detection; the
	// paper finds ~1.1–1.5 queues per SM optimal for throughput.
	Queues int
	// QueueCap is the per-queue capacity in records (default 4096).
	QueueCap int
	// Granularity is the finest shadow-memory granule in bytes, a power
	// of two (default 1: byte-exact reports). The shadow keeps one cell
	// per 4-byte word where every access is made of whole words and
	// refines a page to this granule on its first sub-word access, so
	// values below 4 cost nothing on word-only code; 4 and above trade
	// precision for speed.
	Granularity int
	// MaxRaces bounds distinct race reports (default DefaultMaxRaces).
	MaxRaces int
	// FullVC selects the uncompressed vector-clock ablation detector.
	FullVC bool
	// NoPrune turns instrumentation pruning off, the intra-block rule and
	// the inter-block static pruner both: every access is logged.
	NoPrune bool
	// StaticPrune is read by nothing: the inter-block static pruner
	// (package staticanalysis) runs unless NoPrune is set. It stays only
	// while benchmarks/e2e names it.
	StaticPrune bool
	// NoSameValueFilter disables the intra-warp same-value write filter.
	NoSameValueFilter bool
	// PerCellShadow and Ownership are read by nothing: every warp access
	// takes the one per-cell shadow walk, which has neither a coalesced-
	// span path nor an exclusive-ownership tier beside it. They stay only
	// while benchmarks/e2e names them.
	PerCellShadow bool
	Ownership     bool
	// ShadowCapBytes bounds resident shadow memory (global pages plus
	// shared slabs) to this many bytes: shared slabs are compacted at
	// fully-converged block barriers (losslessly; the epoch detector
	// only, FullVC handles barriers itself), and past the cap the
	// least-recently-used region is evicted, with Result reporting
	// PrecisionDegraded when an eviction discarded live metadata. 0
	// means unbounded.
	ShadowCapBytes int64
	// ProducerFilter is read by nothing: the simulator emits every logged
	// access, with no producer-side filter beside it. It stays only while
	// benchmarks/e2e names it.
	ProducerFilter bool
}

// Upper bounds of the sized knobs. Each one sizes an allocation made
// before the job runs, so an unchecked request could exhaust the process:
// Queues×QueueCap records of ring buffer (560 bytes each; bounded together
// too, or the two bounds multiply to 2.19 GiB) and one detector goroutine
// per queue, MaxRaces report slots (and the streaming protocol's race
// channel), and a shadow cell that must fit the 64 KiB shadow page.
const (
	BoundQueues      = 64      // the paper's optimum is 1.1–1.5 queues per SM
	BoundQueueCap    = 1 << 16 // records per queue; the default is 4096
	BoundRingRecords = 1 << 18 // Queues×QueueCap after defaults: 140 MiB of ring
	BoundGranularity = 1 << 16 // bytes per shadow cell: one cell per shadow page
	BoundMaxRaces    = 1 << 16 // distinct race reports; the default is DefaultMaxRaces
)

// DefaultMaxRaces is MaxRaces left at zero: the most distinct races one
// run reports, and so the most a streaming client is sent.
const DefaultMaxRaces = 1024

// Upper bounds of a launch from outside input. The detector sizes a warp
// table per launch and FullVC one clock per thread before the first record,
// so these are checked where a request comes in, like the bounds above.
const (
	BoundBlock   = 1024    // threads per block: CUDA's limit
	BoundThreads = 1 << 20 // grid×block: Table 1's largest launch
)

// Validate rejects nonsensical configurations. Zero values select
// defaults (see WithDefaults); values outside [0, bound] are configuration
// errors, reported descriptively rather than silently clamped so that
// callers — in particular the barracudad job API — can surface them to
// users. Every consumer of outside input calls it before sizing anything
// from a field.
func (c Config) Validate() error {
	for _, f := range []struct {
		name     string
		v, bound int
		zero     string
	}{
		{"Queues", c.Queues, BoundQueues, "the default of 1 queue"},
		{"QueueCap", c.QueueCap, BoundQueueCap, "the default of 4096 records"},
		{"Granularity", c.Granularity, BoundGranularity, "byte granularity"},
		{"MaxRaces", c.MaxRaces, BoundMaxRaces, "the default of 1024"},
	} {
		if f.v < 0 || f.v > f.bound {
			return fmt.Errorf("detector: %s must be in [0, %d] (0 selects %s), got %d", f.name, f.bound, f.zero, f.v)
		}
	}
	if d := c.WithDefaults(); d.Queues*d.QueueCap > BoundRingRecords {
		return fmt.Errorf("detector: Queues×QueueCap must be at most %d records of ring in all (the default is 1×4096), got %d×%d = %d",
			BoundRingRecords, d.Queues, d.QueueCap, d.Queues*d.QueueCap)
	}
	if c.Granularity&(c.Granularity-1) != 0 {
		return fmt.Errorf("detector: Granularity must be a power of two (shadow cells tile the 64 KiB shadow page), got %d", c.Granularity)
	}
	if c.ShadowCapBytes < 0 {
		return fmt.Errorf("detector: ShadowCapBytes must be >= 0 (0 leaves the shadow unbounded), got %d", c.ShadowCapBytes)
	}
	return nil
}

// WithDefaults returns the effective configuration: every zero-valued
// sized knob replaced by its default. Two configs that run identically
// compare equal after it.
func (c Config) WithDefaults() Config {
	if c.Queues <= 0 {
		c.Queues = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4096
	}
	if c.Granularity <= 0 {
		c.Granularity = 1
	}
	if c.MaxRaces <= 0 {
		c.MaxRaces = DefaultMaxRaces
	}
	return c
}

// coreOptions is the one hand-off of the host-side knobs to package core.
func (c Config) coreOptions() core.Options {
	return core.Options{
		Granularity:       c.Granularity,
		MaxRaces:          c.MaxRaces,
		NoSameValueFilter: c.NoSameValueFilter,
		FullVC:            c.FullVC,
		ShadowCapBytes:    c.ShadowCapBytes,
	}
}

// Session is one device with a module instrumented and loaded, and the
// module itself placed beside it for native runs.
//
// Reuse contract: a Session may run any number of sequential Detect /
// RunNative calls — each call builds a fresh detector state and queue
// set, so results are independent. Two constraints: (1) calls must not
// overlap (kernel launches mutate shared device memory), and (2) device
// global memory persists across calls, so a caller that wants run N+1 to
// see the same initial memory as run N must re-zero (or rewrite) its
// buffers between calls. The server-side module cache relies on exactly
// this contract to share one Session across many jobs.
type Session struct {
	cfg Config
	Dev *gpusim.Device
	// native is placed at Open, so its globals sit where they always
	// have, and loaded by the first RunNative, which alone launches it.
	native  *gpusim.Module
	Instr   *gpusim.Module
	Stats   map[string]*instrument.KernelStats
	SrcMod  *ptx.Module
	InstMod *ptx.Module
	// unpruned is the module instrumented with NoPrune, loaded beside
	// Instr by the first LaunchUnpruned (Instr itself under NoPrune).
	unpruned *gpusim.Module

	closed atomic.Bool
}

// Open instruments a module and loads it onto a fresh device, with the
// module itself placed beside it for RunNative to load.
func Open(m *ptx.Module, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	res, err := instrument.Instrument(m, instrument.Options{NoPrune: cfg.NoPrune})
	if err != nil {
		return nil, err
	}
	dev := gpusim.NewDevice(0)
	nat, err := dev.PlaceModule(m)
	if err != nil {
		return nil, err
	}
	ins, err := dev.LoadModule(res.Module)
	if err != nil {
		return nil, err
	}
	return &Session{
		cfg:     cfg,
		Dev:     dev,
		native:  nat,
		Instr:   ins,
		Stats:   res.Stats,
		SrcMod:  m,
		InstMod: res.Module,
	}, nil
}

// OpenPTX parses PTX text and opens a session.
func OpenPTX(src string, cfg Config) (*Session, error) {
	m, err := ptx.Parse(src)
	if err != nil {
		return nil, err
	}
	return Open(m, cfg)
}

// OpenFatBinary intercepts a fat binary: extracts the architecture-
// neutral PTX, strips everything else, and opens a session — the
// LD_PRELOAD/__cudaRegisterFatBinary flow of §4.1.
func OpenFatBinary(bin []byte, cfg Config) (*Session, error) {
	src, err := fatbin.ExtractPTX(bin)
	if err != nil {
		return nil, err
	}
	return OpenPTX(src, cfg)
}

// Result is the outcome of one detection run.
type Result struct {
	Report   *core.Report
	SimStats gpusim.Stats
	// Formats is the PTVC format census at kernel completion; FormatHist
	// is sampled at every memory record during execution (the §4.3.1
	// "90% of the time" measurement).
	Formats    map[ptvc.Format]int
	FormatHist map[ptvc.Format]uint64
	// Duration is the wall time of the detection run: building the
	// detector state and the queue rings, the instrumented launch, and
	// draining the queues — everything detection costs on top of the
	// session, the window the end-to-end benchmark times from outside.
	// The shadow pages (allocated lazily by the detector threads) and the
	// equally large queue rings both count. The rings are built inside
	// the window by whichever side needs them first: a detector thread as
	// it starts, while the simulator compiles and runs, or the simulator
	// at its first record if no thread has started by then.
	Duration time.Duration
	// RingWait is how long the simulator waited, at its first record (or
	// at the end of a launch that logged nothing), for a detector thread
	// to finish building the rings: the part of the rings' cost still on
	// the producer's path. 0 when the simulator built them itself or found
	// them built.
	RingWait time.Duration
	// Transport is the queues' census: records and ring bytes enqueued,
	// how many travelled in each wire form, how often either side found
	// the ring full or empty, and how often a detector thread parked.
	Transport logging.Counters
}

// rings is a launch's queue set, built once by whichever side needs it
// first: a detector thread as soon as it starts, or the producer at its
// first record. The claim is one CAS; the side that loses it waits for
// built to close, which is usually already so by the time it looks.
type rings struct {
	build   func() *logging.Set
	claimed atomic.Bool
	built   chan struct{}
	set     *logging.Set // written once, before built closes
}

func newRings(cfg Config) *rings {
	return &rings{built: make(chan struct{}), build: func() *logging.Set {
		set := logging.NewSet(cfg.Queues, cfg.QueueCap)
		set.SetGranularity(cfg.Granularity)
		return set
	}}
}

// await returns the set once it is built, building it if no side has
// claimed it, and how long it waited for another side's build.
func (r *rings) await() (*logging.Set, time.Duration) {
	if r.claimed.CompareAndSwap(false, true) {
		r.set = r.build()
		close(r.built)
		return r.set, 0
	}
	select {
	case <-r.built:
		return r.set, 0
	default:
	}
	start := time.Now()
	<-r.built
	return r.set, time.Since(start)
}

// routeSink routes records to their block's queue, taking the set from
// rings at the first record.
type routeSink struct {
	rings *rings
	set   *logging.Set
	wait  time.Duration
}

func (s *routeSink) Emit(r *logging.Record) {
	if s.set == nil {
		s.set, s.wait = s.rings.await()
	}
	s.set.ForBlock(int(r.Block)).Enqueue(r)
}

// closeAll ends every queue's stream, taking the set first if the launch
// logged nothing.
func (s *routeSink) closeAll() {
	if s.set == nil {
		s.set, s.wait = s.rings.await()
	}
	s.set.CloseAll()
}

// consumerBatch is the per-drain record budget of a queue consumer:
// large enough to amortize the transport handshake, small enough that a
// batch stays cache-resident (256 records of 560 bytes ≈ 140 KiB).
const consumerBatch = 256

// consumeQueue is detector thread i: it claims the rings' build as it
// starts, then drains queue i in batches through a per-goroutine
// core.Worker (private stats shard, shadow span cache) and, while the
// queue is empty, waits in Queue.Await — polling, then parked until the
// producer's next commit — stopping at the end-of-stream sentinel.
func consumeQueue(det *core.Detector, r *rings, i int, wg *sync.WaitGroup) {
	defer wg.Done()
	set, _ := r.await()
	q := set.Queues[i]
	w := det.NewWorker()
	n := consumerBatch
	if c := q.Cap(); c < n {
		n = c
	}
	buf := make([]logging.Record, n)
	for {
		got := q.DequeueBatch(buf)
		if got == 0 {
			q.Await()
			continue
		}
		for i := 0; i < got; i++ {
			if buf[i].Op == trace.OpEnd {
				return
			}
			w.Handle(&buf[i])
		}
	}
}

// Config returns the session's effective (defaulted) configuration.
func (s *Session) Config() Config { return s.cfg }

// ErrClosed is returned by Detect/RunNative after Close.
var ErrClosed = fmt.Errorf("detector: session closed")

// Close marks the session unusable: subsequent Detect/RunNative calls
// return ErrClosed. A Detect already in flight runs to completion (the
// flag is checked only on entry), which lets a cache evict an entry
// without synchronizing with a job that still holds it. Close is
// idempotent and safe for concurrent use.
func (s *Session) Close() error {
	s.closed.Store(true)
	return nil
}

// KernelOrFirst resolves a launch's kernel name: the name itself, or the
// module's first kernel when it is empty.
func (s *Session) KernelOrFirst(name string) (string, error) {
	if name != "" {
		return name, nil
	}
	if len(s.SrcMod.Kernels) == 0 {
		return "", errors.New("module has no kernels")
	}
	return s.SrcMod.Kernels[0].Name, nil
}

// AllocArgs allocates one zeroed global buffer per size, in order, and
// returns their addresses — a kernel's u64 arguments. On a failed
// allocation it returns the error and no addresses.
func (s *Session) AllocArgs(sizes []int) ([]uint64, error) {
	args := make([]uint64, 0, len(sizes))
	for _, n := range sizes {
		a, err := s.Dev.Alloc(n)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	return args, nil
}

// Launch1D builds the 1-D launch every front door describes with sizes —
// a job request, the CLI's flags, a repair's verification run: a grid of
// grid blocks (<= 0: 1) of block threads (<= 0: 32).
func Launch1D(grid, block int, args []uint64, maxInstrs uint64, warpSize int) gpusim.LaunchConfig {
	if grid <= 0 {
		grid = 1
	}
	if block <= 0 {
		block = 32
	}
	return gpusim.LaunchConfig{
		Grid:          gpusim.D1(grid),
		Block:         gpusim.D1(block),
		Args:          args,
		MaxWarpInstrs: maxInstrs,
		WarpSize:      warpSize,
	}
}

// LaunchInto runs the instrumented kernel with sink attached: the sink
// receives every record the kernel logs and the SIMT stack's branch
// events. It is the one place a sink meets a launch.
func (s *Session) LaunchInto(kernelName string, launch gpusim.LaunchConfig, sink gpusim.Sink) (gpusim.Stats, error) {
	launch.Sink = sink
	launch.EmitBranchEvents = true
	return s.Instr.Launch(kernelName, launch)
}

// LaunchUnpruned is LaunchInto on the module instrumented with NoPrune:
// sink receives a record for every access the kernel makes. The memory
// profiler reads it, because pruning drops exactly the thread-private
// accesses whose coalescing a profile reports. The first call instruments
// the source module again and loads it, with globals of its own.
func (s *Session) LaunchUnpruned(kernelName string, launch gpusim.LaunchConfig, sink gpusim.Sink) (gpusim.Stats, error) {
	if s.cfg.NoPrune {
		s.unpruned = s.Instr
	}
	if s.unpruned == nil {
		res, err := instrument.Instrument(s.SrcMod, instrument.Options{NoPrune: true})
		if err != nil {
			return gpusim.Stats{}, err
		}
		mod, err := s.Dev.LoadModule(res.Module)
		if err != nil {
			return gpusim.Stats{}, err
		}
		s.unpruned = mod
	}
	launch.Sink = sink
	launch.EmitBranchEvents = true
	return s.unpruned.Launch(kernelName, launch)
}

// shape is what the host side needs to know of a launch before its first
// record: the thread geometry and the kernel's shared-memory footprint.
func (s *Session) shape(kernelName string, launch gpusim.LaunchConfig) (ptvc.Geometry, int64, error) {
	if s.closed.Load() {
		return ptvc.Geometry{}, 0, ErrClosed
	}
	k := s.InstMod.Kernel(kernelName)
	if k == nil {
		return ptvc.Geometry{}, 0, fmt.Errorf("detector: unknown kernel %q", kernelName)
	}
	geo := ptvc.Geometry{
		WarpSize:  launch.WarpSize,
		BlockSize: launch.Block.Count(),
		Blocks:    launch.Grid.Count(),
	}
	if geo.WarpSize == 0 {
		geo.WarpSize = gpusim.WarpSize
	}
	return geo, k.SharedBytes(), nil
}

// Detect runs a kernel under the race detector.
func (s *Session) Detect(kernelName string, launch gpusim.LaunchConfig) (*Result, error) {
	return s.DetectObserved(kernelName, launch, nil)
}

// DetectObserved runs a kernel under the race detector with an optional
// incremental race observer: onRace fires once per new static race at
// the moment of discovery, before the run completes — the hook behind
// the streaming job protocol's incremental race frames. onRace runs on a
// detection worker goroutine under the report lock, so it must be
// non-blocking (the stream layer hands it a channel buffered to
// MaxRaces). A nil onRace is exactly Detect.
//
// It is the host side of Figure 5: the detector state and one detector
// thread per queue are built, the first of them to start builds the queue
// rings while the simulator compiles and runs (or the simulator does, at
// its first record, if none has started), the simulator feeds the rings
// through a routeSink, the queues are closed and drained, and the shadow is
// released. Duration runs from before the detector state is built to after
// the last detector thread returns.
func (s *Session) DetectObserved(kernelName string, launch gpusim.LaunchConfig, onRace func(core.Race)) (*Result, error) {
	geo, sharedBytes, err := s.shape(kernelName, launch)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	opts := s.cfg.coreOptions()
	opts.OnRace = onRace
	det := core.New(geo, sharedBytes, opts)
	r := newRings(s.cfg)

	var wg sync.WaitGroup
	for i := 0; i < s.cfg.Queues; i++ {
		wg.Add(1)
		go consumeQueue(det, r, i, &wg)
	}
	sink := &routeSink{rings: r}
	stats, err := s.LaunchInto(kernelName, launch, sink)
	sink.closeAll()
	wg.Wait()
	dur := time.Since(start)
	var res *Result
	if err == nil {
		res = &Result{
			Report:     det.Report(),
			SimStats:   stats,
			Formats:    det.FormatStats(),
			FormatHist: det.FormatHistogram(),
			Duration:   dur,
			RingWait:   sink.wait,
			Transport:  sink.set.Counters(),
		}
	}
	// The detector threads have returned and the result holds copies: the
	// run's shadow pages go back to the process's slab pool.
	det.Shadow().Release()
	return res, err
}

// RunNative runs the uninstrumented kernel (baseline timing for the
// Figure 10 overhead experiment). The first call loads the module before
// the clock starts.
func (s *Session) RunNative(kernelName string, launch gpusim.LaunchConfig) (gpusim.Stats, time.Duration, error) {
	if s.closed.Load() {
		return gpusim.Stats{}, 0, ErrClosed
	}
	if err := s.native.Load(); err != nil {
		return gpusim.Stats{}, 0, err
	}
	launch.Sink = nil
	launch.EmitBranchEvents = false
	start := time.Now()
	stats, err := s.native.Launch(kernelName, launch)
	return stats, time.Since(start), err
}
