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
// knobs: the JSON job API (server.JobRequest.Config) and the binary
// protocol (wire.LaunchSpec.Config) carry this struct directly, the JSON
// tags are the API's field names, and Validate owns every field's range.
type Config struct {
	// Queues is the number of GPU→CPU event queues (and host detector
	// threads). 1 (the default) gives deterministic detection; the
	// paper finds ~1.1–1.5 queues per SM optimal for throughput.
	Queues int `json:"queues,omitempty"`
	// QueueCap is the per-queue capacity in records (default 4096).
	QueueCap int `json:"queue_cap,omitempty"`
	// Granularity is the finest shadow-memory granule in bytes, a power
	// of two (default 1: byte-exact reports). The shadow keeps one cell
	// per 4-byte word where every access is made of whole words and
	// refines a page to this granule on its first sub-word access, so
	// values below 4 cost nothing on word-only code; 4 and above trade
	// precision for speed.
	Granularity int `json:"granularity,omitempty"`
	// MaxRaces bounds distinct race reports (default 1024).
	MaxRaces int `json:"max_races,omitempty"`
	// FullVC selects the uncompressed vector-clock ablation detector.
	FullVC bool `json:"full_vc,omitempty"`
	// NoPrune disables the instrumentation pruning optimization.
	NoPrune bool `json:"no_prune,omitempty"`
	// StaticPrune enables the inter-block static pruner (package
	// staticanalysis): provably redundant or thread-private accesses
	// are never logged. Race reports are unchanged; log volume drops.
	// Mutually exclusive with NoPrune.
	StaticPrune bool `json:"static_prune,omitempty"`
	// NoSameValueFilter disables the intra-warp same-value write filter.
	NoSameValueFilter bool `json:"no_same_value_filter,omitempty"`
	// PerCellShadow disables the coalesced-span shadow fast path: every
	// warp access takes the per-cell loop. The A/B baseline for the span
	// optimization; race reports are identical either way.
	PerCellShadow bool `json:"per_cell_shadow,omitempty"`
	// Ownership enables the exclusive-ownership shadow tier: regions
	// touched by a single warp (or, across barriers, a single block)
	// skip the epoch checks entirely until a second owner appears. Race
	// reports are identical either way. Requires the span fast path, so
	// it is mutually exclusive with FullVC and PerCellShadow.
	Ownership bool `json:"ownership,omitempty"`
	// ShadowCapBytes bounds resident shadow memory (global pages plus
	// shared slabs) to this many bytes: shared slabs are compacted at
	// fully-converged block barriers (losslessly), and past the cap the
	// least-recently-used region is evicted, with Result reporting
	// PrecisionDegraded when an eviction discarded live metadata. 0
	// means unbounded. Requires the span fast path, so it is mutually
	// exclusive with FullVC and PerCellShadow.
	ShadowCapBytes int64 `json:"shadow_cap_bytes,omitempty"`
	// ProducerFilter enables the simulator's producer-side epoch filter:
	// per-warp caches suppress provably redundant global-space access
	// records before they reach the queues, with suppressed counts
	// reconciled so reports and canonical digests are byte-identical to
	// an unfiltered run (see gpusim/filter.go for the soundness gates).
	// False preserves the unfiltered emission path verbatim as the A/B
	// baseline. Mutually exclusive with FullVC.
	ProducerFilter bool `json:"producer_filter,omitempty"`
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
	BoundMaxRaces    = 1 << 16 // distinct race reports; the default is 1024
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
	if c.NoPrune && c.StaticPrune {
		return fmt.Errorf("detector: NoPrune and StaticPrune are mutually exclusive: the static pruner subsumes the intra-block optimization NoPrune disables")
	}
	if c.ShadowCapBytes < 0 {
		return fmt.Errorf("detector: ShadowCapBytes must be >= 0 (0 leaves the shadow unbounded), got %d", c.ShadowCapBytes)
	}
	if c.Ownership && c.FullVC {
		return fmt.Errorf("detector: Ownership and FullVC are mutually exclusive: the ownership tier relies on the compressed-PTVC convergence invariant the full-VC ablation abandons")
	}
	if c.Ownership && c.PerCellShadow {
		return fmt.Errorf("detector: Ownership and PerCellShadow are mutually exclusive: the ownership tier lives on the region-locked span paths PerCellShadow disables")
	}
	if c.ShadowCapBytes > 0 && c.FullVC {
		return fmt.Errorf("detector: ShadowCapBytes and FullVC are mutually exclusive: bounded shadow rides on the span fast path the full-VC ablation disables")
	}
	if c.ShadowCapBytes > 0 && c.PerCellShadow {
		return fmt.Errorf("detector: ShadowCapBytes and PerCellShadow are mutually exclusive: bounded shadow rides on the span fast path the per-cell baseline disables")
	}
	if c.ProducerFilter && c.FullVC {
		return fmt.Errorf("detector: ProducerFilter and FullVC are mutually exclusive: the filter's suppression argument relies on the compressed-PTVC epoch semantics (and OpFlush reconciliation) the full-VC ablation bypasses")
	}
	return nil
}

// WithDefaults returns the effective configuration: every zero-valued
// sized knob replaced by its default. Two configs that run identically
// compare (and hash, see server.CacheKey) equal after it.
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
		c.MaxRaces = 1024
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
		PerCellShadow:     c.PerCellShadow,
		Ownership:         c.Ownership,
		ShadowCapBytes:    c.ShadowCapBytes,
	}
}

// Session is one device with a module loaded natively and instrumented.
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
	cfg     Config
	Dev     *gpusim.Device
	Native  *gpusim.Module
	Instr   *gpusim.Module
	Stats   map[string]*instrument.KernelStats
	SrcMod  *ptx.Module
	InstMod *ptx.Module

	closed atomic.Bool
}

// Open instruments a module and loads both variants onto a fresh device.
func Open(m *ptx.Module, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	res, err := instrument.Instrument(m, instrument.Options{NoPrune: cfg.NoPrune, StaticPrune: cfg.StaticPrune})
	if err != nil {
		return nil, err
	}
	dev := gpusim.NewDevice(0)
	nat, err := dev.LoadModule(m)
	if err != nil {
		return nil, err
	}
	ins, err := dev.LoadModule(res.Module)
	if err != nil {
		return nil, fmt.Errorf("detector: loading instrumented module: %w", err)
	}
	return &Session{
		cfg:     cfg,
		Dev:     dev,
		Native:  nat,
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
	// equally large queue rings (allocated up front) both count.
	Duration time.Duration
	// Transport is the queues' census: records and ring bytes enqueued,
	// how many travelled in each wire form, and how often either side
	// found the ring full or empty.
	Transport logging.Counters
}

// routeSink routes records to their block's queue.
type routeSink struct {
	set *logging.Set
}

func (s *routeSink) Emit(r *logging.Record) {
	s.set.ForBlock(int(r.Block)).Enqueue(r)
}

// consumerBatch is the per-drain record budget of a queue consumer:
// large enough to amortize the transport handshake, small enough that a
// batch stays cache-resident (256 records of 560 bytes ≈ 140 KiB).
const consumerBatch = 256

// consumeQueue is one detector thread: it drains its queue in batches
// through a per-goroutine core.Worker (private stats shard, shadow span
// cache) and backs off exponentially while the queue is idle, stopping
// at the end-of-stream sentinel.
func consumeQueue(det *core.Detector, q *logging.Queue, wg *sync.WaitGroup) {
	defer wg.Done()
	w := det.NewWorker()
	n := consumerBatch
	if c := q.Cap(); c < n {
		n = c
	}
	buf := make([]logging.Record, n)
	var bo logging.Backoff
	for {
		got := q.DequeueBatch(buf)
		if got == 0 {
			bo.Wait()
			continue
		}
		bo.Reset()
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
	names := s.Native.KernelNames()
	if len(names) == 0 {
		return "", errors.New("module has no kernels")
	}
	return names[0], nil
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
// events. It is the one place a sink meets a launch; the producer filter
// stays as the caller set it (only DetectObserved turns it on).
func (s *Session) LaunchInto(kernelName string, launch gpusim.LaunchConfig, sink gpusim.Sink) (gpusim.Stats, error) {
	launch.Sink = sink
	launch.EmitBranchEvents = true
	return s.Instr.Launch(kernelName, launch)
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

// pipeline is the host side of Figure 5, written once: the detector state,
// the queue rings and one detector thread per queue are built, produce
// feeds the rings (the simulator behind a routeSink, or Replay's
// per-queue goroutines) and returns once it has enqueued its last record,
// the queues are closed and drained, and the shadow is released. Duration
// runs from before the detector state is built to after the last detector
// thread returns.
func pipeline(geo ptvc.Geometry, sharedBytes int64, cfg Config, onRace func(core.Race),
	produce func(*logging.Set) (gpusim.Stats, error)) (*Result, error) {
	start := time.Now()
	opts := cfg.coreOptions()
	opts.OnRace = onRace
	det := core.New(geo, sharedBytes, opts)
	set := logging.NewSet(cfg.Queues, cfg.QueueCap)
	set.SetGranularity(cfg.Granularity)

	var wg sync.WaitGroup
	for _, q := range set.Queues {
		wg.Add(1)
		go consumeQueue(det, q, &wg)
	}
	stats, err := produce(set)
	set.CloseAll()
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
			Transport:  set.Counters(),
		}
	}
	// The detector threads have returned and the result holds copies: the
	// run's shadow pages go back to the process's slab pool.
	det.Shadow().Release()
	return res, err
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
func (s *Session) DetectObserved(kernelName string, launch gpusim.LaunchConfig, onRace func(core.Race)) (*Result, error) {
	geo, sharedBytes, err := s.shape(kernelName, launch)
	if err != nil {
		return nil, err
	}
	launch.ProducerFilter = s.cfg.ProducerFilter
	launch.FilterGranularity = s.cfg.Granularity
	return pipeline(geo, sharedBytes, s.cfg, onRace, func(set *logging.Set) (gpusim.Stats, error) {
		return s.LaunchInto(kernelName, launch, &routeSink{set: set})
	})
}

// RunNative runs the uninstrumented kernel (baseline timing for the
// Figure 10 overhead experiment).
func (s *Session) RunNative(kernelName string, launch gpusim.LaunchConfig) (gpusim.Stats, time.Duration, error) {
	if s.closed.Load() {
		return gpusim.Stats{}, 0, ErrClosed
	}
	launch.Sink = nil
	launch.EmitBranchEvents = false
	start := time.Now()
	stats, err := s.Native.Launch(kernelName, launch)
	return stats, time.Since(start), err
}
