// Package barracuda is a dynamic data race detector for CUDA kernels,
// reproducing "BARRACUDA: Binary-level Analysis of Runtime RAces in CUDA
// programs" (PLDI 2017) as a pure-Go system.
//
// The library executes PTX kernels on a built-in SIMT simulator,
// instruments them at the binary (PTX) level, streams warp-level events
// through lock-free GPU→host queues, and runs the BARRACUDA
// happens-before algorithm with lossless compressed per-thread vector
// clocks. It detects intra-warp (divergence), intra-block and inter-block
// races on shared and global memory, handles atomics, scoped memory
// fences and barriers, flags barrier divergence, and filters well-defined
// same-value intra-warp writes.
//
// Quick start:
//
//	s, err := barracuda.Open(ptxSource, barracuda.Config{})
//	out, _ := s.Alloc(4 * n)
//	res, err := s.Detect("kernel", barracuda.D1(blocks), barracuda.D1(threads), out)
//	for _, race := range res.Report.Races {
//	    fmt.Println(race)
//	}
package barracuda

import (
	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
	"barracuda/internal/memmodel"
	"barracuda/internal/profile"
	"barracuda/internal/ptvc"
	"barracuda/internal/ptx"
)

// Config tunes the detection pipeline; the zero value is a deterministic
// single-queue configuration with byte-granularity shadow memory.
type Config = detector.Config

// Report is the set of races and barrier divergences found in one run.
type Report = core.Report

// Race is one detected data race.
type Race = core.Race

// RaceKind classifies a race by the threads involved.
type RaceKind = core.RaceKind

// Race classifications.
const (
	IntraWarp  = core.IntraWarp
	IntraBlock = core.IntraBlock
	InterBlock = core.InterBlock
)

// BarrierDivergence is a bar.sync executed with inactive threads.
type BarrierDivergence = core.BarrierDivergence

// Result bundles the report with simulation statistics and the PTVC
// format distribution.
type Result = detector.Result

// Dim is a 1-, 2- or 3-D launch extent.
type Dim = gpusim.Dim3

// D1 builds a one-dimensional extent.
func D1(n int) Dim { return gpusim.D1(n) }

// ErrStepBudget is returned when a kernel exceeds its instruction budget
// (e.g. a spin loop that would hang on real hardware).
var ErrStepBudget = gpusim.ErrStepBudget

// Format is a compressed per-thread vector-clock storage format.
type Format = ptvc.Format

// The four PTVC formats of the paper's Figure 7.
const (
	Converged      = ptvc.Converged
	Diverged       = ptvc.Diverged
	NestedDiverged = ptvc.NestedDiverged
	SparseVC       = ptvc.SparseVC
)

// Session owns one simulated device with a module loaded both natively
// and instrumented.
type Session struct {
	s *detector.Session
}

// Open parses PTX source, instruments it, and prepares a session.
func Open(ptxSource string, cfg Config) (*Session, error) {
	s, err := detector.OpenPTX(ptxSource, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// OpenFatBinary opens a session from a fat binary, extracting the
// architecture-neutral PTX (the paper's __cudaRegisterFatBinary
// interception).
func OpenFatBinary(bin []byte, cfg Config) (*Session, error) {
	s, err := detector.OpenFatBinary(bin, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Kernels lists the kernels available in the loaded module.
func (s *Session) Kernels() []string { return s.s.Native.KernelNames() }

// Alloc reserves device global memory and returns its address.
func (s *Session) Alloc(bytes int) (uint64, error) { return s.s.Dev.Alloc(bytes) }

// MustAlloc is Alloc that panics on failure (examples and tests).
func (s *Session) MustAlloc(bytes int) uint64 { return s.s.Dev.MustAlloc(bytes) }

// WriteU32 stores a value into device memory.
func (s *Session) WriteU32(addr uint64, v uint32) error { return s.s.Dev.WriteU32(addr, v) }

// ReadU32 loads a value from device memory.
func (s *Session) ReadU32(addr uint64) (uint32, error) { return s.s.Dev.ReadU32(addr) }

// WriteBytes copies host bytes into device memory.
func (s *Session) WriteBytes(addr uint64, b []byte) error { return s.s.Dev.WriteBytes(addr, b) }

// ReadBytes copies device memory to the host.
func (s *Session) ReadBytes(addr uint64, n int) ([]byte, error) { return s.s.Dev.ReadBytes(addr, n) }

// Launch describes one kernel launch for DetectLaunch.
type Launch struct {
	Grid  Dim
	Block Dim
	Args  []uint64
	// MaxInstrs aborts runaway kernels with ErrStepBudget (0 = off).
	MaxInstrs uint64
	// RandomSched randomizes warp scheduling with the given seed.
	RandomSched bool
	Seed        int64
	// WarpSize overrides the simulated warp width (default 32, range
	// 2..32): running detection at a smaller warp size exposes latent
	// bugs in code that assumes 32-thread lockstep (§3.1 future work).
	WarpSize int
}

// config is the launch as the simulator takes it.
func (l Launch) config() gpusim.LaunchConfig {
	return gpusim.LaunchConfig{
		Grid:          l.Grid,
		Block:         l.Block,
		Args:          l.Args,
		MaxWarpInstrs: l.MaxInstrs,
		RandomSched:   l.RandomSched,
		Seed:          l.Seed,
		WarpSize:      l.WarpSize,
	}
}

// Detect runs a kernel under the race detector.
func (s *Session) Detect(kernel string, grid, block Dim, args ...uint64) (*Result, error) {
	return s.DetectLaunch(kernel, Launch{Grid: grid, Block: block, Args: args})
}

// DetectLaunch runs a kernel under the race detector with full launch
// control.
func (s *Session) DetectLaunch(kernel string, l Launch) (*Result, error) {
	return s.s.Detect(kernel, l.config())
}

// RunNative executes the uninstrumented kernel (baseline timing and
// functional runs).
func (s *Session) RunNative(kernel string, grid, block Dim, args ...uint64) error {
	_, _, err := s.s.RunNative(kernel, Launch{Grid: grid, Block: block, Args: args}.config())
	return err
}

// InstrumentationStats reports per-kernel static instrumentation counts
// (the Figure 9 quantities).
type InstrumentationStats struct {
	Static       int
	Instrumented int
	Unoptimized  int
}

// Instrumentation returns the instrumentation statistics of a kernel.
func (s *Session) Instrumentation(kernel string) (InstrumentationStats, bool) {
	st, ok := s.s.Stats[kernel]
	if !ok {
		return InstrumentationStats{}, false
	}
	return InstrumentationStats{
		Static:       st.Static,
		Instrumented: st.Instrumented,
		Unoptimized:  st.InstrumentedNo,
	}, true
}

// InstrumentedPTX returns the instrumented module's PTX text.
func (s *Session) InstrumentedPTX() string { return ptx.Print(s.s.InstMod) }

// Profile runs a kernel under the memory-access profiler — a second
// dynamic analysis built on the same instrumentation framework — and
// returns the profile report.
func (s *Session) Profile(kernel string, l Launch) (*profile.Report, error) {
	p := profile.New()
	if _, err := s.s.LaunchInto(kernel, l.config(), p); err != nil {
		return nil, err
	}
	return p.Report(), nil
}

// ProfileReport is a memory-access profile (per-site counts, coalescing
// quality, divergence statistics, footprint).
type ProfileReport = profile.Report

// LitmusMP runs the Figure 4 message-passing litmus test: the number of
// non-SC observations in runs executions on a weak (Kepler-like) or
// strong (Maxwell-like) architecture profile.
func LitmusMP(fence1Global, fence2Global, weakArch bool, runs int, seed int64) int {
	f := func(global bool) memmodel.FenceKind {
		if global {
			return memmodel.Gl
		}
		return memmodel.Cta
	}
	arch := memmodel.Maxwell
	if weakArch {
		arch = memmodel.Kepler
	}
	return memmodel.MP(f(fence1Global), f(fence2Global)).Estimate(arch, runs, seed)
}
