// Package bugsuite is the CUDA concurrency bug suite of §6.1: 66 small
// kernels that exhibit subtle data races — or subtle race-freedom —
// through global and shared memory, within and across warps and blocks,
// using barriers, atomics and memory fences to build locks, flags and
// whole-grid barriers. Each test records the verdict a correct detector
// must produce; the suite is used to validate BARRACUDA (66/66 in the
// paper) against the racecheck baseline (19/66).
package bugsuite

import (
	"errors"
	"fmt"

	"barracuda/internal/baseline/racecheck"
	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
	"barracuda/internal/logging"
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

// Expect is the ground-truth verdict of a test.
type Expect int

// Ground-truth classes.
const (
	RaceFree Expect = iota
	Racy
	BarrierDiv // barrier divergence error
)

func (e Expect) String() string {
	switch e {
	case RaceFree:
		return "race-free"
	case Racy:
		return "racy"
	case BarrierDiv:
		return "barrier-divergence"
	}
	return "?"
}

// Test is one suite program.
type Test struct {
	Name     string
	Category string
	Desc     string
	PTX      string
	Kernel   string
	Grid     gpusim.Dim3
	Block    gpusim.Dim3
	// Bufs lists the sizes of the global buffers allocated (zeroed) and
	// passed as the kernel's u64 parameters, in order. ExtraArgs are
	// appended after the buffers.
	Bufs      []int
	ExtraArgs []uint64
	Expect    Expect
}

// Verdict is a tool's outcome on one test.
type Verdict int

// Tool outcomes.
const (
	VClean Verdict = iota
	VRacy
	VDiverged
	VHang
	VError
)

func (v Verdict) String() string {
	switch v {
	case VClean:
		return "clean"
	case VRacy:
		return "racy"
	case VDiverged:
		return "barrier-divergence"
	case VHang:
		return "HANG"
	case VError:
		return "error"
	}
	return "?"
}

// Correct reports whether a verdict matches the expected class.
func (e Expect) Correct(v Verdict) bool {
	switch e {
	case RaceFree:
		return v == VClean
	case Racy:
		return v == VRacy
	case BarrierDiv:
		return v == VDiverged
	}
	return false
}

// budget bounds every suite kernel; spin loops that cannot make progress
// (a hang on real hardware) exceed it.
const budget = 1 << 19

// launch prepares the launch configuration and arguments for a test.
func (t *Test) launch(s *detector.Session) (gpusim.LaunchConfig, error) {
	args, err := s.AllocArgs(t.Bufs)
	if err != nil {
		return gpusim.LaunchConfig{}, err
	}
	args = append(args, t.ExtraArgs...)
	return gpusim.LaunchConfig{
		Grid:          t.Grid,
		Block:         t.Block,
		Args:          args,
		MaxWarpInstrs: budget,
	}, nil
}

// RunBarracuda runs one test under the BARRACUDA detector.
func RunBarracuda(t *Test) (Verdict, error) {
	return RunBarracudaWith(t, detector.Config{})
}

// RunBarracudaWith runs one test under the detector with an explicit
// pipeline configuration (multi-queue, full-VC, coarser shadow, ...).
func RunBarracudaWith(t *Test, cfg detector.Config) (Verdict, error) {
	s, err := detector.OpenPTX(t.PTX, cfg)
	if err != nil {
		return VError, fmt.Errorf("%s: %w", t.Name, err)
	}
	launch, err := t.launch(s)
	if err != nil {
		return VError, err
	}
	res, err := s.Detect(t.Kernel, launch)
	if err != nil {
		if errors.Is(err, gpusim.ErrStepBudget) {
			return VHang, nil
		}
		return VError, fmt.Errorf("%s: %w", t.Name, err)
	}
	return classify(res.Report, len(res.Report.Races)), nil
}

// classify is the verdict of a finished launch when races of its
// report's races count.
func classify(rep *core.Report, races int) Verdict {
	switch {
	case len(rep.Divergences) > 0:
		return VDiverged
	case races > 0:
		return VRacy
	}
	return VClean
}

// rcSink feeds records into the racecheck baseline.
type rcSink struct {
	det *racecheck.Detector
}

func (s *rcSink) Emit(r *logging.Record) {
	// Pass barrier releases and accesses; racecheck ignores the rest.
	switch r.Op {
	case trace.OpIf, trace.OpElse, trace.OpFi, trace.OpBar:
		return
	}
	s.det.Handle(r)
}

// RunRacecheck runs one test under the racecheck-like baseline. The tool
// serializes thread blocks (one block at a time), which is what makes it
// hang on cross-block spin synchronization.
func RunRacecheck(t *Test) (Verdict, error) {
	m, err := ptx.Parse(t.PTX)
	if err != nil {
		return VError, err
	}
	s, err := detector.Open(m, detector.Config{})
	if err != nil {
		return VError, err
	}
	launch, err := t.launch(s)
	if err != nil {
		return VError, err
	}
	rc := racecheck.New(t.Block.Count(), gpusim.WarpSize)
	launch.MaxResidentBlocks = 1 // the tool serializes blocks
	if _, err := s.LaunchInto(t.Kernel, launch, &rcSink{det: rc}); err != nil {
		if errors.Is(err, gpusim.ErrStepBudget) {
			return VHang, nil
		}
		return VError, fmt.Errorf("%s: %w", t.Name, err)
	}
	if rc.HasHazards() {
		return VRacy, nil
	}
	return VClean, nil
}

// Result is the outcome of the full suite for one tool.
type Result struct {
	Total    int
	Correct  int
	Verdicts map[string]Verdict
}

// RunSuite evaluates all tests under a runner.
func RunSuite(tests []*Test, run func(*Test) (Verdict, error)) (*Result, error) {
	res := &Result{Verdicts: make(map[string]Verdict)}
	for _, t := range tests {
		v, err := run(t)
		if err != nil {
			return nil, err
		}
		res.Verdicts[t.Name] = v
		res.Total++
		if t.Expect.Correct(v) {
			res.Correct++
		}
	}
	return res, nil
}
