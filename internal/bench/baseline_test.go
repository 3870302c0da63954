package bench

import (
	"fmt"
	"sync"
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
)

// baselineRun is what the equivalence tests compare a variant against:
// the live default-configuration detection of one benchmark at one warp
// size and queue count.
type baselineRun struct {
	digest string          // canonical report digest
	seen   uint64          // detector-side record count
	races  map[string]bool // every reported race, printed
	peak   int64           // peak resident shadow bytes
}

var (
	baselineMu   sync.Mutex
	baselineRuns = map[string]*baselineRun{}
)

// judgedWarpSizes returns the warp sizes a benchmark is judged at: the
// native one and, in long mode, 5, where partial masks exercise record
// classification and span demotion — when the block stays within
// gpusim.MaxBlockWarps warps of 5 lanes (block_reduce's 1 024 threads
// would be 205, a launch gpusim refuses).
func judgedWarpSizes(b *Benchmark) []int {
	if testing.Short() || (b.Block.Count()+4)/5 > gpusim.MaxBlockWarps {
		return []int{0}
	}
	return []int{0, 5}
}

// defaultBaseline returns the default-configuration run of (b, ws, q),
// detecting it on first use and sharing it for the rest of the package
// run: TestSpanReplayEquivalence, TestFilterBenchmarkEquivalence and
// TestBoundedShadowSoak each compare a different knob against this same
// cell, and used to re-run it once each.
func defaultBaseline(t *testing.T, b *Benchmark, ws, q int) *baselineRun {
	t.Helper()
	key := fmt.Sprintf("%s/%d/%d", b.Name, ws, q)
	baselineMu.Lock()
	defer baselineMu.Unlock()
	if run, ok := baselineRuns[key]; ok {
		return run
	}
	s, launch, err := session(b, detector.Config{Queues: q})
	if err != nil {
		t.Fatal(err)
	}
	launch.WarpSize = ws
	res, err := s.Detect("main", launch)
	if err != nil {
		t.Fatalf("baseline detect (ws=%d q=%d): %v", ws, q, err)
	}
	run := &baselineRun{
		digest: res.Report.CanonicalDigest(),
		seen:   res.Report.RecordsSeen,
		races:  make(map[string]bool, len(res.Report.Races)),
		peak:   res.Report.Shadow.PeakResidentBytes,
	}
	for _, rc := range res.Report.Races {
		run.races[fmt.Sprintf("%+v", rc)] = true
	}
	baselineRuns[key] = run
	return run
}
