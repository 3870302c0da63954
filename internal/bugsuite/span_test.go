package bugsuite

import (
	"errors"
	"fmt"
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
)

// spanRun executes one suite test with the coalesced-span fast path
// either enabled (perCell=false, the default) or disabled (perCell=true,
// the per-cell baseline), at a given warp size and queue count.
func spanRun(tc *Test, ws, queues int, perCell bool) (warpvecResult, error) {
	s, err := detector.OpenPTX(tc.PTX, detector.Config{Queues: queues, PerCellShadow: perCell})
	if err != nil {
		return warpvecResult{}, err
	}
	launch, err := tc.launch(s)
	if err != nil {
		return warpvecResult{}, err
	}
	launch.WarpSize = ws
	res, err := s.Detect(tc.Kernel, launch)
	if err != nil {
		if errors.Is(err, gpusim.ErrStepBudget) {
			return warpvecResult{digest: "HANG\n"}, nil
		}
		return warpvecResult{digest: "ERROR: " + err.Error() + "\n"}, nil
	}
	var races string
	for _, rc := range res.Report.Races {
		races += fmt.Sprintf("%+v\n", rc)
	}
	return warpvecResult{
		digest: res.Report.CanonicalDigest(),
		races:  races,
		stats:  res.SimStats,
	}, nil
}

// spanCompare asserts the span fast path and the per-cell baseline agree
// on one test at one (warp size, queue count) point. At one queue the
// whole report is deterministic, so the formatted race list must match
// byte for byte; at several queues only the canonical-digest projection
// is queue-schedule-invariant (see core.Report.CanonicalDigest), and of it
// only what provableDigest keeps, so that and the producer-side stats
// carry the contract.
func spanCompare(t *testing.T, tc *Test, ws, queues int) {
	t.Helper()
	perCell, err := spanRun(tc, ws, queues, true)
	if err != nil {
		t.Fatalf("per-cell run: %v", err)
	}
	span, err := spanRun(tc, ws, queues, false)
	if err != nil {
		t.Fatalf("span run: %v", err)
	}
	if provableDigest(perCell.digest, queues) != provableDigest(span.digest, queues) {
		t.Errorf("canonical digest diverged (ws=%d queues=%d):\n--- per-cell ---\n%s--- span ---\n%s",
			ws, queues, perCell.digest, span.digest)
	}
	if queues == 1 && perCell.races != span.races {
		t.Errorf("race set diverged (ws=%d queues=%d):\n--- per-cell ---\n%s--- span ---\n%s",
			ws, queues, perCell.races, span.races)
	}
	if perCell.stats != span.stats {
		t.Errorf("launch stats diverged (ws=%d queues=%d):\nper-cell: %+v\nspan: %+v",
			ws, queues, perCell.stats, span.stats)
	}
}

// TestCoalescedSpanEquivalence is the correctness contract of the
// coalesced-span detection fast path: across the full bug suite, spans
// (uniform-span summaries + demotion) must reproduce the per-cell
// baseline exactly — identical canonical digests, race sets and stats.
// Run at the default 32-lane warp and at warp size 5 (partial masks and
// mid-warp divergence defeat coalescing classification, exercising the
// demotion and fallback paths), at one queue and at four (concurrent
// span/per-cell traffic on the same regions).
func TestCoalescedSpanEquivalence(t *testing.T) {
	queueCounts := []int{1, 4}
	if testing.Short() {
		queueCounts = []int{1}
	}
	for _, tc := range Tests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, q := range queueCounts {
				spanCompare(t, tc, 0, q)
				spanCompare(t, tc, 5, q)
			}
		})
	}
}
