package bugsuite

import (
	"errors"
	"fmt"
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
	"barracuda/internal/shadow"
)

// adaptiveResult is a run's comparable outcome plus the shadow's own
// counters, which differ between configurations by design.
type adaptiveResult struct {
	warpvecResult
	shadow shadow.MemStats
}

// adaptiveRun executes one suite test with the adaptive-shadow knobs
// set: the exclusive-ownership fast path and/or a shadow byte cap.
func adaptiveRun(tc *Test, ws, queues int, ownership bool, capBytes int64) (adaptiveResult, error) {
	s, err := detector.OpenPTX(tc.PTX, detector.Config{
		Queues:         queues,
		Ownership:      ownership,
		ShadowCapBytes: capBytes,
	})
	if err != nil {
		return adaptiveResult{}, err
	}
	launch, err := tc.launch(s)
	if err != nil {
		return adaptiveResult{}, err
	}
	launch.WarpSize = ws
	res, err := s.Detect(tc.Kernel, launch)
	if err != nil {
		if errors.Is(err, gpusim.ErrStepBudget) {
			return adaptiveResult{warpvecResult: warpvecResult{digest: "HANG\n"}}, nil
		}
		return adaptiveResult{warpvecResult: warpvecResult{digest: "ERROR: " + err.Error() + "\n"}}, nil
	}
	var races string
	for _, rc := range res.Report.Races {
		races += fmt.Sprintf("%+v\n", rc)
	}
	if res.Report.PrecisionDegraded {
		races += "PRECISION DEGRADED\n"
	}
	return adaptiveResult{
		warpvecResult: warpvecResult{
			digest: res.Report.CanonicalDigest(),
			races:  races,
			stats:  res.SimStats,
		},
		shadow: res.Report.Shadow,
	}, nil
}

// adaptiveCompare asserts an adaptive-shadow configuration reproduces
// the span baseline at one (warp size, queue count) point: identical
// canonical digests (across queues, their provableDigest), byte-identical
// race lists at one queue, and
// no PrecisionDegraded report (the cap, when set, is generous enough
// that compaction alone keeps residency below it). It returns the
// adaptive run's shadow counters.
func adaptiveCompare(t *testing.T, tc *Test, ws, queues int, ownership bool, capBytes int64) shadow.MemStats {
	t.Helper()
	base, err := adaptiveRun(tc, ws, queues, false, 0)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	adapt, err := adaptiveRun(tc, ws, queues, ownership, capBytes)
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	if provableDigest(base.digest, queues) != provableDigest(adapt.digest, queues) {
		t.Errorf("canonical digest diverged (ws=%d queues=%d ownership=%t cap=%d):\n--- baseline ---\n%s--- adaptive ---\n%s",
			ws, queues, ownership, capBytes, base.digest, adapt.digest)
	}
	if queues == 1 && base.races != adapt.races {
		t.Errorf("race set diverged (ws=%d queues=%d ownership=%t cap=%d):\n--- baseline ---\n%s--- adaptive ---\n%s",
			ws, queues, ownership, capBytes, base.races, adapt.races)
	}
	if base.stats != adapt.stats {
		t.Errorf("launch stats diverged (ws=%d queues=%d ownership=%t cap=%d):\nbaseline: %+v\nadaptive: %+v",
			ws, queues, ownership, capBytes, base.stats, adapt.stats)
	}
	return adapt.shadow
}

// TestOwnershipEquivalence is the correctness contract of the
// exclusive-ownership fast path: across the full bug suite, claiming
// regions for a single warp (and skipping the per-epoch checks on
// same-owner traffic) must reproduce the span baseline exactly —
// identical canonical digests, race sets and stats. Warp size 5 forces
// partial masks and mid-warp divergence, where the ownership tier must
// bail to the slow path without corrupting its facts; four queues put
// concurrent claim/inflate traffic on shared regions.
//
// Equivalence alone would pass with the tier dead, so the suite as a
// whole must also engage it: summed over the programs at one queue and
// the full warp size, regions are claimed, records are answered on the
// owned fast path, warp owners are promoted to block owners, and
// contended regions inflate.
func TestOwnershipEquivalence(t *testing.T) {
	queueCounts := []int{1, 4}
	if testing.Short() {
		queueCounts = []int{1}
	}
	var engaged shadow.MemStats
	for _, tc := range Tests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, q := range queueCounts {
				sh := adaptiveCompare(t, tc, 0, q, true, 0)
				if q == 1 {
					engaged.Claims += sh.Claims
					engaged.OwnedFast += sh.OwnedFast
					engaged.Promotions += sh.Promotions
					engaged.Inflations += sh.Inflations
				}
				adaptiveCompare(t, tc, 5, q, true, 0)
			}
		})
	}
	if engaged.Claims == 0 || engaged.OwnedFast == 0 || engaged.Promotions == 0 || engaged.Inflations == 0 {
		t.Errorf("ownership tier did not engage across the suite: claims %d, owned-fast %d, promotions %d, inflations %d",
			engaged.Claims, engaged.OwnedFast, engaged.Promotions, engaged.Inflations)
	}
}

// TestBoundedShadowEquivalence runs the suite with barrier compaction
// armed (a byte cap well above any suite test's residency): compaction
// may discard converged shared slabs, but reports must stay identical
// and precision must never be marked degraded. The combined
// configuration — ownership + cap — is the shipping default candidate,
// so it is checked too.
func TestBoundedShadowEquivalence(t *testing.T) {
	const cap = 64 << 20 // far above any suite test's shadow footprint
	queueCounts := []int{1, 4}
	if testing.Short() {
		queueCounts = []int{1}
	}
	for _, tc := range Tests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, q := range queueCounts {
				adaptiveCompare(t, tc, 0, q, false, cap)
				adaptiveCompare(t, tc, 0, q, true, cap)
			}
		})
	}
}
