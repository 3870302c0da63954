package bugsuite

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
)

// filterResult captures everything the producer-side filter must leave
// untouched, plus the accounting needed to check the OpFlush
// reconciliation arithmetic.
type filterResult struct {
	digest  string
	races   string
	seen    uint64 // detector-side RecordsSeen (post-reconciliation)
	gag     uint64 // same-value suppressed race count
	formats string // PTVC format census, canonically ordered
	sim     gpusim.Stats
	err     bool
}

func filterRun(tc *Test, ws, queues int, filter bool, seed int64) (filterResult, error) {
	s, err := detector.OpenPTX(tc.PTX, detector.Config{
		Queues:         queues,
		ProducerFilter: filter,
	})
	if err != nil {
		return filterResult{}, err
	}
	launch, err := tc.launch(s)
	if err != nil {
		return filterResult{}, err
	}
	launch.WarpSize = ws
	if seed >= 0 {
		launch.RandomSched = true
		launch.Seed = seed
	}
	res, err := s.Detect(tc.Kernel, launch)
	if err != nil {
		if errors.Is(err, gpusim.ErrStepBudget) {
			return filterResult{digest: "HANG\n", err: true}, nil
		}
		return filterResult{digest: "ERROR: " + err.Error() + "\n", err: true}, nil
	}
	var races string
	for _, rc := range res.Report.Races {
		races += fmt.Sprintf("%+v\n", rc)
	}
	if res.Report.PrecisionDegraded {
		races += "PRECISION DEGRADED\n"
	}
	var fms []string
	for f, n := range res.FormatHist {
		fms = append(fms, fmt.Sprintf("%v=%d", f, n))
	}
	sort.Strings(fms)
	return filterResult{
		digest:  res.Report.CanonicalDigest(),
		races:   races,
		seen:    res.Report.RecordsSeen,
		gag:     res.Report.SameValueGag,
		formats: fmt.Sprint(fms),
		sim:     res.SimStats,
	}, nil
}

// filterCompare asserts the filtered run reproduces the unfiltered
// baseline at one (warp size, queue count) point. Beyond digest (across
// queues, provableDigest) and race identity, the detector-side counters
// must match exactly: RecordsSeen
// (the OpFlush records must account for every suppressed record in the
// right warp/group), the per-format histogram (flushes must land before
// any format change), and the same-value gag count (suppressed writes
// must not shift the gag window). On the producer side, simulation work
// is unchanged and the record ledger must balance:
// filtered emissions == baseline emissions - suppressed + flush records.
func filterCompare(t *testing.T, tc *Test, ws, queues int, seed int64) {
	t.Helper()
	base, err := filterRun(tc, ws, queues, false, seed)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	filt, err := filterRun(tc, ws, queues, true, seed)
	if err != nil {
		t.Fatalf("filtered run: %v", err)
	}
	ctx := fmt.Sprintf("ws=%d queues=%d seed=%d", ws, queues, seed)
	if provableDigest(base.digest, queues) != provableDigest(filt.digest, queues) {
		t.Errorf("canonical digest diverged (%s):\n--- baseline ---\n%s--- filtered ---\n%s",
			ctx, base.digest, filt.digest)
	}
	if queues == 1 && base.races != filt.races {
		t.Errorf("race set diverged (%s):\n--- baseline ---\n%s--- filtered ---\n%s",
			ctx, base.races, filt.races)
	}
	if base.err || filt.err {
		return // HANG/ERROR digests compared above; no stats to check
	}
	if base.seen != filt.seen {
		t.Errorf("RecordsSeen diverged (%s): baseline %d, filtered %d (flush reconciliation broken)",
			ctx, base.seen, filt.seen)
	}
	// Across queues the same-value count on a global word is
	// schedule-dependent (core/digest.go), like the race set above.
	if queues == 1 && base.gag != filt.gag {
		t.Errorf("SameValueGag diverged (%s): baseline %d, filtered %d", ctx, base.gag, filt.gag)
	}
	if base.formats != filt.formats {
		t.Errorf("format histogram diverged (%s):\nbaseline: %s\nfiltered: %s",
			ctx, base.formats, filt.formats)
	}
	// The simulation itself must be untouched: the filter only decides
	// whether to emit, never what to execute.
	if base.sim.WarpInstrs != filt.sim.WarpInstrs || base.sim.ThreadInstrs != filt.sim.ThreadInstrs ||
		base.sim.Barriers != filt.sim.Barriers || base.sim.Divergences != filt.sim.Divergences {
		t.Errorf("simulation stats diverged (%s):\nbaseline: %+v\nfiltered: %+v",
			ctx, base.sim, filt.sim)
	}
	f := filt.sim.Filter
	if want := base.sim.Records - f.Suppressed() + f.Flushes; filt.sim.Records != want {
		t.Errorf("record ledger unbalanced (%s): filtered emitted %d, want baseline %d - suppressed %d + flushes %d = %d",
			ctx, filt.sim.Records, base.sim.Records, f.Suppressed(), f.Flushes, want)
	}
	if (gpusim.FilterStats{}) != base.sim.Filter {
		t.Errorf("baseline run counted filter activity (%s): %+v", ctx, base.sim.Filter)
	}
}

// TestProducerFilterEquivalence is the correctness contract of
// producer-side epoch filtering: across the full bug suite, suppressing
// same-interval duplicate records at the simulator must reproduce the
// unfiltered baseline exactly — identical canonical digests, race sets,
// detector counters, and a balanced record ledger. Warp size 5 forces
// partial masks and mid-warp divergence (divergence events must bump the
// generation); four queues shuffle delivery order across workers, where
// the engine-global interference epochs are the only thing standing
// between suppression and a missed reader registration.
func TestProducerFilterEquivalence(t *testing.T) {
	queueCounts := []int{1, 4}
	if testing.Short() {
		queueCounts = []int{1}
	}
	for _, tc := range Tests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, q := range queueCounts {
				filterCompare(t, tc, 0, q, -1)
				filterCompare(t, tc, 5, q, -1)
			}
		})
	}
}

// TestProducerFilterRandomScheduleEquivalence replays the suite under
// randomized warp scheduling with fixed seeds: a given seed is
// deterministic, so the filtered run must still reproduce the unfiltered
// run at that seed byte-for-byte. Random interleavings move the
// engine-global interference epochs around relative to each warp's loop,
// exercising suppression windows the deterministic scheduler never
// produces.
func TestProducerFilterRandomScheduleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep skipped in -short")
	}
	for _, tc := range Tests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				filterCompare(t, tc, 0, 1, seed)
				filterCompare(t, tc, 5, 1, seed)
			}
		})
	}
}
