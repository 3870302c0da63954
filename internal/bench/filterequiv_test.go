package bench

import (
	"testing"

	"barracuda/internal/detector"
)

// TestFilterBenchmarkEquivalence is the benchmark-suite half of the
// producer-filter correctness contract (the bug-suite half lives in
// internal/bugsuite/filter_test.go): every Table 1 benchmark, detected
// live with producer-side epoch filtering on, must produce the same
// canonical report as the unfiltered baseline with an identical
// detector-side record count — at one queue and four, and (long mode)
// at warp size 5, where partial masks change which records qualify as
// coalesced and hence suppressible.
func TestFilterBenchmarkEquivalence(t *testing.T) {
	warpSizes := []int{0}
	queueCounts := []int{1, 4}
	if !testing.Short() {
		warpSizes = []int{0, 5}
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, ws := range warpSizes {
				for _, q := range queueCounts {
					base := defaultBaseline(t, b, ws, q)
					s, launch, err := session(b, detector.Config{Queues: q, ProducerFilter: true})
					if err != nil {
						t.Fatal(err)
					}
					launch.WarpSize = ws
					res, err := s.Detect("main", launch)
					if err != nil {
						t.Fatalf("filtered detect (ws=%d q=%d): %v", ws, q, err)
					}
					if got := res.Report.CanonicalDigest(); got != base.digest {
						t.Errorf("canonical digest diverged (ws=%d q=%d):\n--- baseline ---\n%s--- filtered ---\n%s",
							ws, q, base.digest, got)
					}
					if res.Report.RecordsSeen != base.seen {
						t.Errorf("RecordsSeen diverged (ws=%d q=%d): baseline %d, filtered %d",
							ws, q, base.seen, res.Report.RecordsSeen)
					}
				}
			}
		})
	}
}
