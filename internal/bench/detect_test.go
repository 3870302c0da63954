package bench

import (
	"testing"

	"barracuda/internal/detector"
)

// TestSpanReplayEquivalence is the benchmark-suite half of the span
// correctness contract (the bug-suite half lives in
// internal/bugsuite/span_test.go): every Table 1 benchmark's captured
// record stream, replayed through the multi-queue transport with the
// per-cell shadow, must produce the same canonical report as the live
// default (span) detection — at one queue and four, and (long mode) at
// warp size 5, where partial masks exercise classification rejection
// and span demotion. Comparing against the live run also holds Replay to
// its promise of reporting what a live Detect does.
func TestSpanReplayEquivalence(t *testing.T) {
	warpSizes := []int{0}
	queueCounts := []int{1, 4}
	if !testing.Short() {
		warpSizes = []int{0, 5}
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, ws := range warpSizes {
				s, launch, err := session(b, detector.Config{})
				if err != nil {
					t.Fatal(err)
				}
				launch.WarpSize = ws
				cap, err := s.Capture("main", launch)
				if err != nil {
					t.Fatalf("capture (ws=%d): %v", ws, err)
				}
				for _, q := range queueCounts {
					res, err := detector.Replay(cap, detector.Config{Queues: q, PerCellShadow: true})
					if err != nil {
						t.Fatalf("replay (ws=%d q=%d): %v", ws, q, err)
					}
					perCell, span := res.Report.CanonicalDigest(), defaultBaseline(t, b, ws, q).digest
					if perCell != span {
						t.Errorf("canonical digest diverged (ws=%d q=%d):\n--- per-cell ---\n%s--- span ---\n%s",
							ws, q, perCell, span)
					}
				}
			}
		})
	}
}
