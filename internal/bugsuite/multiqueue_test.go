package bugsuite

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
)

// digestFor runs one test under the detector at the given queue width
// and returns the canonical report digest (the queue-count-invariant
// projection of the report — see core.Report.CanonicalDigest).
func digestFor(t *Test, cfg detector.Config) (string, error) {
	s, err := detector.OpenPTX(t.PTX, cfg)
	if err != nil {
		return "", err
	}
	launch, err := t.launch(s)
	if err != nil {
		return "", err
	}
	res, err := s.Detect(t.Kernel, launch)
	if err != nil {
		if errors.Is(err, gpusim.ErrStepBudget) {
			return "HANG\n", nil
		}
		return "", err
	}
	return res.Report.CanonicalDigest(), nil
}

// provableDigest projects a canonical digest to what is provable at a queue
// count. At one queue that is every byte of it. Across queues the block
// scope of a global write–write pair is schedule-dependent
// (core.Report.CanonicalDigest): in gl-bfs-frontier-racy every thread stores
// the same value, so whether the pair within one block is gagged by the
// same-value filter or reported depends on which queue's store reached the
// word first — in two runs of one configuration as much as between two —
// while the pair across blocks is reported either way. So global-space race
// lines lose their intra-block/inter-block word and are de-duplicated;
// shared-space lines, divergences and records= stay exact.
func provableDigest(digest string, queues int) string {
	if queues <= 1 {
		return digest
	}
	lines := strings.Split(strings.TrimSuffix(digest, "\n"), "\n")
	body, last := lines[:len(lines)-1], lines[len(lines)-1] // last: records=, HANG or ERROR
	seen := make(map[string]bool)
	out := body[:0]
	for _, line := range body {
		for _, scope := range []string{"intra-block", "inter-block"} {
			if rest, ok := strings.CutPrefix(line, "race "+scope+" global "); ok {
				line = "race global " + rest
			}
		}
		if strings.HasPrefix(line, "race global ") {
			if seen[line] {
				continue
			}
			seen[line] = true
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return strings.Join(append(out, last), "\n") + "\n"
}

// TestMultiQueueReportEquivalence is the determinism contract of the
// parallel detection pipeline: across the full bug suite, running with
// four queues (four concurrent detector workers) must produce reports
// canonically identical to the single-queue run — same static races
// (global ones up to their block scope: provableDigest), same dynamic
// counts, same divergences, same record totals. Per-queue
// FIFO order preserves each block's program order, and Seq-ordered sync
// records preserve cross-queue happens-before edges; this test is what
// the server's content-addressed cache and the Fig. 9 comparisons rely
// on. Run under -race (make race / CI) this also stress-tests the
// lock-free transport, the striped shadow page table and the per-worker
// stat shards.
func TestMultiQueueReportEquivalence(t *testing.T) {
	multiQueueCompare(t, Tests(), detector.Config{})
}

// TestFullVCMultiQueueEquivalence is the same contract for the FullVC
// ablation, over the bug suite and the mixed-width programs: its shadow
// is the default one — every cell behind its region's lock, regions
// word-granular until a sub-word access refines them — so under -race
// this is the data-race check of that discipline with FullVC's own
// clocks on four detector threads.
func TestFullVCMultiQueueEquivalence(t *testing.T) {
	multiQueueCompare(t, append(Tests(), SubwordTests()...), detector.Config{FullVC: true})
}

// multiQueueCompare holds every program of a suite at four queues to its
// single-queue run under cfg, through provableDigest.
func multiQueueCompare(t *testing.T, suite []*Test, cfg detector.Config) {
	for _, tc := range suite {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			cfg.Queues = 1
			base, err := digestFor(tc, cfg)
			if err != nil {
				t.Fatalf("single-queue run: %v", err)
			}
			cfg.Queues = 4
			multi, err := digestFor(tc, cfg)
			if err != nil {
				t.Fatalf("multi-queue run: %v", err)
			}
			if provableDigest(base, 4) != provableDigest(multi, 4) {
				t.Errorf("report changed at Queues=4 (%+v):\n--- queues=1 ---\n%s--- queues=4 ---\n%s", cfg, base, multi)
			}
		})
	}
}
