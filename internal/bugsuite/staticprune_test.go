package bugsuite

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
)

// reportString renders everything user-visible about a detection run so
// the equivalence test below can demand byte identity.
func reportString(t *Test, cfg detector.Config) (string, error) {
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
	var b strings.Builder
	for _, r := range res.Report.Races {
		fmt.Fprintf(&b, "%s x%d\n", r.String(), r.Count)
	}
	for _, d := range res.Report.Divergences {
		fmt.Fprintf(&b, "divergence block=%d warp=%d pc=%d mask=%#x\n", d.Block, d.Warp, d.PC, d.Mask)
	}
	return b.String(), nil
}

// TestStaticPruneReportEquivalence is the pruner's soundness contract:
// across the full bug suite, enabling the inter-block static pruner must
// leave every race report byte-identical — same races, same attributed
// PCs, same dynamic counts, same divergences. Pruning may only remove
// logging the detector provably does not need.
func TestStaticPruneReportEquivalence(t *testing.T) {
	for _, tc := range Tests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			base, err := reportString(tc, detector.Config{})
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			pruned, err := reportString(tc, detector.Config{StaticPrune: true})
			if err != nil {
				t.Fatalf("static-prune run: %v", err)
			}
			if base != pruned {
				t.Errorf("report changed under StaticPrune:\n--- baseline ---\n%s--- pruned ---\n%s", base, pruned)
			}
		})
	}
}

// TestStaticPruneSuiteVerdicts: the pruned detector still scores 66/66.
func TestStaticPruneSuiteVerdicts(t *testing.T) {
	res, err := RunSuite(Tests(), func(tc *Test) (Verdict, error) {
		return RunBarracudaWith(tc, detector.Config{StaticPrune: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != res.Total {
		for name, v := range res.Verdicts {
			t.Logf("%s: %v", name, v)
		}
		t.Fatalf("suite score with StaticPrune = %d/%d", res.Correct, res.Total)
	}
}
