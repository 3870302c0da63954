package bugsuite

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
)

// granuleOutcome runs one suite program single-queue under cfg and
// renders everything the run determines: the races in discovery order
// (the OnRace snapshots a streaming client would see), then the final
// report's exact text — ordered races with address and dynamic count,
// divergences, RecordsSeen and SameValueGag.
func granuleOutcome(tc *Test, cfg detector.Config) (string, error) {
	s, err := detector.OpenPTX(tc.PTX, cfg)
	if err != nil {
		return "", err
	}
	launch, err := tc.launch(s)
	if err != nil {
		return "", err
	}
	out := "discovered:\n"
	res, err := s.DetectObserved(tc.Kernel, launch, func(rc core.Race) {
		out += rc.ExactText() + "\n"
	})
	if err != nil {
		if errors.Is(err, gpusim.ErrStepBudget) {
			return "HANG\n", nil
		}
		return "ERROR: " + err.Error() + "\n", nil
	}
	return out + "report:\n" + res.Report.ExactText(), nil
}

// granuleGolden loads a granule recording, keyed "program/granularity":
// the parent commit's outcomes at Granularity 1, 2 and 4 (see
// testdata/README.md).
func granuleGolden(t *testing.T, file string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Program string `json:"program"`
		Gran    int    `json:"gran"`
		Outcome string `json:"outcome"`
	}
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	golden := make(map[string]string, len(entries))
	for _, e := range entries {
		golden[fmt.Sprintf("%s/%d", e.Program, e.Gran)] = e.Outcome
	}
	return golden
}

// granuleCompare holds every program of a suite to its recording at
// Granularity 1, 2 and 4, under the default configuration and — the
// ownership tier and the per-cell baseline promise the same reports —
// under those two as well; and, outside short mode, the FullVC ablation
// to its own recording (fullvc), taken at 9dddb42 while its shadow still
// had per-cell spinlocks and byte cells from allocation.
func granuleCompare(t *testing.T, suite []*Test, golden, fullvc map[string]string) {
	for _, tc := range suite {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, gran := range []int{1, 2, 4} {
				key := fmt.Sprintf("%s/%d", tc.Name, gran)
				want, ok := golden[key]
				wantFullVC, okFullVC := fullvc[key]
				if !ok || !okFullVC {
					t.Fatalf("no golden entry at granularity %d", gran)
				}
				type row struct {
					cfg  detector.Config
					want string
				}
				rows := []row{{detector.Config{Granularity: gran}, want}}
				if !testing.Short() {
					rows = append(rows,
						row{detector.Config{Granularity: gran, Ownership: true}, want},
						row{detector.Config{Granularity: gran, PerCellShadow: true}, want},
						row{detector.Config{Granularity: gran, FullVC: true}, wantFullVC})
				}
				for _, r := range rows {
					got, err := granuleOutcome(tc, r.cfg)
					if err != nil {
						t.Fatalf("%+v: %v", r.cfg, err)
					}
					if got != r.want {
						t.Errorf("outcome diverged (%+v):\n--- golden ---\n%s--- got ---\n%s", r.cfg, r.want, got)
					}
				}
			}
		})
	}
}

// TestGranuleGoldenEquivalence is the byte-exactness contract of the
// per-region shadow granule: across the bug suite, at Granularity 1, 2
// and 4, word-granular regions with weighted reports must reproduce the
// outcomes recorded from the last commit whose shadow was uniformly
// Granularity-sized (a5d8c21) — discovery order, addresses, dynamic
// counts, divergences and both counters.
func TestGranuleGoldenEquivalence(t *testing.T) {
	granuleCompare(t, Tests(), granuleGolden(t, "granule_a5d8c21.json"), granuleGolden(t, "granule_fullvc_9dddb42.json"))
}

// TestSubwordGoldenEquivalence is the same contract on the programs that
// do refine: the mixed-width programs' outcomes on a5d8c21 — where every
// cell was a byte (or 2, or 4) from the start — must survive starting at
// word granularity and refining mid-run.
func TestSubwordGoldenEquivalence(t *testing.T) {
	granuleCompare(t, SubwordTests(), granuleGolden(t, "granule_subword_a5d8c21.json"), granuleGolden(t, "granule_fullvc_9dddb42.json"))
}
