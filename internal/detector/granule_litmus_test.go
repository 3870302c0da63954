package detector

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"barracuda/internal/core"
	"barracuda/internal/gpusim"
)

// litmusGranuleOutcome runs one litmus case single-queue under cfg and
// renders the races in discovery order followed by the report's exact
// text (the same rendering as bugsuite's granuleOutcome).
func litmusGranuleOutcome(lc litmusCase, cfg Config) (string, error) {
	s, err := OpenPTX(lc.ptx, cfg)
	if err != nil {
		return "", err
	}
	args := make([]uint64, 0, len(lc.bufs))
	for _, sz := range lc.bufs {
		a, err := s.Dev.Alloc(sz)
		if err != nil {
			return "", err
		}
		args = append(args, a)
	}
	out := "discovered:\n"
	res, err := s.DetectObserved(lc.kernel, gpusim.LaunchConfig{
		Grid: lc.grid, Block: lc.block, Args: args,
		MaxWarpInstrs: 1 << 18,
	}, func(rc core.Race) {
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

// TestGranuleLitmusGoldenEquivalence holds the litmus corpus to the
// outcomes recorded at commit a5d8c21 (uniform Granularity-sized shadow
// cells; see bugsuite/testdata/README.md) at Granularity 1, 2 and 4,
// under the default configuration, the ownership tier and the per-cell
// baseline — and the FullVC ablation to its own recording, taken at
// 9dddb42 while its shadow still had per-cell spinlocks.
func TestGranuleLitmusGoldenEquivalence(t *testing.T) {
	golden := litmusGolden(t, "granule_litmus_a5d8c21.json")
	fullvc := litmusGolden(t, "granule_litmus_fullvc_9dddb42.json")
	for _, lc := range litmusCorpus() {
		lc := lc
		t.Run(lc.name, func(t *testing.T) {
			for _, gran := range []int{1, 2, 4} {
				key := fmt.Sprintf("%s/%d", lc.name, gran)
				want, ok := golden[key]
				wantFullVC, okFullVC := fullvc[key]
				if !ok || !okFullVC {
					t.Fatalf("no golden entry at granularity %d", gran)
				}
				for _, row := range []struct {
					cfg  Config
					want string
				}{
					{Config{Granularity: gran}, want},
					{Config{Granularity: gran, Ownership: true}, want},
					{Config{Granularity: gran, PerCellShadow: true}, want},
					{Config{Granularity: gran, FullVC: true}, wantFullVC},
				} {
					got, err := litmusGranuleOutcome(lc, row.cfg)
					if err != nil {
						t.Fatalf("%+v: %v", row.cfg, err)
					}
					if got != row.want {
						t.Errorf("outcome diverged (%+v):\n--- golden ---\n%s--- got ---\n%s", row.cfg, row.want, got)
					}
				}
			}
		})
	}
}

// litmusGolden loads a litmus granule recording, keyed
// "program/granularity".
func litmusGolden(t *testing.T, file string) map[string]string {
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
