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
// baseline.
func TestGranuleLitmusGoldenEquivalence(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "granule_litmus_a5d8c21.json"))
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
	for _, lc := range litmusCorpus() {
		lc := lc
		t.Run(lc.name, func(t *testing.T) {
			for _, gran := range []int{1, 2, 4} {
				want, ok := golden[fmt.Sprintf("%s/%d", lc.name, gran)]
				if !ok {
					t.Fatalf("no golden entry at granularity %d", gran)
				}
				for _, cfg := range []Config{
					{Granularity: gran},
					{Granularity: gran, Ownership: true},
					{Granularity: gran, PerCellShadow: true},
				} {
					got, err := litmusGranuleOutcome(lc, cfg)
					if err != nil {
						t.Fatalf("%+v: %v", cfg, err)
					}
					if got != want {
						t.Errorf("outcome diverged (%+v):\n--- golden ---\n%s--- got ---\n%s", cfg, want, got)
					}
				}
			}
		})
	}
}
