package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"barracuda/internal/core"
	"barracuda/internal/detector"
)

// granuleOutcome detects one benchmark single-queue under cfg and
// renders the races in discovery order followed by the report's exact
// text (the same rendering as bugsuite's granuleOutcome).
func granuleOutcome(b *Benchmark, cfg detector.Config) (string, error) {
	s, launch, err := session(b, cfg)
	if err != nil {
		return "", err
	}
	out := "discovered:\n"
	res, err := s.DetectObserved("main", launch, func(rc core.Race) {
		out += rc.ExactText() + "\n"
	})
	if err != nil {
		return "", err
	}
	return out + "report:\n" + res.Report.ExactText(), nil
}

// TestGranuleBenchmarkGoldenEquivalence holds the 26 Table 1 benchmarks
// to the outcomes recorded at commit a5d8c21 (uniform Granularity-sized
// shadow cells; see ../bugsuite/testdata/README.md) at Granularity 1, 2
// and 4: the word-granular pages every one of these programs stays on
// must reproduce the per-byte reports exactly, dynamic counts included.
func TestGranuleBenchmarkGoldenEquivalence(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "granule_a5d8c21.json"))
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
	grans := []int{1, 2, 4}
	if testing.Short() {
		grans = []int{1}
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, gran := range grans {
				want, ok := golden[fmt.Sprintf("%s/%d", b.Name, gran)]
				if !ok {
					t.Fatalf("no golden entry at granularity %d", gran)
				}
				got, err := granuleOutcome(b, detector.Config{Granularity: gran})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("outcome diverged (granularity %d):\n--- golden ---\n%s--- got ---\n%s", gran, want, got)
				}
			}
		})
	}
}
