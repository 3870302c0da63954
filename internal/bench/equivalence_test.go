package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
	"barracuda/internal/logging"
)

// cell is one live detection of one benchmark at one warp size.
type cell struct {
	outcome   string          // races in discovery order, then the report's exact text
	digest    string          // canonical report digest
	races     map[string]bool // every reported race, printed
	peak      int64           // peak resident shadow bytes
	transport logging.Counters
}

// detectCell detects b at warp size ws under cfg.
func detectCell(t *testing.T, b *Benchmark, cfg detector.Config, ws int) *cell {
	t.Helper()
	s, launch, err := session(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	launch.WarpSize = ws
	c := &cell{outcome: "discovered:\n"}
	res, err := s.DetectObserved("main", launch, func(rc core.Race) {
		c.outcome += rc.ExactText() + "\n"
	})
	if err != nil {
		t.Fatalf("detect %+v at warp size %d: %v", cfg, ws, err)
	}
	rep := res.Report
	c.outcome += "report:\n" + rep.ExactText()
	c.digest = rep.CanonicalDigest()
	c.peak = rep.Shadow.PeakResidentBytes
	c.transport = res.Transport
	c.races = make(map[string]bool, len(rep.Races))
	for _, rc := range rep.Races {
		c.races[fmt.Sprintf("%+v", rc)] = true
	}
	return c
}

var (
	baselineMu   sync.Mutex
	baselineRuns = map[string]*cell{}
)

// baseline returns the detection of b at warp size ws under cfg, running
// it on first use and sharing it for the rest of the package run: every
// row of TestBenchmarkEquivalence, and TestBoundedShadowSoak, compares
// against the same few cells of each benchmark.
func baseline(t *testing.T, b *Benchmark, cfg detector.Config, ws int) *cell {
	t.Helper()
	key := fmt.Sprintf("%s/%d/%+v", b.Name, ws, cfg.WithDefaults())
	baselineMu.Lock()
	defer baselineMu.Unlock()
	if c, ok := baselineRuns[key]; ok {
		return c
	}
	c := detectCell(t, b, cfg, ws)
	baselineRuns[key] = c
	return c
}

// judgedWarpSizes returns the warp sizes a benchmark's default row is
// judged at: the native one and, in long mode, 5, where partial masks
// exercise record classification and the walk's partial runs — when the
// block stays within gpusim.MaxBlockWarps warps of 5 lanes (block_reduce's
// 1 024 threads would be 205, a launch gpusim refuses).
func judgedWarpSizes(b *Benchmark) []int {
	if testing.Short() || (b.Block.Count()+4)/5 > gpusim.MaxBlockWarps {
		return []int{0}
	}
	return []int{0, 5}
}

func cfgName(c detector.Config) string {
	return fmt.Sprintf("queues=%d queue_cap=%d fastpaths=%v", max(c.Queues, 1), c.QueueCap, c.Ownership)
}

// TestBenchmarkEquivalence holds the 26 Table 1 benchmarks to one table,
// one row per knob, each row judged against baseline cells — the default
// configuration (or the fast paths) at each warp size and queue count,
// detected once per benchmark and shared by every row:
//
//   - default: the single-queue run reproduces the outcome recorded at
//     commit a5d8c21 (../bugsuite/testdata/README.md) at Granularity 1,
//     dynamic counts included, and four queues give the one-queue digest,
//     as they do under the three fast paths together and, for Config{}, at
//     every judged warp size;
//   - per_cell: PerCellShadow is read by nothing — every record takes the
//     one per-cell walk — so one queue at warp size 32 gives Config{}'s
//     exact outcome;
//   - filter: ProducerFilter is read by nothing — the simulator has no
//     producer filter — so, likewise, Config{}'s exact outcome;
//   - granularity=2 and =4: the word-granular pages every one of these
//     programs stays on reproduce the recorded per-byte outcome;
//   - queue_cap=1 and =64: the ring's size decides when the producer
//     blocks, never what is reported — under the default configuration
//     and under the three fast paths together, the exact outcome at one
//     queue and the one-queue digest at four, and a two-record ring is
//     found full at least once.
//
// Rows marked long run only without -short.
func TestBenchmarkEquivalence(t *testing.T) {
	golden := granuleGolden(t)
	fast := detector.Config{Ownership: true, ProducerFilter: true, StaticPrune: true}

	matchesGolden := func(gran int) func(*testing.T, *Benchmark) {
		return func(t *testing.T, b *Benchmark) {
			want, ok := golden[fmt.Sprintf("%s/%d", b.Name, gran)]
			if !ok {
				t.Fatalf("no golden entry at granularity %d", gran)
			}
			// Granularity 1 is the default: the baseline cell itself.
			if got := baseline(t, b, detector.Config{Granularity: gran}, 0); got.outcome != want {
				t.Errorf("outcome diverged (granularity %d):\n--- golden ---\n%s--- got ---\n%s", gran, want, got.outcome)
			}
		}
	}
	inert := func(knob detector.Config) func(*testing.T, *Benchmark) {
		return func(t *testing.T, b *Benchmark) {
			if got, want := detectCell(t, b, knob, 0), baseline(t, b, detector.Config{}, 0); got.outcome != want.outcome {
				t.Errorf("%+v: outcome diverged from Config{}'s:\n--- Config{} ---\n%s--- got ---\n%s", knob, want.outcome, got.outcome)
			}
		}
	}
	queueCap := func(qc int) func(*testing.T, *Benchmark) {
		return func(t *testing.T, b *Benchmark) {
			for _, base := range []detector.Config{{}, fast} {
				want := baseline(t, b, base, 0)
				cfg := base
				cfg.QueueCap = qc
				if got := detectCell(t, b, cfg, 0); got.outcome != want.outcome {
					t.Errorf("%s: outcome moved with the ring size:\n--- want ---\n%s--- got ---\n%s", cfgName(cfg), want.outcome, got.outcome)
				}
				cfg.Queues = 4
				got := detectCell(t, b, cfg, 0)
				if got.digest != want.digest {
					t.Errorf("%s: digest moved with the ring size:\n--- want ---\n%s--- got ---\n%s", cfgName(cfg), want.digest, got.digest)
				}
				if tr := got.transport; qc == 1 && tr.Records > 1000 && tr.FullWaits == 0 {
					t.Errorf("%s: %d records through two-record rings without one full-ring wait", cfgName(cfg), tr.Records)
				}
			}
		}
	}

	rows := []struct {
		name  string
		long  bool
		check func(*testing.T, *Benchmark)
	}{
		{"default", false, func(t *testing.T, b *Benchmark) {
			matchesGolden(1)(t, b)
			sameAtFourQueues := func(cfg detector.Config, ws int) {
				one := baseline(t, b, cfg, ws)
				cfg.Queues = 4
				if four := baseline(t, b, cfg, ws); four.digest != one.digest {
					t.Errorf("%s ws=%d: digest moved with the queue count:\n--- queues=1 ---\n%s--- got ---\n%s", cfgName(cfg), ws, one.digest, four.digest)
				}
			}
			for _, ws := range judgedWarpSizes(b) {
				sameAtFourQueues(detector.Config{}, ws)
			}
			sameAtFourQueues(fast, 0)
		}},
		{"per_cell", false, inert(detector.Config{PerCellShadow: true})},
		{"filter", false, inert(detector.Config{ProducerFilter: true})},
		{"granularity=2", true, matchesGolden(2)},
		{"granularity=4", true, matchesGolden(4)},
		{"queue_cap=1", false, queueCap(1)},
		{"queue_cap=64", true, queueCap(64)},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.long && testing.Short() {
				t.Skip("long mode only")
			}
			for _, b := range All() {
				t.Run(b.Name, func(t *testing.T) { row.check(t, b) })
			}
		})
	}
}

// granuleGolden loads the outcomes recorded at a5d8c21, keyed
// "program/granularity".
func granuleGolden(t *testing.T) map[string]string {
	t.Helper()
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
	return golden
}
