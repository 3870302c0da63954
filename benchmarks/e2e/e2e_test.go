package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesTables holds BENCHMARK.json and the tables this
// program reports from to one another, entry by entry.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := m.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, got, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: name %q does not match %v", kind, d.Name, nameRE)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(m.Paths) != 1 || m.Paths[0] != "benchmarks/e2e" {
		t.Errorf("paths = %v", m.Paths)
	}
}

// TestSmoke runs every workload, untraced and traced, at the tiny scale:
// nothing fails, every metric the pass owes is present with its unit, the
// end-to-end metrics are non-zero, and the trace file parses into a tree.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				p := params{seed: 1, seconds: 0.05, trace: traced, tiny: true}
				tracePath := ""
				if traced {
					tracePath = filepath.Join(t.TempDir(), "trace.json")
				}
				res, err := runOne(w, p, tracePath)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Errors)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("%s: got %+v (present %v), want unit %q", d.Name, v, ok, d.Unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("%s = %v: an end-to-end metric is never 0", d.Name, v.Value)
					}
				}
				if traced {
					checkTraceFile(t, tracePath)
				}
			})
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if len(tf.Spans) == 0 || tf.Env.GoVersion == "" || len(tf.Counts) == 0 {
		t.Fatalf("trace file lacks spans, env or counts")
	}
	roots := 0
	for i, s := range tf.Spans {
		switch {
		case s.ID != i+1:
			t.Fatalf("span %d has id %d", i, s.ID)
		case s.Parent == 0:
			roots++
		case s.Parent < 0 || s.Parent >= s.ID:
			t.Errorf("span %d (%s): parent %d is not an earlier span", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	if roots != 1 {
		t.Errorf("%d root spans, want the run span alone", roots)
	}
}

func TestCalibratorSlowdown(t *testing.T) {
	c := newCalibrator()
	if len(c.secs) != 0 {
		t.Fatalf("the table-touching probe was kept: %v", c.secs)
	}
	c.probe()
	if len(c.secs) != 1 || c.secs[0] <= 0 {
		t.Fatalf("probe recorded %v", c.secs)
	}
	// The run's slowdown is its median probe over the nominal time.
	c.secs = []float64{3 * probeNominal, probeNominal, 2 * probeNominal}
	if got := c.slowdown(); got != 2 {
		t.Errorf("slowdown = %v, want 2", got)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	l := &spanLog{spans: []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 60, Parent: 1},
		{ID: 3, Name: "b", Start: 40, End: 90, Parent: 1},
	}}
	for _, st := range l.selfTimes() {
		if st.Name == "run" && st.SelfMS != 0.02 {
			t.Errorf("run self = %v ms, want 0.02 (100 - the 80 µs the children cover)", st.SelfMS)
		}
	}
}
