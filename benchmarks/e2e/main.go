// Command e2e is the repository's one end-to-end benchmark: PTX text in,
// race report out, through the library, the daemon and a two-node fleet,
// with a traced pass that gives every layer its share. README.md in this
// directory defines the workloads and metrics; BENCHMARK.json at the
// repository root is the contract the numbers are gated on.
//
//	e2e -workload W -seed S -seconds T -trace 0|1   one workload, result JSON on the last line
//	e2e -seed S [-trace 1]                          every workload, each in its own process
//	e2e -repeat N -seed S                           N full sets; spreads against bounds
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"barracuda/internal/detector"
)

// workloadDef is one named workload.
type workloadDef struct {
	Name   string
	Why    string
	Config detector.Config // of the jobs it submits
	run    func(*workloadDef, params) (*result, error)
}

var workloads = []*workloadDef{
	{
		Name: "suite26_default",
		Why:  "Fig. 10: the 26 paper programs, native and detected with Config{}; gpusim and core/shadow/ptvc do the work",
		run:  runSuite,
	},
	{
		Name:   "suite26_fastpaths",
		Why:    "same programs with StaticPrune+Ownership+ProducerFilter: same layers used differently, reports must not move",
		Config: detector.Config{StaticPrune: true, Ownership: true, ProducerFilter: true},
		run:    runSuite,
	},
	{
		Name: "service_zipf",
		Why:  "millisecond jobs on one daemon, 256 modules drawn by zipf over a 64-entry cache; server, wire and JSON dominate",
		run:  runService,
	},
	{
		Name: "fleet_2node",
		Why:  "the same job sequence through a coordinator and two half-size workers; the gap to service_zipf is the fleet tax",
		run:  runService,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// params is one run's arguments. tiny is the smoke test's scale: grids
// clamped, one set-up, a handful of warm-up jobs.
type params struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool
}

func (p params) duration() time.Duration {
	return time.Duration(p.seconds * float64(time.Second))
}

// setups is how often a run sets its system up; setup_s is the median.
func (p params) setups() int {
	if p.tiny {
		return 1
	}
	return 3
}

func (p params) maxBlocks() int {
	if p.tiny {
		return 1
	}
	return 0
}

func (p params) warmBlocks() int {
	if p.tiny {
		return 1
	}
	return warmBlocks
}

func (p params) warmJobs() int {
	if p.tiny {
		return 2 * clients
	}
	return warmJobs
}

// result is one workload run.
type result struct {
	Workload  string
	Ops       string // operation counts, for the environment block
	Calib     string // untraced: the calibrator's probes and the run's slowdown
	Attempted int
	Failed    int
	Errors    []string
	Metrics   map[string]value
	Digest    string   // suite26_*: the fold of the 26 verdicts
	Rows      []string // traced library pass: per-program table
	spans     *spanLog
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// env is the environment block printed with every output.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Seconds    string `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func environment(p params) env {
	e := env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: p.seed, Seconds: strconv.FormatFloat(p.seconds, 'g', -1, 64), Trace: p.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				e.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		e.Commit += dirty
	}
	return e
}

func (e env) print() {
	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d seconds=%s trace=%v\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Seed, e.Seconds, e.Trace)
	fmt.Printf("note with %d cores one producer and one consumer saturate the machine: Queues>1 results are out of scope\n", e.NumCPU)
}

// peakRSSMiB is VmHWM of this process, which runs one workload only.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS resets VmHWM to the current resident size. Where the kernel
// refuses, VmHWM stays the process-wide maximum.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// resultLine is the last line of a single-workload run's standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// traceFile is what -o writes after a traced run.
type traceFile struct {
	Env       env              `json:"env"`
	Workload  string           `json:"workload"`
	Config    string           `json:"detector_config"`
	Counts    map[string]value `json:"counts"`
	SelfTimes []selfTime       `json:"self_times"`
	Spans     []span           `json:"spans"`
}

// runOne runs one workload in this process and prints it.
func runOne(w *workloadDef, p params, tracePath string) (*result, error) {
	e := environment(p)
	e.print()
	fmt.Printf("workload %s: %s\n", w.Name, w.Why)
	fmt.Printf("config %s detector.Config%+v\n", w.Name, w.Config)
	res, err := w.run(w, p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	fmt.Printf("ops %s %s attempted=%d failed=%d\n", w.Name, res.Ops, res.Attempted, res.Failed)
	if res.Calib != "" {
		fmt.Printf("calib %s %s\n", w.Name, res.Calib)
	}
	for _, msg := range res.Errors {
		fmt.Printf("FAIL %s %s\n", w.Name, msg)
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	line := resultLine{
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Printf("metric %-18s %-30s %16.6f %-6s n=%-6d better=%s", w.Name, d.Name, v.Value, v.Unit, v.N, d.Better)
		if !p.trace {
			fmt.Printf(" bound=%.2f", d.Bound)
		}
		fmt.Println()
		line.Metrics[d.Name] = metricJSON{Value: v.Value, Unit: v.Unit}
	}
	fmt.Printf("metric %-18s %-30s %16.6f %-6s\n", w.Name, "failed_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	for _, row := range res.Rows {
		fmt.Printf("row %s\n", row)
	}
	if res.spans != nil {
		fmt.Printf("self %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
		self := res.spans.selfTimes()
		for _, st := range self {
			fmt.Printf("self %-28s %8d %12.2f %12.2f\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
		}
		if tracePath != "" {
			tf := traceFile{
				Env: e, Workload: w.Name, Config: fmt.Sprintf("%+v", w.Config),
				Counts: res.Metrics, SelfTimes: self, Spans: res.spans.spans,
			}
			data, err := json.Marshal(tf)
			if err == nil {
				err = os.WriteFile(tracePath, data, 0o644)
			}
			if err != nil {
				return nil, fmt.Errorf("trace file: %w", err)
			}
		}
	}
	if res.Digest != "" {
		fmt.Printf("digest %s %s\n", w.Name, res.Digest)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(out))
	return res, nil
}

// child is what the parent keeps of one re-executed workload run.
type child struct {
	workload string
	line     resultLine
	digest   string
}

// runChild re-executes this binary for one workload, so that peak_rss_mb is
// that workload's own, echoing its output and keeping the result line.
func runChild(w *workloadDef, p params, tracePath string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if p.trace {
		traceArg = "1"
	}
	args := []string{
		"-workload", w.Name, "-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64), "-trace", traceArg,
	}
	if tracePath != "" && p.trace {
		args = append(args, "-o", tracePath+"."+w.Name+".json")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{workload: w.Name}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		last = sc.Text()
		fmt.Println(last)
		if f := strings.Fields(last); len(f) == 3 && f[0] == "digest" {
			c.digest = f[2]
		}
	}
	waitErr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &c.line); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v, %v)", w.Name, err, waitErr)
	}
	return c, nil
}

// digestsAgree checks the known-answer gate that spans two workloads: the
// fast paths may not move any of the 26 reports.
func digestsAgree(cs []*child) error {
	digest := map[string]string{}
	for _, c := range cs {
		if c.digest != "" { // untraced suite26_* runs only
			digest[c.workload] = c.digest
		}
	}
	a, b := digest["suite26_default"], digest["suite26_fastpaths"]
	if a != "" && b != "" && a != b {
		return fmt.Errorf("suite26_fastpaths digest %s differs from suite26_default's %s", b, a)
	}
	return nil
}

// runSet runs every selected workload once, each in its own process.
func runSet(sel []*workloadDef, p params, tracePath string) ([]*child, int) {
	var cs []*child
	failed := 0
	for _, w := range sel {
		c, err := runChild(w, p, tracePath)
		if err != nil {
			fmt.Printf("FAIL %v\n", err)
			failed++
			continue
		}
		failed += c.line.Failed
		cs = append(cs, c)
	}
	if err := digestsAgree(cs); err != nil {
		fmt.Printf("FAIL %v\n", err)
		failed++
	}
	return cs, failed
}

// repeat runs n full sets, untraced and traced, and prints each end-to-end
// metric's spread between sets against its bound. A spread wider than the
// bound cannot resolve a regression of that size: the metric is flagged
// unresolved. The counts that must repeat exactly are asserted.
func repeat(sel []*workloadDef, p params, n int) int {
	failed := 0
	e2e := map[string][]float64{}    // workload/metric → one value per set
	counts := map[string][]float64{} // workload/count → one value per set
	for i := 0; i < n; i++ {
		fmt.Printf("set %d of %d\n", i+1, n)
		for _, traced := range []bool{false, true} {
			q := p
			q.trace = traced
			cs, f := runSet(sel, q, "")
			failed += f
			for _, c := range cs {
				if traced {
					for _, name := range deterministicCounts {
						k := c.workload + "/" + name
						counts[k] = append(counts[k], c.line.Metrics[name].Value)
					}
					continue
				}
				for _, d := range endToEnd {
					k := c.workload + "/" + d.Name
					e2e[k] = append(e2e[k], c.line.Metrics[d.Name].Value)
				}
			}
		}
	}
	fmt.Printf("%-18s %-12s %14s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "")
	for _, w := range sel {
		for _, d := range endToEnd {
			xs := e2e[w.Name+"/"+d.Name]
			spread, verdict := quartileSpread(xs), "ok"
			if spread > d.Bound {
				verdict = "unresolved"
			}
			fmt.Printf("%-18s %-12s %14.4f %8.2f%% %6.0f%%  %s\n", w.Name, d.Name, median(xs), 100*spread, 100*d.Bound, verdict)
		}
		for _, name := range deterministicCounts {
			xs := counts[w.Name+"/"+name]
			for _, x := range xs {
				if x != xs[0] {
					fmt.Printf("FAIL %s %s does not repeat: %v\n", w.Name, name, xs)
					failed++
					break
				}
			}
		}
	}
	return failed
}

func main() {
	var p params
	workload := flag.String("workload", "", "run this workload only, in this process (default: every workload, each re-executed)")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&p.seconds, "seconds", 28, "how long each run measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead")
	tracePath := flag.String("o", "", "with -trace 1: write spans and counts to this file (all workloads: PATH.WORKLOAD.json)")
	sets := flag.Int("repeat", 0, "run this many full sets, untraced and traced, and print each metric's spread against its bound")
	flag.Parse()
	p.trace = *trace != 0

	sel := workloads
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		sel = []*workloadDef{w}
	}
	failed := 0
	switch {
	case *sets > 0:
		failed = repeat(sel, p, *sets)
	case *workload != "":
		res, err := runOne(sel[0], p, *tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
			os.Exit(1)
		}
		failed = res.Failed
	default:
		environment(p).print()
		_, failed = runSet(sel, p, *tracePath)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "e2e: %d failed\n", failed)
		os.Exit(1)
	}
}
