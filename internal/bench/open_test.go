package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"barracuda/internal/bugsuite"
	"barracuda/internal/detector"
	"barracuda/internal/instrument"
	"barracuda/internal/ptx"
	"barracuda/internal/staticanalysis"
)

// openProgram is one module of the open-path corpus.
type openProgram struct{ name, src string }

// openCorpus is every module the project ships: the 26 benchmarks, the
// bug suite and the vet examples.
func openCorpus(t testing.TB) []openProgram {
	t.Helper()
	var out []openProgram
	for _, b := range All() {
		out = append(out, openProgram{"bench/" + b.Name, b.PTX()})
	}
	for _, bt := range bugsuite.Tests() {
		out = append(out, openProgram{"bugsuite/" + bt.Name, bt.PTX})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "vet", "*.ptx"))
	if err != nil || len(files) == 0 {
		t.Fatalf("examples/vet: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, openProgram{"vet/" + filepath.Base(f), string(src)})
	}
	return out
}

// openDigest is what the open path makes of one module under one set of
// instrumentation options: the printed instrumented module and its
// KernelStats, each hashed; and under the default options, the errors parsing damaged copies of the module ends
// in (parseErrors) and the lint pass's diagnostics for it, hashed too.
type openDigest struct {
	Program string `json:"program"`
	Opts    string `json:"opts"`
	Print   string `json:"print"`
	Stats   string `json:"stats"`
	Errors  string `json:"errors,omitempty"`
	Lint    string `json:"lint,omitempty"`
}

// parseErrors parses damaged copies of src — cut short at 16 points, and
// at each with a byte replaced by text the grammar treats specially — and
// lists what each parse ends in: the error's text with its line:col, or
// none.
func parseErrors(src string) string {
	var b strings.Builder
	for k := 1; k <= 16; k++ {
		i := len(src) * k / 17
		for _, bad := range []string{"", "@", "%", "-", "}", "#", "/*"} {
			damaged := src[:i]
			if bad != "" {
				damaged += bad + src[i+1:]
			}
			_, err := ptx.Parse(damaged)
			fmt.Fprintf(&b, "%d %q %v\n", i, bad, err)
		}
	}
	return b.String()
}

func shortHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

func digestOpen(p openProgram, name string, opts instrument.Options) (openDigest, error) {
	m, err := ptx.Parse(p.src)
	if err != nil {
		return openDigest{}, fmt.Errorf("%s: parse: %w", p.name, err)
	}
	res, err := instrument.Instrument(m, opts)
	if err != nil {
		return openDigest{}, fmt.Errorf("%s/%s: instrument: %w", p.name, name, err)
	}
	names := make([]string, 0, len(res.Stats))
	for k := range res.Stats {
		names = append(names, k)
	}
	sort.Strings(names)
	var stats strings.Builder
	for _, k := range names {
		fmt.Fprintf(&stats, "%s %+v\n", k, *res.Stats[k])
	}
	d := openDigest{
		Program: p.name,
		Opts:    name,
		Print:   shortHash(ptx.Print(res.Module)),
		Stats:   shortHash(stats.String()),
	}
	if opts == (instrument.Options{}) {
		d.Errors = shortHash(parseErrors(p.src))
		diags, err := staticanalysis.LintModule(m)
		if err != nil {
			return openDigest{}, fmt.Errorf("%s: lint: %w", p.name, err)
		}
		var lint strings.Builder
		for _, dg := range diags {
			fmt.Fprintln(&lint, dg)
		}
		d.Lint = shortHash(lint.String())
	}
	return d, nil
}

// openOptions are the two instrumentations the golden pins.
var openOptions = []struct {
	name string
	opts instrument.Options
}{
	{"default", instrument.Options{}},
	{"static_prune", instrument.Options{StaticPrune: true}},
}

// openDigests digests every program of the corpus under both options.
func openDigests(t testing.TB) []openDigest {
	var out []openDigest
	for _, p := range openCorpus(t) {
		for _, o := range openOptions {
			d, err := digestOpen(p, o.name, o.opts)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
	}
	return out
}

// openGolden reads the digests recorded at cf645d6, by program and
// options.
func openGolden(t testing.TB) (map[string]openDigest, int) {
	raw, err := os.ReadFile(filepath.Join("testdata", "open_cf645d6.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []openDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	golden := make(map[string]openDigest, len(want))
	for _, d := range want {
		golden[d.Program+"/"+d.Opts] = d
	}
	return golden, len(want)
}

// TestOpenGolden pins what opening a module produces — the instrumented
// module as printed, its KernelStats, and the errors damaged copies of it
// end in — for every shipped program under the default and the
// static-prune instrumentation, against the digests recorded at cf645d6,
// before the parser numbered registers and the instrumenter stopped
// copying kernels. The lint field, what `barracuda vet` reports for the
// module, was recorded at 10dc98b, before the lint pass and the repair
// templates shared their idiom finders. The stats field was re-recorded
// when KernelStats lost its log-once count with the producer filter's
// static tier (the commit after 24d666c): each hash is that of 24d666c's
// stats text with the count, the last field of each kernel's line, cut
// out, and print, errors and lint were checked byte-identical first. The
// default entries' print and stats were re-recorded when the inter-block
// pruner became the default instrumentation (the commit after 0e89bd4):
// each is now its static_prune entry's, which did not move, and errors and
// lint were checked byte-identical first. StaticPrune is read by nothing
// since, so the two entries of a program are one instrumentation.
func TestOpenGolden(t *testing.T) {
	golden, recorded := openGolden(t)
	got := openDigests(t)
	for _, g := range got {
		w, ok := golden[g.Program+"/"+g.Opts]
		if !ok {
			t.Errorf("%s/%s: no recorded digest", g.Program, g.Opts)
			continue
		}
		if g != w {
			t.Errorf("%s/%s: open moved:\n got %+v\nwant %+v", g.Program, g.Opts, g, w)
		}
	}
	if len(got) != recorded {
		t.Errorf("checked %d digests, recorded %d", len(got), recorded)
	}
}

// TestOpenConcurrent opens the whole corpus under both instrumentations
// from eight goroutines at once, as the daemon's scheduler workers open
// modules, and holds every digest to TestOpenGolden's; each goroutine
// also loads each module through detector.OpenPTX. Run under the race
// detector, it finds state that one open shares with another.
func TestOpenConcurrent(t *testing.T) {
	golden, _ := openGolden(t)
	corpus := openCorpus(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range corpus {
				for _, o := range openOptions {
					d, err := digestOpen(p, o.name, o.opts)
					if err != nil {
						t.Error(err)
						continue
					}
					if w := golden[d.Program+"/"+d.Opts]; d != w {
						t.Errorf("%s/%s: open moved:\n got %+v\nwant %+v", d.Program, d.Opts, d, w)
					}
					s, err := detector.OpenPTX(p.src, detector.Config{StaticPrune: o.opts.StaticPrune})
					if err != nil {
						t.Errorf("%s/%s: %v", p.name, o.name, err)
						continue
					}
					s.Close()
				}
			}
		}()
	}
	wg.Wait()
}

// TestOpenAllocBudget holds opening a module under Config{} to at most a
// tenth more heap allocations than it took once a cold open stopped
// running the producer filter's static log-once analysis (the commit
// after 24d666c), and with the fast paths on to at most three fifths of
// those it took at 088667e, before the static analysis kept its
// per-instruction state in slices. OpenPTX(Config{}) allocated 308 times
// for device_reduce and 1 098 times for dwt2d then, against 357 and 1 194
// at 24d666c; OpenPTX with StaticPrune, Ownership and ProducerFilter
// allocated 677 and 2 628 times at 088667e. Since the commit after
// 0e89bd4 every open runs the inter-block analysis, Config{}'s too, and
// the two configurations open alike: 319 and 1 028 times, inside the
// default rows' tighter budgets. Each count is give or take one from run
// to run. Parsing, instrumenting and loading all count.
func TestOpenAllocBudget(t *testing.T) {
	fast := detector.Config{StaticPrune: true, Ownership: true, ProducerFilter: true}
	for _, c := range []struct {
		name, cfgName string
		cfg           detector.Config
		was, budget   float64
	}{
		{"device_reduce", "default", detector.Config{}, 308, 308 * 1.1},
		{"dwt2d", "default", detector.Config{}, 1098, 1098 * 1.1},
		{"device_reduce", "fastpaths", fast, 677, 677 * 3 / 5},
		{"dwt2d", "fastpaths", fast, 2628, 2628 * 3 / 5},
	} {
		src := ByName(c.name).PTX()
		got := testing.AllocsPerRun(10, func() {
			s, err := detector.OpenPTX(src, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
		})
		t.Logf("%s/%s: %.0f allocations per open (was %.0f)", c.name, c.cfgName, got, c.was)
		if got > c.budget {
			t.Errorf("%s/%s: %.0f allocations per open, budget %.0f", c.name, c.cfgName, got, c.budget)
		}
	}
}

// BenchmarkOpen opens each of the 26 benchmark programs, under Config{}
// and under the fast paths.
func BenchmarkOpen(b *testing.B) {
	bs := All()
	srcs := make([]string, len(bs))
	for i, bm := range bs {
		srcs[i] = bm.PTX()
	}
	for _, c := range []struct {
		name string
		cfg  detector.Config
	}{
		{"default", detector.Config{}},
		{"fastpaths", detector.Config{StaticPrune: true, Ownership: true, ProducerFilter: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range srcs {
					s, err := detector.OpenPTX(src, c.cfg)
					if err != nil {
						b.Fatal(err)
					}
					s.Close()
				}
			}
		})
	}
}
