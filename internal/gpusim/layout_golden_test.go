package gpusim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"barracuda/internal/bench"
	"barracuda/internal/bugsuite"
	"barracuda/internal/gpusim"
	"barracuda/internal/instrument"
	"barracuda/internal/ptx"
)

// layoutDigest is the hashed layout of every kernel of one program as
// the loader lays it out: natively, and instrumented with and without
// the static pruner.
type layoutDigest struct {
	Program string `json:"program"`
	Native  string `json:"native"`
	Default string `json:"default"`
	Static  string `json:"static_prune"`
}

// layoutDigests loads every shipped program — the 26 benchmarks, the bug
// suite and the vet examples — and digests the layouts.
func layoutDigests(t testing.TB) []layoutDigest {
	srcs := map[string]string{}
	var names []string
	add := func(name, src string) {
		names = append(names, name)
		srcs[name] = src
	}
	for _, b := range bench.All() {
		add("bench/"+b.Name, b.PTX())
	}
	for _, bt := range bugsuite.Tests() {
		add("bugsuite/"+bt.Name, bt.PTX)
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
		add("vet/"+filepath.Base(f), string(src))
	}
	layout := func(name string, m *ptx.Module) string {
		mod, err := gpusim.NewDevice(0).LoadModule(m)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		var all string
		for _, k := range m.Kernels {
			all += k.Name + "\n" + gpusim.Layout(mod, k.Name)
		}
		h := sha256.Sum256([]byte(all))
		return hex.EncodeToString(h[:8])
	}
	var out []layoutDigest
	for _, name := range names {
		m, err := ptx.Parse(srcs[name])
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		d := layoutDigest{Program: name, Native: layout(name, m)}
		for _, o := range []struct {
			dst  *string
			opts instrument.Options
		}{{&d.Default, instrument.Options{}}, {&d.Static, instrument.Options{StaticPrune: true}}} {
			res, err := instrument.Instrument(m, o.opts)
			if err != nil {
				t.Fatalf("%s: instrument: %v", name, err)
			}
			*o.dst = layout(name, res.Module)
		}
		out = append(out, d)
	}
	return out
}

// TestLoadLayoutGolden pins each loaded kernel's register, predicate,
// shared and local layout for every shipped program, natively and
// instrumented, against the layouts recorded at cf645d6, when the loader
// still numbered registers by name.
func TestLoadLayoutGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "layout_cf645d6.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []layoutDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := layoutDigests(t)
	if len(got) != len(want) {
		t.Fatalf("%d programs, %d recorded", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("layout moved:\n got %+v\nwant %+v", got[i], want[i])
		}
	}
}
