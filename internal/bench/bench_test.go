package bench

import (
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/logging"
	"barracuda/internal/ptx"
)

func TestAllBenchmarksParse(t *testing.T) {
	bs := All()
	if len(bs) != 26 {
		t.Fatalf("benchmarks = %d, want 26", len(bs))
	}
	for _, b := range bs {
		m, err := ptx.Parse(b.PTX())
		if err != nil {
			t.Errorf("%s: parse: %v", b.Name, err)
			continue
		}
		if m.StaticInstrCount() < 50 {
			t.Errorf("%s: suspiciously small kernel (%d instrs)", b.Name, m.StaticInstrCount())
		}
	}
}

func TestBenchmarkNamesUniqueAndLookup(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range All() {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if ByName(b.Name) == nil {
			t.Errorf("ByName(%q) = nil", b.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName on unknown name should be nil")
	}
}

// TestTable1Races verifies the engineered ground truth: each benchmark
// reports exactly the races Table 1 lists for it, in the right memory
// space, and clean benchmarks stay clean.
func TestTable1Races(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep in -short mode")
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, err := Detect(b, detector.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyRaces(b, res.Report); err != nil {
				t.Error(err)
			}
			if len(res.Report.Divergences) != 0 {
				t.Errorf("unexpected barrier divergences: %v", res.Report.Divergences)
			}
			// What moving the read maps out of the cell rests on: the
			// corpus never inflates one (the 66 bug-suite programs do).
			if n := res.Report.Shadow.ReadInflations; n != 0 {
				t.Errorf("%d read map(s) inflated; the side table is no longer cold on the 26 programs", n)
			}
		})
	}
}

func TestFig9FractionsSane(t *testing.T) {
	rows, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 26 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Optimized <= 0 || r.Optimized > r.Unoptimized || r.Unoptimized > 0.5 {
			// The paper: "BARRACUDA never instruments more than half of
			// the instructions among our benchmarks."
			t.Errorf("%s: optimized %.3f unoptimized %.3f out of shape",
				r.Name, r.Optimized, r.Unoptimized)
		}
	}
}

func TestFig9PruningHelpsSomewhere(t *testing.T) {
	rows, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	helped := 0
	for _, r := range rows {
		if r.Optimized < r.Unoptimized {
			helped++
		}
	}
	if helped == 0 {
		t.Error("pruning never removed a logging site")
	}
}

func TestDetectSmallBenchmarkEndToEnd(t *testing.T) {
	b := ByName("hashtable")
	res, err := Detect(b, detector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRaces(b, res.Report); err != nil {
		t.Fatal(err)
	}
	if res.SimStats.Records == 0 {
		t.Error("no records")
	}
}

func TestGenerateSpecVariants(t *testing.T) {
	specs := []Spec{
		{},
		{Arith: 10},
		{Arith: 10, Loops: 3, Private: 2},
		{SharedComm: true},
		{RacyShared: 2},
		{RacyGlobal: 2},
		{Atomics: 2, Fences: true},
		{Arith: 50, Loops: 2, Private: 2, SharedComm: true, RacyShared: 1, RacyGlobal: 1, Atomics: 1, Fences: true},
	}
	for i, s := range specs {
		if _, err := ptx.Parse(Generate(s)); err != nil {
			t.Errorf("spec %d: %v", i, err)
		}
	}
}

// recordSink keeps a copy of every record a launch emits.
type recordSink struct{ records []logging.Record }

func (s *recordSink) Emit(r *logging.Record) { s.records = append(s.records, *r) }

// TestSimulatorClassifiesLikeClassify: the simulator tags records inside
// the loop that fills Addrs; logging.Record.Classify is the reference for
// what the tag must be. Over every record the 26 benchmarks emit the two
// agree, and the census has the shape the transport is built for:
// practically every memory record is compact.
func TestSimulatorClassifiesLikeClassify(t *testing.T) {
	var memory, compact int
	for _, b := range All() {
		s, launch, err := session(b, detector.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sink := &recordSink{}
		if _, err := s.LaunchInto("main", launch, sink); err != nil {
			t.Fatal(err)
		}
		for i := range sink.records {
			r := &sink.records[i]
			if !r.Op.IsMemory() {
				continue
			}
			ref := *r
			ref.Classify()
			if ref.Flags != r.Flags || ref.Base != r.Base || ref.Stride != r.Stride {
				t.Fatalf("%s record %d: simulator tagged flags %#x base %#x stride %d, Classify %#x %#x %d",
					b.Name, i, r.Flags, r.Base, r.Stride, ref.Flags, ref.Base, ref.Stride)
			}
			memory++
			if r.Flags&(logging.FlagCoalesced|logging.FlagStrided) != 0 {
				compact++
			}
		}
	}
	if memory == 0 || compact*100 < memory*99 {
		t.Errorf("%d of %d memory records are compact, want at least 99%%", compact, memory)
	}
}
