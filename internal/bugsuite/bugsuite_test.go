package bugsuite

import (
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/logging"
)

func TestSuiteHas66Programs(t *testing.T) {
	tests := Tests()
	if len(tests) != 66 {
		t.Fatalf("suite has %d programs, want 66", len(tests))
	}
	seen := map[string]bool{}
	for _, tc := range tests {
		if tc.Name == "" || tc.PTX == "" || tc.Kernel == "" {
			t.Errorf("incomplete test %+v", tc.Name)
		}
		if seen[tc.Name] {
			t.Errorf("duplicate test name %q", tc.Name)
		}
		seen[tc.Name] = true
	}
}

func TestBarracudaVerdicts(t *testing.T) {
	// BARRACUDA reports correctly on all 66 programs (§6.1).
	for _, tc := range Tests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			v, err := RunBarracuda(tc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !tc.Expect.Correct(v) {
				t.Errorf("verdict = %v, want %v (%s)", v, tc.Expect, tc.Desc)
			}
		})
	}
}

func TestBarracudaScore(t *testing.T) {
	res, err := RunSuite(Tests(), RunBarracuda)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != 66 {
		var wrong []string
		for _, tc := range Tests() {
			if !tc.Expect.Correct(res.Verdicts[tc.Name]) {
				wrong = append(wrong, tc.Name+"="+res.Verdicts[tc.Name].String())
			}
		}
		t.Fatalf("BARRACUDA correct on %d/66; wrong: %v", res.Correct, wrong)
	}
}

func TestRacecheckScore(t *testing.T) {
	res, err := RunSuite(Tests(), RunRacecheck)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("racecheck correct on %d/66", res.Correct)
	// The paper reports 19/66 for Nvidia's racecheck; the model's
	// documented limitations land it at the same count.
	if res.Correct != 19 {
		var rows []string
		for _, tc := range Tests() {
			mark := "WRONG"
			if tc.Expect.Correct(res.Verdicts[tc.Name]) {
				mark = "ok"
			}
			rows = append(rows, tc.Name+" expect="+tc.Expect.String()+" got="+res.Verdicts[tc.Name].String()+" "+mark)
		}
		t.Fatalf("racecheck correct on %d/66, want 19:\n%s", res.Correct, joinLines(rows))
	}
}

func TestRacecheckHangsOnSpinTests(t *testing.T) {
	res, err := RunSuite(Tests(), RunRacecheck)
	if err != nil {
		t.Fatal(err)
	}
	hangs := 0
	for _, v := range res.Verdicts {
		if v == VHang {
			hangs++
		}
	}
	if hangs == 0 {
		t.Error("racecheck never hung; the serialization limitation is not modeled")
	}
}

func joinLines(rows []string) string {
	out := ""
	for _, r := range rows {
		out += r + "\n"
	}
	return out
}

// recordSink keeps a copy of every record a launch emits.
type recordSink struct{ records []logging.Record }

func (s *recordSink) Emit(r *logging.Record) { s.records = append(s.records, *r) }

// TestSimulatorClassifiesLikeClassify: the simulator tags each record's
// address shape inside the loop that fills Addrs; logging.Record.Classify
// is the reference for what the tag must be. Over every record of the
// suite and the mixed-width suite — synchronization records, divergent
// half-warps, sub-word and misaligned lanes — the two agree.
func TestSimulatorClassifiesLikeClassify(t *testing.T) {
	forms := map[uint8]int{}
	for _, tc := range append(Tests(), SubwordTests()...) {
		s, err := detector.OpenPTX(tc.PTX, detector.Config{})
		if err != nil {
			t.Fatal(err)
		}
		launch, err := tc.launch(s)
		if err != nil {
			t.Fatal(err)
		}
		sink := &recordSink{}
		if _, err := s.LaunchInto(tc.Kernel, launch, sink); err != nil {
			continue // programs that hang or fault are another test's business
		}
		for i := range sink.records {
			r := &sink.records[i]
			ref := *r
			ref.Classify()
			if ref.Flags != r.Flags || ref.Base != r.Base || ref.Stride != r.Stride {
				t.Fatalf("%s record %d (%v): simulator tagged flags %#x base %#x stride %d, Classify %#x %#x %d",
					tc.Name, i, r.Op, r.Flags, r.Base, r.Stride, ref.Flags, ref.Base, ref.Stride)
			}
			if r.Op.IsMemory() {
				forms[r.Flags]++
			}
		}
	}
	if forms[0] == 0 || forms[logging.FlagCoalesced] == 0 || forms[logging.FlagStrided] == 0 {
		t.Errorf("the suite misses a wire form: %v", forms)
	}
}
