package bench

import (
	"fmt"
	"testing"

	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/logging"
)

// TestBackpressureBenchmarkEquivalence: the ring's size decides when the
// producer blocks, never what is reported. The 26 benchmarks — whose
// hundred-thousand-record streams keep a small ring full for the whole
// run — must report the same at QueueCap 1, 64 and 4096, under the
// default configuration and under the three fast paths together: with one
// queue the exact outcome, with four the one-queue digest.
func TestBackpressureBenchmarkEquivalence(t *testing.T) {
	// run detects b under cfg and renders the exact outcome (as
	// granuleOutcome does) and the canonical digest of the one run.
	run := func(b *Benchmark, cfg detector.Config) (outcome, digest string, tr logging.Counters) {
		t.Helper()
		s, launch, err := session(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		outcome = "discovered:\n"
		res, err := s.DetectObserved("main", launch, func(rc core.Race) {
			outcome += rc.ExactText() + "\n"
		})
		if err != nil {
			t.Fatal(err)
		}
		return outcome + "report:\n" + res.Report.ExactText(), res.Report.CanonicalDigest(), res.Transport
	}
	fast := detector.Config{Ownership: true, ProducerFilter: true, StaticPrune: true}
	caps := []int{1, 64, 4096}
	if testing.Short() {
		caps = []int{1}
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, base := range []detector.Config{{}, fast} {
				want, wantDigest, _ := run(b, base)
				for _, qc := range caps {
					cfg := base
					cfg.QueueCap = qc
					name := fmt.Sprintf("queue_cap=%d fastpaths=%v", qc, cfg.Ownership)
					if qc != 4096 { // one queue of 4096 is the reference run itself
						if got, _, _ := run(b, cfg); got != want {
							t.Errorf("%s: outcome moved with the ring size:\n--- want ---\n%s--- got ---\n%s", name, want, got)
						}
					}
					cfg.Queues = 4
					_, got, tr := run(b, cfg)
					if got != wantDigest {
						t.Errorf("%s queues=4: digest moved with the ring size:\n--- want ---\n%s--- got ---\n%s", name, wantDigest, got)
					}
					if qc == 1 && tr.Records > 1000 && tr.FullWaits == 0 {
						t.Errorf("%s: %d records through two-record rings without one full-ring wait", name, tr.Records)
					}
				}
			}
		})
	}
}

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
		cp, err := s.Capture("main", launch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cp.Records {
			r := &cp.Records[i]
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
