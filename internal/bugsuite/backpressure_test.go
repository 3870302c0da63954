package bugsuite

import (
	"fmt"
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/logging"
)

// TestBackpressureEquivalence: the ring's size decides when the producer
// blocks, never what is reported. Every program of the suite and of the
// mixed-width suite, under the default configuration and under the three
// fast paths together, must report the same at QueueCap 1 (a two-record
// ring that is full most of the time), 64 and 4096: with one queue the
// exact outcome — for the default configuration the one recorded at
// a5d8c21 — and with four the canonical digest of the one-queue run, as
// far as it is provable across queues (provableDigest).
func TestBackpressureEquivalence(t *testing.T) {
	golden := granuleGolden(t, "granule_a5d8c21.json")
	for k, v := range granuleGolden(t, "granule_subword_a5d8c21.json") {
		golden[k] = v
	}
	fast := detector.Config{Ownership: true, ProducerFilter: true, StaticPrune: true}
	for _, tc := range append(Tests(), SubwordTests()...) {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, base := range []detector.Config{{}, fast} {
				want, ok := golden[tc.Name+"/1"]
				if base != (detector.Config{}) {
					var err error
					if want, err = granuleOutcome(tc, base); err != nil {
						t.Fatal(err)
					}
				} else if !ok {
					t.Fatal("no golden entry")
				}
				wantDigest, err := digestFor(tc, base)
				if err != nil {
					t.Fatal(err)
				}
				for _, qc := range []int{1, 64, 4096} {
					cfg := base
					cfg.QueueCap = qc
					if got, err := granuleOutcome(tc, cfg); err != nil || got != want {
						t.Errorf("%s: outcome moved with the ring size (err %v):\n--- want ---\n%s--- got ---\n%s",
							cfgName(cfg), err, want, got)
					}
					cfg.Queues = 4
					if got, err := digestFor(tc, cfg); err != nil || provableDigest(got, 4) != provableDigest(wantDigest, 4) {
						t.Errorf("%s: digest moved with the ring size (err %v):\n--- want ---\n%s--- got ---\n%s",
							cfgName(cfg), err, wantDigest, got)
					}
				}
			}
		})
	}
}

func cfgName(c detector.Config) string {
	return fmt.Sprintf("queues=%d queue_cap=%d fastpaths=%v", max(c.Queues, 1), c.QueueCap, c.Ownership)
}

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
		cp, err := s.Capture(tc.Kernel, launch)
		if err != nil {
			continue // programs that hang or fault are another test's business
		}
		for i := range cp.Records {
			r := &cp.Records[i]
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
