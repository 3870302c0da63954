package detector

import (
	"testing"

	"barracuda/internal/gpusim"
)

// fuzzBudget bounds every launch of FuzzPTX, so a kernel that spins ends
// in the step-budget error.
const fuzzBudget = 1 << 14

// FuzzPTX feeds bytes through the whole open path — parse, instrument,
// load — under the default configuration and unpruned under the full
// vector-clock ablation, so hostile input also reaches the instrumenter's
// unpruned path and the ablation detector, then detects every kernel that
// opened on a 2×64 launch with a 4 KiB buffer per parameter. Every input
// must end in an error or a report: no panic, and no launch past its step
// budget. The seed corpus in testdata/fuzz/FuzzPTX (the vet examples, the
// vector-load kernel, the two hostile `.shared` declarations, three small
// benchmark programs, and truncated and garbage inputs) runs with every
// `go test`.
func FuzzPTX(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range []Config{{}, {NoPrune: true, FullVC: true}} {
			s, err := OpenPTX(string(data), cfg)
			if err != nil {
				continue
			}
			for _, k := range s.SrcMod.Kernels {
				sizes := make([]int, len(k.Params))
				for i := range sizes {
					sizes[i] = 4 << 10
				}
				args, err := s.AllocArgs(sizes)
				if err != nil {
					continue // more parameters than device memory
				}
				res, err := s.Detect(k.Name, gpusim.LaunchConfig{
					Grid: gpusim.D1(2), Block: gpusim.D1(64), Args: args, MaxWarpInstrs: fuzzBudget,
				})
				if err != nil {
					continue
				}
				if res.Report == nil {
					t.Fatalf("%s: no error and no report", k.Name)
				}
				if n := res.SimStats.WarpInstrs; n > fuzzBudget {
					t.Fatalf("%s: %d warp instructions past a budget of %d", k.Name, n, fuzzBudget)
				}
			}
			s.Close()
		}
	})
}
