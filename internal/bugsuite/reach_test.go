package bugsuite

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
	"barracuda/internal/kernel"
	"barracuda/internal/logging"
	"barracuda/internal/ptx"
)

// pcSink keeps the PC of every record a logged site emits. PC 0 is no
// line: the SIMT stack's branch events and the barrier releases the
// simulator records itself carry it.
type pcSink map[uint32]bool

func (s pcSink) Emit(r *logging.Record) {
	if r.PC != 0 {
		s[r.PC] = true
	}
}

// vetPrograms launches every kernel of the examples/vet corpus on four
// blocks of 32 threads: a 64 KiB buffer for each leading u64 parameter and
// 100 for each parameter after them, so a bounds check lets some threads
// through and stops the others.
func vetPrograms(t *testing.T) []*Test {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "vet", "*.ptx"))
	if err != nil || len(files) == 0 {
		t.Fatalf("examples/vet: %v (%d files)", err, len(files))
	}
	var out []*Test
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ptx.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, k := range m.Kernels {
			tc := &Test{Name: filepath.Base(f) + ":" + k.Name, PTX: string(src), Kernel: k.Name, Grid: gpusim.D1(4), Block: gpusim.D1(32)}
			for _, p := range k.Params {
				if p.Type == ptx.U64 && tc.ExtraArgs == nil {
					tc.Bufs = append(tc.Bufs, 64<<10)
				} else {
					tc.ExtraArgs = append(tc.ExtraArgs, 100)
				}
			}
			out = append(out, tc)
		}
	}
	return out
}

// TestLoggedPCsReachable: a record proves its line ran, so the CFG every
// static analysis walks (dominators, StaticPrune's dataflow, lint, repair)
// must reach the block of every line a launch logs — past an early
// `@%p ret;` too. Each program of the suite and of examples/vet is launched
// with its unpruned instrumentation, so every site that runs logs.
func TestLoggedPCsReachable(t *testing.T) {
	for _, tc := range append(append(Tests(), SubwordTests()...), vetPrograms(t)...) {
		s, err := detector.OpenPTX(tc.PTX, detector.Config{NoPrune: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		launch, err := tc.launch(s)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		pcs := pcSink{}
		if _, err := s.LaunchInto(tc.Kernel, launch, pcs); err != nil && !errors.Is(err, gpusim.ErrStepBudget) {
			t.Fatalf("%s: %v", tc.Name, err) // a hang's records up to the budget count too
		}
		s.Close()
		var k *ptx.Kernel
		for _, sk := range s.SrcMod.Kernels {
			if sk.Name == tc.Kernel {
				k = sk
			}
		}
		c, err := kernel.Build(k)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		dead := map[int]bool{}
		for _, b := range c.UnreachableBlocks() {
			dead[b] = true
		}
		reachable := map[uint32]bool{} // by line: some instruction on it is reachable
		for i, in := range c.Instrs {
			reachable[uint32(in.Line)] = reachable[uint32(in.Line)] || !dead[c.BlockOf[i]]
		}
		for pc := range pcs {
			if !reachable[pc] {
				t.Errorf("%s: line %d logged records, but the CFG reaches no instruction on it", tc.Name, pc)
			}
		}
	}
}
