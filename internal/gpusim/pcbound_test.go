package gpusim_test

import (
	"fmt"
	"strings"
	"testing"

	"barracuda/internal/gpusim"
	"barracuda/internal/instrument"
	"barracuda/internal/logging"
	"barracuda/internal/ptx"
)

// TestLoggedLineBound: a logged instruction's line becomes its records'
// PC, so a line past logging.MaxPC is a load error — never a PC silently
// cut to fit — and the largest line that fits loads.
func TestLoggedLineBound(t *testing.T) {
	for _, line := range []int{logging.MaxPC, logging.MaxPC + 1} {
		m, err := ptx.Parse(".visible .entry k(.param .u64 out)\n{\n\t.reg .u64 %rd<2>;\n\tld.param.u64 %rd1, [out];\n\tst.global.u32 [%rd1], 1;\n\tret;\n}")
		if err != nil {
			t.Fatal(err)
		}
		res, err := instrument.Instrument(m, instrument.Options{})
		if err != nil {
			t.Fatal(err)
		}
		logged := 0
		for _, in := range res.Module.Kernels[0].Instrs() {
			if in.Op == ptx.OpLog {
				in.Line = line
				logged++
			}
		}
		if logged == 0 {
			t.Fatal("the store was not instrumented")
		}
		_, err = gpusim.NewDevice(0).LoadModule(res.Module)
		want := fmt.Sprintf("gpusim: k line %d: a logged line is past %d", line, logging.MaxPC)
		switch {
		case line <= logging.MaxPC && err != nil:
			t.Errorf("line %d: %v", line, err)
		case line > logging.MaxPC && (err == nil || !strings.HasPrefix(err.Error(), want)):
			t.Errorf("line %d: error %v, want %q", line, err, want)
		}
	}
}
