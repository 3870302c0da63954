package detector

import (
	"fmt"
	"strings"
	"testing"
)

// underArity is one instruction per opcode with fewer operands than its
// handler reads (or a destination it cannot write). Before operand shapes
// were checked at load time each of these either panicked with an index
// out of range inside the interpreter or silently wrote the wrong
// register file.
var underArity = []struct{ op, instr string }{
	{"mov", "mov.u32 %r1;"},
	{"cvta", "cvta.to.global.u64 %rd2;"},
	{"ld", "ld.global.u32 %r1;"},
	{"st", "st.global.u32 [%rd1];"},
	{"setp", "setp.eq.u32 %p1, %r1;"},
	{"selp", "selp.u32 %r1, %r2, %r3;"},
	{"cvt", "cvt.u64.u32 %rd2;"},
	{"not", "not.b32 %r1;"},
	{"neg", "neg.s32 %r1;"},
	{"mad", "mad.lo.u32 %r1, %r2, %r3;"},
	{"add", "add.u32 %r1, %r2;"},
	{"sub", "sub.u32 %r1, %r2;"},
	{"mul", "mul.lo.u32 %r1, %r2;"},
	{"div", "div.u32 %r1, %r2;"},
	{"rem", "rem.u32 %r1, %r2;"},
	{"min", "min.u32 %r1, %r2;"},
	{"max", "max.u32 %r1, %r2;"},
	{"and", "and.b32 %r1, %r2;"},
	{"or", "or.b32 %r1, %r2;"},
	{"xor", "xor.b32 %r1, %r2;"},
	{"shl", "shl.b32 %r1, %r2;"},
	{"shr", "shr.u32 %r1, %r2;"},
	{"atom", "atom.global.add.u32 %r2, [%rd1];"},
	{"atom", "atom.global.cas.b32 %r2, [%rd1], 0;"},
	{"red", "red.global.add.u32 [%rd1];"},
	{"ld", "ld.global.v2.u32 {%r1, %r2};"},
	{"st", "st.global.v2.u32 [%rd1], {%r1};"},
	// Enough operands, but a destination the handler cannot write.
	{"mov", "mov.u32 ;"},
	{"setp", "setp.eq.u32 %r1, %r2, %r3;"},
	{"add", "add.u32 %p1, %r2, %r3;"},
	{"ld", "ld.global.v2.u32 {%r1, 5}, [%rd1];"},
}

// hostileKernel wraps one instruction (on source line 7) in a loadable
// kernel.
func hostileKernel(instr string) string {
	return fmt.Sprintf(`.visible .entry k(.param .u64 out)
{
	.reg .u32 %%r<4>;
	.reg .u64 %%rd<4>;
	.reg .pred %%p<2>;
	ld.param.u64 %%rd1, [out];
	%s
	ret;
}`, instr)
}

// TestUnderArityIsLoadError: malformed instructions cost an error from
// OpenPTX that names the opcode and the source line — never a panic, and
// never a session that fails later, mid-launch.
func TestUnderArityIsLoadError(t *testing.T) {
	for _, tc := range underArity {
		tc := tc
		t.Run(tc.instr, func(t *testing.T) {
			s, err := OpenPTX(hostileKernel(tc.instr), Config{})
			if err == nil {
				s.Close()
				t.Fatal("OpenPTX accepted the instruction")
			}
			for _, want := range []string{"line 7", tc.op + ":"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}
