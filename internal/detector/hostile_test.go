package detector

import (
	"fmt"
	"strings"
	"testing"
	"time"
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

// TestRegisterBombIsLoadError: a `.reg` line asks for any number of
// registers in a dozen bytes. Loading used to format and map every
// declared name (100 s and 3 GiB for twenty million, and a launch then
// sizes its register files by the count); past the loader's bound it is an
// error that names the kernel and the count, returned before anything is
// allocated.
func TestRegisterBombIsLoadError(t *testing.T) {
	for _, decl := range []string{"%r<20000000>", "%r<2000000000>", "%r<65537>", "%r<-1>"} {
		src := strings.Replace(hostileKernel("mov.u32 %r1, 0;"), "%r<4>", decl, 1)
		start := time.Now()
		s, err := OpenPTX(src, Config{})
		if err == nil {
			s.Close()
			t.Fatalf("%s: OpenPTX accepted the declaration", decl)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%s: refused after %v, want under 100ms", decl, d)
		}
		if !strings.HasPrefix(err.Error(), "gpusim: k: ") || !strings.HasSuffix(err.Error(), " registers declared, limit 65536") {
			t.Errorf("%s: error %q does not name the kernel and the limit", decl, err)
		}
	}
	// The bound counts both files and the names only operands mention.
	src := strings.Replace(hostileKernel("mov.u32 %extra, 0;"), "%r<4>", "%r<65530>", 1)
	if s, err := OpenPTX(src, Config{}); err == nil {
		s.Close()
		t.Error("65530 + 4 + 2 declared and one operand-only register were accepted")
	}
	src = strings.Replace(hostileKernel("mov.u32 %r1, 0;"), "%r<4>", "%r<65530>", 1)
	s, err := OpenPTX(src, Config{})
	if err != nil {
		t.Fatalf("65536 registers are within the limit: %v", err)
	}
	s.Close()
}

// TestMemoryBombIsLoadError: a `.shared` or `.local` declaration sizes
// what every launch allocates per block or per lane. A size that is
// negative or overflows is a parse error; one past the loader's bound
// (256 KiB of shared memory a block, 512 KiB of local memory a thread)
// is a load error naming the kernel and the space. Before either, the
// first panicked in the launch (makeslice: len out of range) and the
// second ran the process out of memory.
func TestMemoryBombIsLoadError(t *testing.T) {
	for _, tc := range []struct{ decl, err string }{
		{".shared .align 4 .b8 sm[-16];", "ptx: line 6:26: array size -16 out of range"},
		{".shared .b64 sm[2305843009213693952];", "ptx: line 6:18: array size 2305843009213693952 out of range"},
		{".shared .align 4 .b8 sm[1099511627776];", "gpusim: k: .shared variables take more than 262144 bytes a block"},
		{".shared .b8 a[5];\n\t.shared .align 8 .b8 sm[262140];", "gpusim: k: .shared variables take more than 262144 bytes a block"},
		{".local .b8 lm[1099511627776];", "gpusim: k: .local variables take more than 524288 bytes a thread"},
		{".local .b8 lm[-64];", "ptx: line 6:16: array size -64 out of range"},
		{".local .b8 a[4];\n\t.local .align 1099511627776 .b8 lm[4];", "gpusim: k: .local variables take more than 524288 bytes a thread"},
	} {
		src := strings.Replace(hostileKernel("mov.u32 %r1, 0;"), "ld.param", tc.decl+"\n\tld.param", 1)
		s, err := OpenPTX(src, Config{})
		if err == nil {
			s.Close()
			t.Errorf("%s: OpenPTX accepted the declaration", tc.decl)
			continue
		}
		if err.Error() != tc.err {
			t.Errorf("%s: error %q, want %q", tc.decl, err, tc.err)
		}
	}
	for _, decl := range []string{".shared .b8 sm[262144];", ".local .align 16 .b8 lm[524288];"} {
		src := strings.Replace(hostileKernel("mov.u32 %r1, 0;"), "ld.param", decl+"\n\tld.param", 1)
		s, err := OpenPTX(src, Config{})
		if err != nil {
			t.Fatalf("%s is within the bound: %v", decl, err)
		}
		s.Close()
	}
}

// manyBasesKernel is one store through each of n pointers read from
// distinct parameter offsets: n memory sites of n different uniform
// bases, 60 bytes a site, so 16 MiB of PTX carries about 280 000.
func manyBasesKernel(n int) string {
	var b strings.Builder
	b.WriteString(".visible .entry k(.param .u64 p)\n{\n\t.reg .u32 %r<2>;\n\t.reg .u64 %rd<2>;\n\tmov.u32 %r1, %tid.x;\n")
	for k := range n {
		fmt.Fprintf(&b, "\tld.param.u64 %%rd1, [p+%d];\n\tst.global.u32 [%%rd1], %%r1;\n", 8*k)
	}
	b.WriteString("\tret;\n}\n")
	return b.String()
}

// TestManyBasesOpenInTime: the static pruner groups a space's memory
// sites by uniform base, and the intra-block pruner matches each access
// against the block's earlier ones by base register and offset. A module
// whose every site has an address of its own must cost them time near
// linear in the sites, not one comparison per pair of sites: the open
// lies outside a job's wall-clock budget.
func TestManyBasesOpenInTime(t *testing.T) {
	src := manyBasesKernel(40000)
	start := time.Now()
	s, err := OpenPTX(src, Config{StaticPrune: true})
	if err == nil {
		s.Close()
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("open of 40000 sites of distinct bases took %v, want under 5s", d)
	}
}
