package ptx

import (
	"strings"
	"testing"
)

const sampleKernel = `
.version 4.3
.target sm_35
.address_size 64

.visible .entry simple(.param .u64 out, .param .u32 n)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<4>;
	.shared .align 4 .b8 smem[128];

	ld.param.u64 %rd1, [out];
	ld.param.u32 %r5, [n];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mad.lo.u32 %r4, %r2, %r3, %r1;
	setp.ge.u32 %p1, %r4, %r5;
	@%p1 bra DONE;
	cvt.u64.u32 %rd2, %r4;
	shl.b64 %rd3, %rd2, 2;
	add.u64 %rd4, %rd1, %rd3;
	st.global.u32 [%rd4], %r4;
	bar.sync 0;
	membar.gl;
	atom.global.add.u32 %r6, [%rd4], 1;
DONE:
	ret;
}
`

func parseSample(t *testing.T) *Module {
	t.Helper()
	m, err := Parse(sampleKernel)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return m
}

func TestParseModuleHeader(t *testing.T) {
	m := parseSample(t)
	if m.Version != "4.3" || m.Target != "sm_35" || m.AddressSize != 64 {
		t.Errorf("header = %q %q %d", m.Version, m.Target, m.AddressSize)
	}
	if len(m.Kernels) != 1 || m.Kernels[0].Name != "simple" {
		t.Fatalf("kernels = %+v", m.Kernels)
	}
}

func TestParseKernelDecls(t *testing.T) {
	k := parseSample(t).Kernels[0]
	if len(k.Params) != 2 || k.Params[0].Name != "out" || k.Params[0].Type != U64 ||
		k.Params[1].Name != "n" || k.Params[1].Type != U32 {
		t.Errorf("params = %+v", k.Params)
	}
	if len(k.Regs) != 3 {
		t.Errorf("regs = %+v", k.Regs)
	}
	if len(k.Shared) != 1 || k.Shared[0].Size != 128 || k.Shared[0].Align != 4 {
		t.Errorf("shared = %+v", k.Shared)
	}
	if k.SharedBytes() != 128 {
		t.Errorf("SharedBytes = %d", k.SharedBytes())
	}
}

func TestParseInstrFields(t *testing.T) {
	k := parseSample(t).Kernels[0]
	ins := k.Instrs()
	find := func(op Op) *Instr {
		for _, in := range ins {
			if in.Op == op {
				return in
			}
		}
		t.Fatalf("no %v instruction", op)
		return nil
	}
	ld := ins[0]
	if ld.Op != OpLd || ld.Space != SpaceParam || ld.Type != U64 {
		t.Errorf("ld.param = %+v", ld)
	}
	st := find(OpSt)
	if st.Space != SpaceGlobal || st.Type != U32 {
		t.Errorf("st = %+v", st)
	}
	if a, ok := st.AddrOperand(); !ok || a.BaseReg != "%rd4" {
		t.Errorf("st addr = %+v ok=%v", a, ok)
	}
	atom := find(OpAtom)
	if atom.Atom != AtomAdd || atom.Space != SpaceGlobal || atom.Type != U32 || !atom.HasDst {
		t.Errorf("atom = %+v", atom)
	}
	bar := find(OpBar)
	if bar.Level != "sync" {
		t.Errorf("bar = %+v", bar)
	}
	mb := find(OpMembar)
	if mb.Level != "gl" {
		t.Errorf("membar = %+v", mb)
	}
	setp := find(OpSetp)
	if setp.Cmp != CmpGE || setp.Type != U32 {
		t.Errorf("setp = %+v", setp)
	}
	bra := find(OpBra)
	if bra.Guard == nil || bra.Guard.Reg != "%p1" || bra.Guard.Neg {
		t.Errorf("bra guard = %+v", bra.Guard)
	}
	if len(bra.Args) != 1 || bra.Args[0].Kind != OpndLabel || bra.Args[0].Sym != "DONE" {
		t.Errorf("bra target = %+v", bra.Args)
	}
	cvt := find(OpCvt)
	if cvt.Type != U64 || cvt.Src != U32 {
		t.Errorf("cvt = %+v", cvt)
	}
	mad := find(OpMad)
	if !mad.Lo || mad.Type != U32 || len(mad.Args) != 3 {
		t.Errorf("mad = %+v", mad)
	}
}

func TestParseLabels(t *testing.T) {
	k := parseSample(t).Kernels[0]
	found := false
	for _, st := range k.Body {
		if st.Label == "DONE" {
			found = true
		}
	}
	if !found {
		t.Error("label DONE not found in body")
	}
}

func TestRoundTrip(t *testing.T) {
	m := parseSample(t)
	text := Print(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse printed module: %v\n%s", err, text)
	}
	if Print(m2) != text {
		t.Errorf("print not a fixed point:\n--- first\n%s\n--- second\n%s", text, Print(m2))
	}
	if m2.StaticInstrCount() != m.StaticInstrCount() {
		t.Errorf("instr count changed: %d vs %d", m.StaticInstrCount(), m2.StaticInstrCount())
	}
}

func TestParseSpecialRegisters(t *testing.T) {
	src := `.visible .entry k() {
	.reg .u32 %r<4>;
	mov.u32 %r1, %laneid;
	mov.u32 %r2, %nctaid.x;
	mov.u32 %r3, WARP_SZ;
	ret;
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ins := m.Kernels[0].Instrs()
	if ins[0].Args[0].Sreg != SregLaneid {
		t.Errorf("laneid = %+v", ins[0].Args[0])
	}
	if ins[1].Args[0].Sreg != SregNctaidX {
		t.Errorf("nctaid.x = %+v", ins[1].Args[0])
	}
	if ins[2].Args[0].Sreg != SregWarpSize {
		t.Errorf("WARP_SZ = %+v", ins[2].Args[0])
	}
}

func TestParseAtomCas(t *testing.T) {
	src := `.visible .entry k(.param .u64 p) {
	.reg .u32 %r<4>;
	.reg .u64 %rd<2>;
	ld.param.u64 %rd1, [p];
	atom.global.cas.b32 %r1, [%rd1], 0, 1;
	atom.global.exch.b32 %r2, [%rd1], 0;
	red.global.add.u32 [%rd1+4], 1;
	ret;
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ins := m.Kernels[0].Instrs()
	cas := ins[1]
	if cas.Atom != AtomCas || len(cas.Args) != 3 {
		t.Errorf("cas = %+v", cas)
	}
	exch := ins[2]
	if exch.Atom != AtomExch {
		t.Errorf("exch = %+v", exch)
	}
	red := ins[3]
	if red.Op != OpRed || red.Atom != AtomAdd || red.HasDst {
		t.Errorf("red = %+v", red)
	}
	if a, ok := red.AddrOperand(); !ok || a.Off != 4 {
		t.Errorf("red addr = %+v", a)
	}
}

func TestParsePredicatedNegated(t *testing.T) {
	src := `.visible .entry k() {
	.reg .u32 %r<4>;
	.reg .pred %p<2>;
	setp.eq.u32 %p1, %r1, 0;
	@!%p1 mov.u32 %r2, 1;
	ret;
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	mv := m.Kernels[0].Instrs()[1]
	if mv.Guard == nil || !mv.Guard.Neg || mv.Guard.Reg != "%p1" {
		t.Errorf("guard = %+v", mv.Guard)
	}
}

func TestParseGlobalVarDecl(t *testing.T) {
	src := `.global .align 8 .b8 gdata[256];
.visible .entry k() { ret; }`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Globals) != 1 || m.Globals[0].Name != "gdata" || m.Globals[0].Size != 256 {
		t.Errorf("globals = %+v", m.Globals)
	}
}

func TestParseLogPseudo(t *testing.T) {
	src := `.visible .entry k() {
	.reg .u64 %rd<4>;
	_log.wr.global.sz4 [%rd1];
	_log.bar;
	_log.if;
	ret;
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ins := m.Kernels[0].Instrs()
	if ins[0].Op != OpLog || ins[0].LogK != LogWrite || ins[0].Space != SpaceGlobal || ins[0].AccSz != 4 {
		t.Errorf("_log.wr = %+v", ins[0])
	}
	if ins[1].LogK != LogBar || ins[2].LogK != LogIf {
		t.Errorf("_log kinds = %v %v", ins[1].LogK, ins[2].LogK)
	}
	// Round trip through printer.
	text := Print(m)
	if !strings.Contains(text, "_log.wr.global.sz4 [%rd1];") {
		t.Errorf("printed:\n%s", text)
	}
	if _, err := Parse(text); err != nil {
		t.Errorf("re-parse: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`.visible .entry k() { bogus.u32 %r1; }`,
		`.visible .entry k() { mov.u32 %r1 }`, // missing ';' before '}'
		`.visible .entry k( .param .u99 x ) { ret; }`,
		`.frobnicate 3`,
		// A type token carries its leading dot.
		`.visible .entry k( .param u64 x ) { ret; }`,
		`.visible .entry k() { .reg u32 %r<2>; ret; }`,
		`.visible .entry k() { .shared .align 4 b8 buf[16]; ret; }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	src := ".visible .entry k() {\n\tret;\n\tbogus.u32 %r1;\n}"
	_, err := Parse(src)
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if perr.Line != 3 {
		t.Errorf("error line = %d, want 3; err=%v", perr.Line, perr)
	}
}

func TestParseHexAndFloatLiterals(t *testing.T) {
	src := `.visible .entry k() {
	.reg .u32 %r<4>;
	.reg .f32 %f<4>;
	mov.u32 %r1, 0xff;
	mov.f32 %f1, 0f3F800000;
	mov.f32 %f2, 2.5;
	mov.u32 %r2, -7;
	ret;
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ins := m.Kernels[0].Instrs()
	if ins[0].Args[0].Imm != 255 {
		t.Errorf("hex literal = %d", ins[0].Args[0].Imm)
	}
	if ins[1].Args[0].F != 1.0 {
		t.Errorf("0f literal = %g", ins[1].Args[0].F)
	}
	if ins[2].Args[0].F != 2.5 {
		t.Errorf("float literal = %g", ins[2].Args[0].F)
	}
	if ins[3].Args[0].Imm != -7 {
		t.Errorf("negative literal = %d", ins[3].Args[0].Imm)
	}
}

func TestMemoryAccessClassification(t *testing.T) {
	k := parseSample(t).Kernels[0]
	var n int
	for _, in := range k.Instrs() {
		if in.MemoryAccess() {
			n++
		}
	}
	// st.global + atom.global (param loads are not instrumented).
	if n != 2 {
		t.Errorf("MemoryAccess count = %d, want 2", n)
	}
}

func TestStaticInstrCount(t *testing.T) {
	m := parseSample(t)
	if got := m.StaticInstrCount(); got != 16 {
		t.Errorf("StaticInstrCount = %d, want 16", got)
	}
}

func TestTypeProperties(t *testing.T) {
	if U32.Size() != 4 || F64.Size() != 8 || U8.Size() != 1 || Pred.Size() != 0 {
		t.Error("type sizes wrong")
	}
	if !S32.Signed() || U32.Signed() {
		t.Error("signedness wrong")
	}
	if !F32.Float() || B32.Float() {
		t.Error("floatness wrong")
	}
}

func TestCommentsSkipped(t *testing.T) {
	src := `// leading comment
/* block
   comment */
.visible .entry k() {
	ret; // trailing
}`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}
