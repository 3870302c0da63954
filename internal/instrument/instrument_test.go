package instrument

import (
	"strings"
	"testing"

	"barracuda/internal/ptx"
)

func instr(t *testing.T, src string, opts Options) (*Result, string) {
	t.Helper()
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Instrument(m, opts)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	text := ptx.Print(res.Module)
	// The instrumented module must still parse (round-trip validity).
	if _, err := ptx.Parse(text); err != nil {
		t.Fatalf("instrumented module does not re-parse: %v\n%s", err, text)
	}
	return res, text
}

const simpleSrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	st.global.u32 [%rd1], %r1;
	bar.sync 0;
	ld.global.u32 %r2, [%rd1];
	atom.global.add.u32 %r3, [%rd1+4], 1;
	ret;
}`

func TestBasicLoggingInsertion(t *testing.T) {
	res, text := instr(t, simpleSrc, Options{})
	if !strings.Contains(text, "_log.wr.global.sz4 [%rd1], %r1;") {
		t.Errorf("missing store log with value:\n%s", text)
	}
	if !strings.Contains(text, "_log.bar;") {
		t.Errorf("missing barrier log:\n%s", text)
	}
	if !strings.Contains(text, "_log.rd.global.sz4 [%rd1];") {
		t.Errorf("missing load log:\n%s", text)
	}
	if !strings.Contains(text, "_log.atm.global.sz4 [%rd1+4];") {
		t.Errorf("missing atomic log:\n%s", text)
	}
	s := res.Stats["k"]
	if s.Static != 7 {
		t.Errorf("static = %d, want 7", s.Static)
	}
	// st, bar, ld.global, atom are instrumented; ld.param, mov, ret not.
	if s.Instrumented != 4 {
		t.Errorf("instrumented = %d, want 4", s.Instrumented)
	}
	if s.FracInstrumented() <= 0 || s.FracInstrumented() > 1 {
		t.Errorf("fraction = %v", s.FracInstrumented())
	}
}

func TestLogKindsFollowFenceInference(t *testing.T) {
	src := `.visible .entry k(.param .u64 p)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [p];
	membar.gl;
	st.global.u32 [%rd1], 1;
	ld.global.u32 %r1, [%rd1];
	membar.cta;
	atom.global.cas.b32 %r2, [%rd1], 0, 1;
	membar.gl;
	ret;
}`
	_, text := instr(t, src, Options{})
	if !strings.Contains(text, "_log.relglb.global.sz4") {
		t.Errorf("missing global release log:\n%s", text)
	}
	if !strings.Contains(text, "_log.acqblk.global.sz4") {
		t.Errorf("missing block acquire log:\n%s", text)
	}
	// cas between fences: acquire-release at global scope.
	if !strings.Contains(text, "_log.arglb.global.sz4") {
		t.Errorf("missing ar log:\n%s", text)
	}
}

func TestPredicationTransform(t *testing.T) {
	src := `.visible .entry k(.param .u64 p)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [p];
	setp.eq.u32 %p1, %r1, 0;
	@%p1 st.global.u32 [%rd1], 1;
	ret;
}`
	_, text := instr(t, src, Options{})
	if !strings.Contains(text, "@!%p1 bra __bar_skip_1;") {
		t.Errorf("missing predication branch:\n%s", text)
	}
	if !strings.Contains(text, "__bar_skip_1:") {
		t.Errorf("missing skip label:\n%s", text)
	}
	// The store itself must be unpredicated inside the branch.
	if strings.Contains(text, "@%p1 st.global") {
		t.Errorf("store still predicated:\n%s", text)
	}
}

func TestNegatedGuardTransform(t *testing.T) {
	src := `.visible .entry k(.param .u64 p)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [p];
	setp.eq.u32 %p1, %r1, 0;
	@!%p1 st.global.u32 [%rd1], 1;
	ret;
}`
	_, text := instr(t, src, Options{})
	if !strings.Contains(text, "@%p1 bra __bar_skip_1;") {
		t.Errorf("negated guard not inverted:\n%s", text)
	}
}

func TestBranchAndConvergenceLogging(t *testing.T) {
	src := `.visible .entry k(.param .u64 p)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [p];
	setp.eq.u32 %p1, %r1, 0;
	@%p1 bra A;
	mov.u32 %r2, 1;
	bra.uni J;
A:
	mov.u32 %r2, 2;
J:
	st.global.u32 [%rd1], %r2;
	ret;
}`
	res, text := instr(t, src, Options{})
	if !strings.Contains(text, "_log.if;") {
		t.Errorf("missing branch log:\n%s", text)
	}
	if !strings.Contains(text, "_log.fi;") {
		t.Errorf("missing convergence log:\n%s", text)
	}
	s := res.Stats["k"]
	// Instrumented: the conditional bra, the convergence-point store
	// (also a memory access), so st counts once.
	if s.Instrumented < 2 {
		t.Errorf("instrumented = %d", s.Instrumented)
	}
}

func TestPruningRedundantAccesses(t *testing.T) {
	src := `.visible .entry k(.param .u64 p)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [p];
	ld.global.u32 %r1, [%rd1];
	ld.global.u32 %r2, [%rd1];
	st.global.u32 [%rd1+4], %r1;
	st.global.u32 [%rd1+4], %r2;
	ret;
}`
	res, _ := instr(t, src, Options{})
	s := res.Stats["k"]
	if s.InstrumentedNo != 4 {
		t.Errorf("unoptimized instrumented = %d, want 4", s.InstrumentedNo)
	}
	if s.Instrumented != 2 {
		t.Errorf("optimized instrumented = %d, want 2 (second ld and st pruned)", s.Instrumented)
	}
	if s.Pruned != 2 {
		t.Errorf("pruned = %d, want 2", s.Pruned)
	}
	// With NoPrune the module logs all four.
	resNo, textNo := instr(t, src, Options{NoPrune: true})
	if got := strings.Count(textNo, "_log."); got != 4 {
		t.Errorf("NoPrune module has %d logs, want 4", got)
	}
	_ = resNo
}

func TestPruneReadAfterWriteSameAddr(t *testing.T) {
	src := `.visible .entry k(.param .u64 p)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [p];
	st.global.u32 [%rd1], 1;
	ld.global.u32 %r1, [%rd1];
	ret;
}`
	res, _ := instr(t, src, Options{})
	if res.Stats["k"].Instrumented != 1 {
		t.Errorf("instrumented = %d, want 1 (read covered by write)", res.Stats["k"].Instrumented)
	}
}

func TestNoPruneAcrossRegisterRedefinition(t *testing.T) {
	src := `.visible .entry k(.param .u64 p)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [p];
	ld.global.u32 %r1, [%rd1];
	add.u64 %rd1, %rd1, 64;
	ld.global.u32 %r2, [%rd1];
	ret;
}`
	res, _ := instr(t, src, Options{})
	if res.Stats["k"].Instrumented != 2 {
		t.Errorf("instrumented = %d, want 2 (register redefined)", res.Stats["k"].Instrumented)
	}
}

func TestNoPruneAcrossBarrier(t *testing.T) {
	src := `.visible .entry k(.param .u64 p)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [p];
	st.global.u32 [%rd1], 1;
	bar.sync 0;
	st.global.u32 [%rd1], 2;
	ret;
}`
	res, _ := instr(t, src, Options{})
	// st, bar, st all instrumented: the barrier invalidates tracking.
	if res.Stats["k"].Instrumented != 3 {
		t.Errorf("instrumented = %d, want 3", res.Stats["k"].Instrumented)
	}
}

func TestNoPruneAcrossBlockBoundary(t *testing.T) {
	src := `.visible .entry k(.param .u64 p)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [p];
	ld.global.u32 %r1, [%rd1];
	setp.eq.u32 %p1, %r1, 0;
	@%p1 bra L;
L:
	ld.global.u32 %r2, [%rd1];
	ret;
}`
	res, _ := instr(t, src, Options{})
	s := res.Stats["k"]
	// Both loads logged: the second is in a different basic block.
	if s.Pruned != 0 {
		t.Errorf("pruned = %d, want 0 across blocks", s.Pruned)
	}
}

func TestGuardedAccessNeverSatisfiesPrune(t *testing.T) {
	src := `.visible .entry k(.param .u64 p)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [p];
	setp.eq.u32 %p1, %r1, 0;
	@%p1 st.global.u32 [%rd1], 1;
	st.global.u32 [%rd1], 2;
	ret;
}`
	res, _ := instr(t, src, Options{})
	// The predicated store covers only some lanes, so the second store
	// must still be logged.
	if res.Stats["k"].Pruned != 0 {
		t.Errorf("pruned = %d, want 0 (guarded access)", res.Stats["k"].Pruned)
	}
}

func TestOriginalModuleUntouched(t *testing.T) {
	m, err := ptx.Parse(simpleSrc)
	if err != nil {
		t.Fatal(err)
	}
	before := ptx.Print(m)
	if _, err := Instrument(m, Options{}); err != nil {
		t.Fatal(err)
	}
	if ptx.Print(m) != before {
		t.Error("Instrument mutated its input module")
	}
}

func TestTotalStats(t *testing.T) {
	res, _ := instr(t, simpleSrc, Options{})
	tot := res.TotalStats()
	if tot.Static != res.Stats["k"].Static {
		t.Error("TotalStats mismatch")
	}
}
