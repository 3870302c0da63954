package trace

import (
	"testing"

	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
)

func classify(t *testing.T, body string) ([]OpKind, *kernel.CFG) {
	t.Helper()
	src := `.visible .entry k(.param .u64 p) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<4>;
` + body + `
	ret;
}`
	k, err := ptx.ParseKernel(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := kernel.Build(k)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return Classify(c), c
}

// kindAt returns the classification of the instruction with the given
// opcode occurrence (0-based) in the stream.
func kindAt(c *kernel.CFG, m []OpKind, op ptx.Op, occurrence int) OpKind {
	n := 0
	for i, in := range c.Instrs {
		if in.Op == op {
			if n == occurrence {
				return m[i]
			}
			n++
		}
	}
	return OpNone
}

func TestPlainLoadStore(t *testing.T) {
	m, c := classify(t, `
	ld.param.u64 %rd1, [p];
	ld.global.u32 %r1, [%rd1];
	st.global.u32 [%rd1], %r1;
	st.shared.u32 [%rd1], %r1;`)
	if k := kindAt(c, m, ptx.OpLd, 1); k != OpRead {
		t.Errorf("global load = %v, want rd", k)
	}
	if k := kindAt(c, m, ptx.OpSt, 0); k != OpWrite {
		t.Errorf("global store = %v, want wr", k)
	}
	if k := kindAt(c, m, ptx.OpSt, 1); k != OpWrite {
		t.Errorf("shared store = %v, want wr", k)
	}
	// ld.param is not a tracked memory access.
	if k := kindAt(c, m, ptx.OpLd, 0); k != OpNone {
		t.Errorf("param load = %v, want none", k)
	}
}

func TestReleaseStore(t *testing.T) {
	m, c := classify(t, `
	ld.param.u64 %rd1, [p];
	membar.cta;
	st.global.u32 [%rd1], 1;
	membar.gl;
	st.global.u32 [%rd1+4], 1;`)
	if k := kindAt(c, m, ptx.OpSt, 0); k != OpRelBlk {
		t.Errorf("cta-fenced store = %v, want relBlk", k)
	}
	if k := kindAt(c, m, ptx.OpSt, 1); k != OpRelGlb {
		t.Errorf("gl-fenced store = %v, want relGlb", k)
	}
}

func TestAcquireLoad(t *testing.T) {
	m, c := classify(t, `
	ld.param.u64 %rd1, [p];
	ld.global.u32 %r1, [%rd1];
	membar.gl;
	ld.global.cg.u32 %r2, [%rd1];
	membar.cta;`)
	if k := kindAt(c, m, ptx.OpLd, 1); k != OpAcqGlb {
		t.Errorf("gl-fenced load = %v, want acqGlb", k)
	}
	if k := kindAt(c, m, ptx.OpLd, 2); k != OpAcqBlk {
		t.Errorf("cta-fenced load = %v, want acqBlk", k)
	}
}

func TestSysFenceIsGlobal(t *testing.T) {
	m, c := classify(t, `
	ld.param.u64 %rd1, [p];
	membar.sys;
	st.global.u32 [%rd1], 1;`)
	if k := kindAt(c, m, ptx.OpSt, 0); k != OpRelGlb {
		t.Errorf("sys-fenced store = %v, want relGlb", k)
	}
}

func TestCasLockAcquire(t *testing.T) {
	m, c := classify(t, `
	ld.param.u64 %rd1, [p];
	atom.global.cas.b32 %r1, [%rd1], 0, 1;
	membar.gl;`)
	if k := kindAt(c, m, ptx.OpAtom, 0); k != OpAcqGlb {
		t.Errorf("cas+fence = %v, want acqGlb", k)
	}
}

func TestExchLockRelease(t *testing.T) {
	m, c := classify(t, `
	ld.param.u64 %rd1, [p];
	membar.cta;
	atom.global.exch.b32 %r1, [%rd1], 0;`)
	if k := kindAt(c, m, ptx.OpAtom, 0); k != OpRelBlk {
		t.Errorf("fence+exch = %v, want relBlk", k)
	}
}

func TestSandwichedAtomic(t *testing.T) {
	m, c := classify(t, `
	ld.param.u64 %rd1, [p];
	membar.cta;
	atom.global.add.u32 %r1, [%rd1], 1;
	membar.gl;`)
	if k := kindAt(c, m, ptx.OpAtom, 0); k != OpArGlb {
		t.Errorf("sandwiched atom = %v, want arGlb (either fence global)", k)
	}
}

func TestSandwichedAtomicBlockScope(t *testing.T) {
	m, c := classify(t, `
	ld.param.u64 %rd1, [p];
	membar.cta;
	atom.global.add.u32 %r1, [%rd1], 1;
	membar.cta;`)
	if k := kindAt(c, m, ptx.OpAtom, 0); k != OpArBlk {
		t.Errorf("cta-sandwiched atom = %v, want arBlk", k)
	}
}

func TestStandaloneAtomic(t *testing.T) {
	m, c := classify(t, `
	ld.param.u64 %rd1, [p];
	atom.global.add.u32 %r1, [%rd1], 1;
	atom.shared.exch.b32 %r2, [%rd1], 0;
	red.global.add.u32 [%rd1], 1;`)
	for occ := 0; occ < 2; occ++ {
		if k := kindAt(c, m, ptx.OpAtom, occ); k != OpAtom {
			t.Errorf("atom occurrence %d = %v, want atm", occ, k)
		}
	}
	if k := kindAt(c, m, ptx.OpRed, 0); k != OpAtom {
		t.Errorf("red = %v, want atm", k)
	}
}

func TestCasWithoutFenceIsPlainAtom(t *testing.T) {
	// The hashtable bug (§6.3): atomicCAS without a fence does NOT
	// synchronize.
	m, c := classify(t, `
	ld.param.u64 %rd1, [p];
	atom.global.cas.b32 %r1, [%rd1], 0, 1;`)
	if k := kindAt(c, m, ptx.OpAtom, 0); k != OpAtom {
		t.Errorf("unfenced cas = %v, want atm", k)
	}
}

func TestFenceAcrossBlockBoundaryNotBundled(t *testing.T) {
	// The fence is in a different basic block from the store (a label
	// target intervenes), so no release is inferred.
	m, c := classify(t, `
	ld.param.u64 %rd1, [p];
	membar.cta;
	bra.uni L;
L:
	st.global.u32 [%rd1], 1;`)
	if k := kindAt(c, m, ptx.OpSt, 0); k != OpWrite {
		t.Errorf("store after block boundary = %v, want wr", k)
	}
}

func TestBarrierClassified(t *testing.T) {
	m, c := classify(t, `
	bar.sync 0;`)
	if k := kindAt(c, m, ptx.OpBar, 0); k != OpBar {
		t.Errorf("bar = %v, want bar", k)
	}
}

func TestOpKindPredicates(t *testing.T) {
	if !OpAcqBlk.IsAcquire() || OpAcqBlk.IsRelease() || OpAcqBlk.GlobalScope() {
		t.Error("OpAcqBlk predicates wrong")
	}
	if !OpRelGlb.IsRelease() || OpRelGlb.IsAcquire() || !OpRelGlb.GlobalScope() {
		t.Error("OpRelGlb predicates wrong")
	}
	if !OpArGlb.IsAcquire() || !OpArGlb.IsRelease() || !OpArGlb.GlobalScope() {
		t.Error("OpArGlb predicates wrong")
	}
	if !OpWrite.Writes() || OpRead.Writes() || !OpAtom.Writes() {
		t.Error("Writes() wrong")
	}
	if !OpRelBlk.Writes() || OpAcqBlk.Writes() {
		t.Error("sync Writes() wrong: releases write, acquires read")
	}
	if !OpRead.IsMemory() || OpBar.IsMemory() || OpIf.IsMemory() {
		t.Error("IsMemory() wrong")
	}
}

func TestLogKindRoundTrip(t *testing.T) {
	kinds := []OpKind{
		OpRead, OpWrite, OpAtom, OpAcqBlk, OpRelBlk, OpArBlk,
		OpAcqGlb, OpRelGlb, OpArGlb, OpBar, OpIf, OpElse, OpFi,
	}
	for _, k := range kinds {
		lk := k.LogKind()
		if lk == ptx.LogNone {
			t.Errorf("%v has no log kind", k)
			continue
		}
		if back := FromLogKind(lk); back != k {
			t.Errorf("round trip %v -> %v -> %v", k, lk, back)
		}
	}
}
