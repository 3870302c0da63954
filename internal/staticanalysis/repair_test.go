package staticanalysis

import (
	"strings"
	"testing"

	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
)

func analyzeSrc(t *testing.T, src string) *Analysis {
	t.Helper()
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := kernel.Build(m.Kernels[0])
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return Analyze(c)
}

// candidateAt builds the candidate for a race between the memory accesses
// on source lines la and lb, each in the role its instruction gives it, as
// the repair loop places a reported race.
func candidateAt(t *testing.T, a *Analysis, la, lb int) Candidate {
	t.Helper()
	site := func(line int) int {
		for i, in := range a.CFG.Instrs {
			if in.Line == line && in.MemoryAccess() {
				return i
			}
		}
		t.Fatalf("no memory access on line %d", line)
		return -1
	}
	ia, ib := site(la), site(lb)
	if ia > ib {
		ia, ib = ib, ia
	}
	return Candidate{
		Kernel: a.CFG.Kernel.Name,
		A:      ia, B: ib,
		LineA: a.CFG.Instrs[ia].Line, LineB: a.CFG.Instrs[ib].Line,
		Space:  a.CFG.Instrs[ia].Space,
		WriteA: a.Class[ia].Writes(), WriteB: a.Class[ib].Writes(),
	}
}

// proposeFor analyzes src and proposes patches for the race between the
// accesses on lines la and lb.
func proposeFor(t *testing.T, src string, la, lb int) (*Analysis, Candidate, []ProposedPatch) {
	t.Helper()
	a := analyzeSrc(t, src)
	cand := candidateAt(t, a, la, lb)
	return a, cand, ProposePatches(a, cand, 4)
}

func patchKinds(ps []ProposedPatch) []PatchKind {
	var out []PatchKind
	for _, p := range ps {
		out = append(out, p.Kind)
	}
	return out
}

func TestProposeBarrierStraightLine(t *testing.T) {
	src := header + `.visible .entry k() {
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	.shared .align 4 .b8 s[256];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	mov.u64 %rd1, s;
	cvt.u64.u32 %rd2, %r2;
	add.u64 %rd3, %rd1, %rd2;
	st.shared.u32 [%rd3], %r1;
	ld.shared.u32 %r3, [%rd3+4];
	ret;
}`
	_, cand, patches := proposeFor(t, src, 13, 14)
	var barrier *ProposedPatch
	for i := range patches {
		if patches[i].Kind == PatchBarrier {
			barrier = &patches[i]
		}
	}
	if barrier == nil {
		t.Fatalf("kinds = %v, want an insert-barrier proposal", patchKinds(patches))
	}
	if len(barrier.Edits) != 1 || barrier.Edits[0].At != cand.B {
		t.Fatalf("barrier edit = %+v, want insertion before instruction %d", barrier.Edits, cand.B)
	}
}

// TestProposeBarrierHoistsOutOfDivergence: the later access sits under a
// tid-guard — a guarded bra around it, or a guarded ret before it — so the
// naive insertion point would itself diverge; the proposal must climb to
// the dominating block and land in front of the guarded instruction.
func TestProposeBarrierHoistsOutOfDivergence(t *testing.T) {
	for _, tc := range []struct {
		name, guarded, tail string
		op                  ptx.Op
	}{
		{"bra", "@%p1 bra DONE;", "DONE:\n\tret;", ptx.OpBra},
		{"ret", "@%p1 ret;", "\tret;", ptx.OpRet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := header + `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	.shared .align 4 .b8 s[256];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	mov.u64 %rd1, s;
	cvt.u64.u32 %rd2, %r2;
	add.u64 %rd3, %rd1, %rd2;
	st.shared.u32 [%rd3], %r1;
	setp.ne.u32 %p1, %r1, 0;
	` + tc.guarded + `
	ld.shared.u32 %r3, [%rd1+4];
` + tc.tail + `
}`
			a, _, patches := proposeFor(t, src, 14, 17)
			var barrier *ProposedPatch
			for i := range patches {
				if patches[i].Kind == PatchBarrier {
					barrier = &patches[i]
				}
			}
			if barrier == nil {
				t.Fatalf("kinds = %v, want an insert-barrier proposal", patchKinds(patches))
			}
			at := barrier.Edits[0].At
			// The insertion point must not be inside the divergent region:
			// it must precede the guarded instruction.
			div := divergence(a)
			if at < len(a.CFG.Instrs) && div[a.CFG.BlockOf[at]] >= 0 {
				t.Fatalf("barrier inserted at %d inside a divergent region", at)
			}
			if a.CFG.Instrs[at].Op != tc.op || a.CFG.Instrs[at].Guard == nil {
				t.Fatalf("expected insertion before the guarded %s, got %s at %d",
					tc.op, a.CFG.Instrs[at].Op, at)
			}
			// The patched module must lint clean of barrier divergence.
			m, _ := ptx.Parse(src)
			patched, err := ptx.ApplyEdits(m, barrier.Edits)
			if err != nil {
				t.Fatal(err)
			}
			diags := lintSrc(t, ptx.Print(patched))
			if n := len(byCode(diags, CodeBarrierDivergence)); n != 0 {
				t.Fatalf("patched kernel has %d barrier-divergence diagnostics", n)
			}
		})
	}
}

func TestProposeBarrierDeclinesSelfRace(t *testing.T) {
	// All threads write one uniform address: a barrier cannot order an
	// instruction against itself, and there is no RMW triple or
	// handshake — the synthesizer must produce nothing.
	src := header + `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	st.global.u32 [%rd1], %r1;
	ret;
}`
	_, _, patches := proposeFor(t, src, 9, 9)
	if len(patches) != 0 {
		t.Fatalf("kinds = %v, want no proposals for the algorithmic race", patchKinds(patches))
	}
}

func TestProposeAtomicize(t *testing.T) {
	src := header + `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	ld.global.u32 %r2, [%rd1];
	add.u32 %r3, %r2, 1;
	st.global.u32 [%rd1], %r3;
	ret;
}`
	_, _, patches := proposeFor(t, src, 10, 10)
	if len(patches) == 0 || patches[0].Kind != PatchAtomicize {
		t.Fatalf("kinds = %v, want atomicize first", patchKinds(patches))
	}
	e := patches[0].Edits[0]
	if e.Remove != 3 || len(e.Ins) != 1 {
		t.Fatalf("edit = %+v, want replace-3-with-1", e)
	}
	if got := ptx.FormatInstr(e.Ins[0]); got != "red.global.add.u32 [%rd1], 1;" {
		t.Fatalf("replacement = %q", got)
	}
}

func TestProposeAtomicizeDeclinesLiveIntermediate(t *testing.T) {
	// The loaded value is also stored elsewhere: the rewrite would
	// change semantics, so the template must not fire.
	src := header + `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	ld.global.u32 %r2, [%rd1];
	add.u32 %r3, %r2, 1;
	st.global.u32 [%rd1], %r3;
	st.global.u32 [%rd1+8], %r2;
	ret;
}`
	_, _, patches := proposeFor(t, src, 10, 10)
	for _, p := range patches {
		if p.Kind == PatchAtomicize {
			t.Fatalf("atomicize proposed despite live intermediate: %+v", p)
		}
	}
}

func TestProposeHandshakeFences(t *testing.T) {
	// Message passing with no fences: writer stores data then flag,
	// reader spins on the flag then loads data. The fence proposal must
	// patch both sides in one patch.
	src := header + `.visible .entry mp(.param .u64 data, .param .u64 flag) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [data];
	ld.param.u64 %rd2, [flag];
	mov.u32 %r1, %ctaid.x;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra READER;
	st.global.u32 [%rd1], 42;
	st.global.u32 [%rd2], 1;
	bra DONE;
READER:
WAIT:
	ld.global.u32 %r2, [%rd2];
	setp.eq.u32 %p1, %r2, 0;
	@%p1 bra WAIT;
	ld.global.u32 %r3, [%rd1];
DONE:
	ret;
}`
	// The data race (the data store against the data load), not the flag.
	_, _, patches := proposeFor(t, src, 13, 21)
	var fence *ProposedPatch
	for i := range patches {
		if patches[i].Kind == PatchFence {
			fence = &patches[i]
		}
	}
	if fence == nil {
		t.Fatalf("kinds = %v, want an insert-fence proposal", patchKinds(patches))
	}
	// One membar after the spin load, one before the flag store. The
	// data store shares no symbol with the flag and must not be patched.
	if len(fence.Edits) != 2 {
		t.Fatalf("fence edits = %+v, want exactly 2", fence.Edits)
	}
	m, _ := ptx.Parse(src)
	patched, err := ptx.ApplyEdits(m, fence.Edits)
	if err != nil {
		t.Fatal(err)
	}
	text := ptx.Print(patched)
	if !strings.Contains(text, "st.global.u32 [%rd1], 42;\n\tmembar.gl;\n\tst.global.u32 [%rd2], 1;") {
		t.Fatalf("release fence misplaced:\n%s", text)
	}
	if !strings.Contains(text, "ld.global.u32 %r2, [%rd2];\n\tmembar.gl;\n\tsetp.eq.u32") {
		t.Fatalf("acquire fence misplaced:\n%s", text)
	}
}

func TestProposeLockFences(t *testing.T) {
	src := header + `.visible .entry lock(.param .u64 lk, .param .u64 data) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [lk];
	ld.param.u64 %rd2, [data];
SPIN:
	atom.global.cas.b32 %r1, [%rd1], 0, 1;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra SPIN;
	ld.global.u32 %r2, [%rd2];
	add.u32 %r2, %r2, 1;
	st.global.u32 [%rd2], %r2;
	st.global.u32 [%rd1], 0;
	ret;
}`
	// The critical section's read against its write.
	a := analyzeSrc(t, src)
	patches := ProposePatches(a, candidateAt(t, a, 14, 16), 6)
	var lockFence *ProposedPatch
	for i := range patches {
		if patches[i].Kind == PatchFence && strings.Contains(patches[i].Note, "lock protocol") {
			lockFence = &patches[i]
		}
	}
	if lockFence == nil {
		t.Fatalf("kinds = %v, want a lock-protocol fence proposal", patchKinds(patches))
	}
	m, _ := ptx.Parse(src)
	patched, err := ptx.ApplyEdits(m, lockFence.Edits)
	if err != nil {
		t.Fatal(err)
	}
	text := ptx.Print(patched)
	if !strings.Contains(text, "atom.global.cas.b32 %r1, [%rd1], 0, 1;\n\tmembar.gl;") {
		t.Fatalf("acquire fence missing after cas:\n%s", text)
	}
	if !strings.Contains(text, "membar.gl;\n\tst.global.u32 [%rd1], 0;") {
		t.Fatalf("release fence missing before unlock:\n%s", text)
	}
	// The patched lock kernel must lint clean of missing-fence.
	if n := len(byCode(lintSrc(t, text), CodeMissingFence)); n != 0 {
		t.Fatalf("patched lock kernel still has %d missing-fence diagnostics", n)
	}
}
