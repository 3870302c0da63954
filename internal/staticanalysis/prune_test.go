package staticanalysis

import (
	"testing"

	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	return Analyze(buildCFG(t, src))
}

// findOps returns the indices of instructions with the given op, in order.
func findOps(a *Analysis, op ptx.Op) []int {
	var out []int
	for i, in := range a.CFG.Instrs {
		if in.Op == op {
			out = append(out, i)
		}
	}
	return out
}

// TestPrivateGtidStrided: disjoint per-thread slots are dropped entirely.
func TestPrivateGtidStrided(t *testing.T) {
	a := analyze(t, `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mad.lo.u32 %r4, %r2, %r3, %r1;
	mul.lo.u32 %r5, %r4, 16;
	cvt.u64.u32 %rd2, %r5;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r4;
	st.global.u32 [%rd3+8], %r4;
	ld.global.u32 %r6, [%rd3+12];
	ret;
}`)
	if a.Prune.Private != 3 {
		t.Errorf("private = %d, want 3 (slots of 16 bytes, offsets 0/8/12)", a.Prune.Private)
	}
	for _, i := range findOps(a, ptx.OpSt) {
		if a.Prune.Reason[i] != PrunePrivate {
			t.Errorf("store %d not dropped: %v", i, a.Prune.Reason[i])
		}
	}
}

// TestPrivateOffsetOverflow: an access crossing its thread's slot must
// stay instrumented.
func TestPrivateOffsetOverflow(t *testing.T) {
	a := analyze(t, `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mad.lo.u32 %r4, %r2, %r3, %r1;
	mul.lo.u32 %r5, %r4, 8;
	cvt.u64.u32 %rd2, %r5;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3+8], %r4;
	ret;
}`)
	if a.Prune.Private != 0 {
		t.Errorf("private = %d, want 0: offset 8 + 4 bytes exceeds the 8-byte stride", a.Prune.Private)
	}
}

// TestPrivateBlockedByUniformSite: a uniform-address access to the same
// parameter blocks dropping the strided ones.
func TestPrivateBlockedByUniformSite(t *testing.T) {
	a := analyze(t, `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mad.lo.u32 %r4, %r2, %r3, %r1;
	mul.lo.u32 %r5, %r4, 4;
	cvt.u64.u32 %rd2, %r5;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r4;
	st.global.u32 [%rd1], %r4;
	ret;
}`)
	if a.Prune.Private != 0 {
		t.Errorf("private = %d, want 0: uniform store into the same array may collide", a.Prune.Private)
	}
}

// TestPrivateBlockedByUnknownSite: a non-affine address anywhere in the
// space blocks the whole space.
func TestPrivateBlockedByUnknownSite(t *testing.T) {
	a := analyze(t, `.visible .entry k(.param .u64 out, .param .u64 idx) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	ld.param.u64 %rd4, [idx];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mad.lo.u32 %r4, %r2, %r3, %r1;
	mul.lo.u32 %r5, %r4, 4;
	cvt.u64.u32 %rd2, %r5;
	add.u64 %rd3, %rd1, %rd2;
	ld.global.u64 %rd5, [%rd4];
	st.global.u32 [%rd5], %r4;
	st.global.u32 [%rd3], %r4;
	ret;
}`)
	if a.Prune.Private != 0 {
		t.Errorf("private = %d, want 0: pointer-chased store aliases anything", a.Prune.Private)
	}
}

// TestPrivateSharedStrided: tid-strided shared accesses drop; the
// separate uniform-base array does not interfere (different symbol).
func TestPrivateSharedStrided(t *testing.T) {
	a := analyze(t, `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.shared .align 4 .b8 smem[512];
	mov.u32 %r1, %tid.x;
	mul.lo.u32 %r2, %r1, 8;
	cvt.u64.u32 %rd2, %r2;
	mov.u64 %rd1, smem;
	add.u64 %rd3, %rd1, %rd2;
	st.shared.u32 [%rd3], %r1;
	st.shared.u32 [%rd3+4], %r1;
	ret;
}`)
	if a.Prune.Private != 2 {
		t.Errorf("private = %d, want 2 (8-byte slots per tid)", a.Prune.Private)
	}
}

// TestPrivateSharedNeighborBlocked: a cross-thread (tid+1) shared read in
// the same array blocks the whole symbol.
func TestPrivateSharedNeighborBlocked(t *testing.T) {
	a := analyze(t, `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.shared .align 4 .b8 smem[512];
	mov.u32 %r1, %tid.x;
	mul.lo.u32 %r2, %r1, 4;
	cvt.u64.u32 %rd2, %r2;
	mov.u64 %rd1, smem;
	add.u64 %rd3, %rd1, %rd2;
	st.shared.u32 [%rd3], %r1;
	ld.shared.u32 %r3, [%rd3+4];
	ret;
}`)
	if a.Prune.Private != 0 {
		t.Errorf("private = %d, want 0: the +4 read touches the neighbor slot", a.Prune.Private)
	}
}

// TestRedundantAcrossDiamond: an access covered on both arms is
// redundant at the join; coverage by only one arm is not enough.
func TestRedundantAcrossDiamond(t *testing.T) {
	a := analyze(t, `.visible .entry k(.param .u64 p, .param .u64 q) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [p];
	ld.param.u64 %rd2, [q];
	mov.u32 %r1, %tid.x;
	setp.eq.u32 %p1, %r1, 0;
	ld.global.u32 %r2, [%rd1];
	@%p1 bra THEN;
	ld.global.u32 %r3, [%rd2];
	bra.uni JOIN;
THEN:
	mov.u32 %r4, 1;
JOIN:
	ld.global.u32 %r5, [%rd1];
	ld.global.u32 %r6, [%rd2];
	ret;
}`)
	lds := findOps(a, ptx.OpLd)
	// lds: [p-param, q-param, rd1 pre-branch, rd2 one-arm, rd1 join, rd2 join]
	preRd1, joinRd1, joinRd2 := lds[2], lds[4], lds[5]
	if a.Prune.Reason[preRd1] != PruneNone {
		t.Error("first rd1 load must stay instrumented")
	}
	if a.Prune.Reason[joinRd1] != PruneRedundant {
		t.Errorf("rd1 load at join = %v, want redundant (covered on every path)", a.Prune.Reason[joinRd1])
	}
	if a.Prune.Reason[joinRd2] != PruneNone {
		t.Errorf("rd2 load at join = %v, want kept (covered on one arm only)", a.Prune.Reason[joinRd2])
	}
}

// TestRedundantKilledByBarrier: synchronization between the covering and
// covered access defeats pruning.
func TestRedundantKilledByBarrier(t *testing.T) {
	a := analyze(t, `.visible .entry k(.param .u64 p) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [p];
	ld.global.u32 %r2, [%rd1];
	bar.sync 0;
	ld.global.u32 %r3, [%rd1];
	ret;
}`)
	for _, i := range findOps(a, ptx.OpLd) {
		if a.Prune.Reason[i] == PruneRedundant {
			t.Errorf("load %d marked redundant across a barrier", i)
		}
	}
}

// TestRedundantKilledByLoopRedef: a base register redefined in a loop
// body must not carry coverage around the back edge.
func TestRedundantKilledByLoopRedef(t *testing.T) {
	a := analyze(t, `.visible .entry k(.param .u64 p) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [p];
LOOP:
	ld.global.u32 %r2, [%rd1];
	add.u64 %rd1, %rd1, 4;
	add.u32 %r3, %r3, 1;
	setp.lt.u32 %p1, %r3, 10;
	@%p1 bra LOOP;
	ret;
}`)
	for _, i := range findOps(a, ptx.OpLd) {
		if a.CFG.Instrs[i].Space != ptx.SpaceGlobal {
			continue
		}
		if a.Prune.Reason[i] == PruneRedundant {
			t.Error("loop load through a redefined base must stay instrumented")
		}
	}
}

// TestRedundantWriteCoversRead: a logged write covers a later read of
// the same address, but not the other way round.
func TestRedundantWriteCoversRead(t *testing.T) {
	a := analyze(t, `.visible .entry k(.param .u64 p) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [p];
	ld.global.u32 %r2, [%rd1+4];
	st.global.u32 [%rd1+4], %r2;
	ld.global.u32 %r3, [%rd1+4];
	ret;
}`)
	class := a.Class
	var st, lastLd int
	for i, in := range a.CFG.Instrs {
		if in.Op == ptx.OpSt && class[i] == trace.OpWrite {
			st = i
		}
		if in.Op == ptx.OpLd && in.Space == ptx.SpaceGlobal {
			lastLd = i
		}
	}
	if a.Prune.Reason[st] != PruneNone {
		t.Error("write after read must stay: a read does not cover a write")
	}
	if a.Prune.Reason[lastLd] != PruneRedundant {
		t.Error("read after write to the same address must be redundant")
	}
}

// TestPrivateSitesGenerateNoCoverage: a thread-private (dropped) store
// must not make a later same-address access "redundant" — the covering
// log never happens.
func TestPrivateSitesGenerateNoCoverage(t *testing.T) {
	a := analyze(t, `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mad.lo.u32 %r4, %r2, %r3, %r1;
	mul.lo.u32 %r5, %r4, 8;
	cvt.u64.u32 %rd2, %r5;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r4;
	st.global.u32 [%rd3], %r4;
	ret;
}`)
	for _, i := range findOps(a, ptx.OpSt) {
		if a.Prune.Reason[i] == PruneRedundant {
			t.Error("dropped private site must not provide coverage")
		}
		if a.Prune.Reason[i] != PrunePrivate {
			t.Errorf("site %d: want private, got %v", i, a.Prune.Reason[i])
		}
	}
}

// TestBlockRedundantVectorLoadRedefines: a vector load writes every
// register of its brace group, so an address tracked through any of them
// is dropped — here %rd3, the second destination of the ld.v2, which the
// rule that counted only the first destination missed. The read after it
// repeats nothing; the one after that repeats it.
func TestBlockRedundantVectorLoadRedefines(t *testing.T) {
	c := buildCFG(t, `.visible .entry k(.param .u64 p)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd2, [p];
	mov.u64 %rd3, %rd2;
	ld.global.u32 %r2, [%rd3];
	ld.global.v2.u64 {%rd4, %rd3}, [%rd2];
	ld.global.u32 %r3, [%rd3];
	ld.global.u32 %r4, [%rd3];
	ret;
}`)
	covered := BlockRedundant(c, trace.Classify(c))
	for i, want := range []bool{false, false, false, false, false, true, false} {
		if covered[i] != want {
			t.Errorf("instruction %d (%s): covered = %v, want %v", i, ptx.FormatInstr(c.Instrs[i]), covered[i], want)
		}
	}
}
