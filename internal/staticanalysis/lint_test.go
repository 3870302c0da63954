package staticanalysis

import (
	"strings"
	"testing"

	"barracuda/internal/ptx"
)

func lintSrc(t *testing.T, src string) []Diagnostic {
	t.Helper()
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	diags, err := LintModule(m)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	return diags
}

func byCode(diags []Diagnostic, code string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

const header = ".version 4.3\n.target sm_35\n.address_size 64\n"

// TestLintBarrierDivergence: a bar.sync inside a tid-guarded region is an
// error, with the position of the barrier itself.
func TestLintBarrierDivergence(t *testing.T) {
	src := header + `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .pred %p<2>;
	.shared .align 4 .b8 smem[128];
	mov.u32 %r1, %tid.x;
	setp.lt.u32 %p1, %r1, 16;
	@!%p1 bra SKIP;
	bar.sync 0;
SKIP:
	ret;
}`
	diags := byCode(lintSrc(t, src), CodeBarrierDivergence)
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want exactly one barrier-divergence", diags)
	}
	d := diags[0]
	if d.Severity != SevError {
		t.Errorf("severity = %v, want error", d.Severity)
	}
	// The bar.sync sits on line 11 of the assembled source (header is 3
	// lines, `.visible` is line 4), column 2 (after one tab).
	if d.Line != 11 || d.Col != 2 {
		t.Errorf("position = %d:%d, want 11:2", d.Line, d.Col)
	}
}

// TestLintBarrierAfterGuardedRet: threads that leave by a tid-guarded
// ret never reach the barrier after it, whose region runs to the exit.
func TestLintBarrierAfterGuardedRet(t *testing.T) {
	src := header + `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .pred %p<2>;
	mov.u32 %r1, %tid.x;
	setp.ge.u32 %p1, %r1, 16;
	@%p1 ret;
	bar.sync 0;
	ret;
}`
	diags := lintSrc(t, src)
	if len(diags) != 1 || diags[0].Code != CodeBarrierDivergence || diags[0].Line != 10 {
		t.Fatalf("diagnostics = %v, want one barrier-divergence at line 10", diags)
	}
}

// TestLintBarrierAtReconvergenceClean: a barrier at the reconvergence
// point is executed by every thread — no diagnostic.
func TestLintBarrierAtReconvergenceClean(t *testing.T) {
	src := header + `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .pred %p<2>;
	mov.u32 %r1, %tid.x;
	setp.lt.u32 %p1, %r1, 16;
	@!%p1 bra SKIP;
	add.u32 %r2, %r1, 1;
SKIP:
	bar.sync 0;
	ret;
}`
	if diags := byCode(lintSrc(t, src), CodeBarrierDivergence); len(diags) != 0 {
		t.Errorf("reconvergence-point barrier flagged: %v", diags)
	}
}

// TestLintBarrierUniformGuardClean: a guard derived only from parameters
// is uniform across the block — no divergence.
func TestLintBarrierUniformGuardClean(t *testing.T) {
	src := header + `.visible .entry k(.param .u32 n) {
	.reg .u32 %r<8>;
	.reg .pred %p<2>;
	ld.param.u32 %r1, [n];
	setp.lt.u32 %p1, %r1, 16;
	@!%p1 bra SKIP;
	bar.sync 0;
SKIP:
	ret;
}`
	if diags := byCode(lintSrc(t, src), CodeBarrierDivergence); len(diags) != 0 {
		t.Errorf("uniform-guard barrier flagged: %v", diags)
	}
}

// TestLintUnreachable: dead code after an unconditional branch.
func TestLintUnreachable(t *testing.T) {
	src := header + `.visible .entry k() {
	.reg .u32 %r<4>;
	mov.u32 %r1, 1;
	bra.uni DONE;
	add.u32 %r2, %r1, 1;
DONE:
	ret;
}`
	diags := byCode(lintSrc(t, src), CodeUnreachable)
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want one unreachable-code", diags)
	}
	if diags[0].Line != 8 {
		t.Errorf("line = %d, want 8 (the dead add)", diags[0].Line)
	}
}

// TestLintMissingFenceSpin: cas spin-acquire without a trailing fence.
func TestLintMissingFenceSpin(t *testing.T) {
	src := header + `.visible .entry k(.param .u64 lock) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [lock];
SPIN:
	atom.global.cas.b32 %r1, [%rd1], 0, 1;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra SPIN;
	ret;
}`
	diags := byCode(lintSrc(t, src), CodeMissingFence)
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want one missing-fence", diags)
	}
	if !strings.Contains(diags[0].Message, "spin-lock acquire") {
		t.Errorf("message = %q", diags[0].Message)
	}
}

// TestLintFencedSpinClean: the same loop with a trailing membar is the
// correct acquire idiom — silent.
func TestLintFencedSpinClean(t *testing.T) {
	src := header + `.visible .entry k(.param .u64 lock) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [lock];
SPIN:
	atom.global.cas.b32 %r1, [%rd1], 0, 1;
	membar.gl;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra SPIN;
	ret;
}`
	if diags := byCode(lintSrc(t, src), CodeMissingFence); len(diags) != 0 {
		t.Errorf("fenced spin flagged: %v", diags)
	}
}

// TestLintMissingFenceUnlock: a plain store of 0 to the lock word.
func TestLintMissingFenceUnlock(t *testing.T) {
	src := header + `.visible .entry k(.param .u64 lock) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [lock];
	atom.global.exch.b32 %r1, [%rd1], 1;
	st.global.u32 [%rd1], 0;
	ret;
}`
	diags := byCode(lintSrc(t, src), CodeMissingFence)
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want one missing-fence (plain unlock)", diags)
	}
	if !strings.Contains(diags[0].Message, "releases a lock") {
		t.Errorf("message = %q", diags[0].Message)
	}
}

// TestLintUnsyncedShared: reading another thread's shared slot with no
// barrier in between.
func TestLintUnsyncedShared(t *testing.T) {
	src := header + `.visible .entry k() {
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
}`
	diags := byCode(lintSrc(t, src), CodeUnsyncedShared)
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want one unsynced-shared", diags)
	}
}

// TestLintSyncedSharedClean: the same pattern with a barrier between the
// write and the neighbor read is fine.
func TestLintSyncedSharedClean(t *testing.T) {
	src := header + `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.shared .align 4 .b8 smem[512];
	mov.u32 %r1, %tid.x;
	mul.lo.u32 %r2, %r1, 4;
	cvt.u64.u32 %rd2, %r2;
	mov.u64 %rd1, smem;
	add.u64 %rd3, %rd1, %rd2;
	st.shared.u32 [%rd3], %r1;
	bar.sync 0;
	ld.shared.u32 %r3, [%rd3+4];
	ret;
}`
	if diags := byCode(lintSrc(t, src), CodeUnsyncedShared); len(diags) != 0 {
		t.Errorf("synced shared read flagged: %v", diags)
	}
}

// TestLintUnsyncedSharedPerSitePrivacy: a strided-in-slot shared read is
// thread-private even when an *unknown-address shared read* elsewhere
// blocks the pruner's whole shared space. The old behavior flagged both
// reads; only the unknown one is a real finding.
func TestLintUnsyncedSharedPerSitePrivacy(t *testing.T) {
	src := header + `.visible .entry k(.param .u64 p) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.shared .align 4 .b8 s[256];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	mov.u64 %rd1, s;
	cvt.u64.u32 %rd2, %r2;
	add.u64 %rd3, %rd1, %rd2;
	st.shared.u32 [%rd3], %r1;
	ld.shared.u32 %r3, [%rd3];
	ld.param.u64 %rd4, [p];
	ld.global.u64 %rd5, [%rd4];
	ld.shared.u32 %r4, [%rd5];
	ret;
}`
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// Precondition: the unknown-address read blocks the pruner, so the
	// private read is NOT PrunePrivate — the old suppression path would
	// not fire and the fix must come from the per-site check.
	a := analyzeSrc(t, src)
	for i, in := range a.CFG.Instrs {
		if in.Op == ptx.OpLd && in.Space == ptx.SpaceShared {
			if a.Prune.Reason[i] == PrunePrivate {
				t.Fatalf("instr %d: pruner unexpectedly proved privacy; the regression test is vacuous", i)
			}
		}
	}
	diags, err := LintModule(m)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	unsynced := byCode(diags, CodeUnsyncedShared)
	if len(unsynced) != 1 {
		t.Fatalf("unsynced-shared = %v, want exactly one (the unknown-address read)", unsynced)
	}
	// Line 17 is the ld.shared at the unknown register address.
	if unsynced[0].Line != 17 {
		t.Errorf("flagged line %d, want 17 (the unknown-address read)", unsynced[0].Line)
	}
}

// TestLintUnsyncedSharedUnknownWriteDefeatsPrivacy: with an
// unknown-address shared *write* in the kernel, no read is provably
// private — every unsynced read must still be flagged.
func TestLintUnsyncedSharedUnknownWriteDefeatsPrivacy(t *testing.T) {
	src := header + `.visible .entry k(.param .u64 p) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.shared .align 4 .b8 s[256];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	mov.u64 %rd1, s;
	cvt.u64.u32 %rd2, %r2;
	add.u64 %rd3, %rd1, %rd2;
	st.shared.u32 [%rd3], %r1;
	ld.shared.u32 %r3, [%rd3];
	ld.param.u64 %rd4, [p];
	ld.global.u64 %rd5, [%rd4];
	st.shared.u32 [%rd5], %r1;
	ret;
}`
	diags := lintSrc(t, src)
	unsynced := byCode(diags, CodeUnsyncedShared)
	if len(unsynced) != 1 {
		t.Fatalf("unsynced-shared = %v, want the in-slot read flagged (unknown write aliases it)", unsynced)
	}
	if unsynced[0].Line != 14 {
		t.Errorf("flagged line %d, want 14", unsynced[0].Line)
	}
}
