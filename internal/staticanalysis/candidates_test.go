package staticanalysis_test

import (
	"slices"
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/ptx"
)

// The race candidates the patch templates receive are the races a
// detection run of the kernel reported, one per distinct race, each side
// in the role the report gave it. These tests pin that set on small
// kernels through detector.Repair, which builds the candidates.

// candidates repairs the module's first kernel and returns the
// description of every candidate it targeted.
func candidates(t *testing.T, src string) []string {
	t.Helper()
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rr, err := detector.Repair(m, m.Kernels[0].Name, detector.RepairOptions{})
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	var got []string
	for _, c := range rr.Candidates {
		got = append(got, c.Description)
	}
	return got
}

func wantCandidates(t *testing.T, src string, want ...string) {
	t.Helper()
	if got := candidates(t, src); !slices.Equal(got, want) {
		t.Errorf("candidates %q, want %q", got, want)
	}
}

func TestRaceCandidatesMissingBarrier(t *testing.T) {
	// Neighbour exchange without a barrier: write s[4*tid], read
	// s[4*tid+4]. The cross-slot pair races across warps; each thread's
	// own slot is private, so no self-race is a candidate.
	wantCandidates(t, `.visible .entry k() {
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	.shared .align 4 .b8 s[1024];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	mov.u64 %rd1, s;
	cvt.u64.u32 %rd2, %r2;
	add.u64 %rd3, %rd1, %rd2;
	st.shared.u32 [%rd3], %r1;
	ld.shared.u32 %r3, [%rd3+4];
	ret;
}`, "shared write at line 10 vs read at line 11")
}

func TestRaceCandidatesBarrierSeparates(t *testing.T) {
	// The same exchange with bar.sync between write and read: no race,
	// so no candidate.
	wantCandidates(t, `.visible .entry k() {
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	.shared .align 4 .b8 s[1024];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	mov.u64 %rd1, s;
	cvt.u64.u32 %rd2, %r2;
	add.u64 %rd3, %rd1, %rd2;
	st.shared.u32 [%rd3], %r1;
	bar.sync 0;
	ld.shared.u32 %r3, [%rd3+4];
	ret;
}`)
}

func TestRaceCandidatesGlobalIgnoresBarrier(t *testing.T) {
	// bar.sync is per-block: a uniform global write before the barrier
	// and a read after it still race across blocks, and the write races
	// with itself.
	wantCandidates(t, `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	st.global.u32 [%rd1], %r1;
	bar.sync 0;
	ld.global.u32 %r2, [%rd1];
	ret;
}`, "global write at line 6 vs itself across threads", "global write at line 6 vs read at line 8")
}

func TestRaceCandidatesSelfWrite(t *testing.T) {
	// All threads store to one uniform global address: the single
	// self write-write candidate.
	wantCandidates(t, `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	st.global.u32 [%rd1], %r1;
	ret;
}`, "global write at line 6 vs itself across threads")
}

func TestRaceCandidatesPrunesDisjointParams(t *testing.T) {
	// Strided per-thread accesses through two distinct pointer params:
	// nothing aliases, no candidate.
	wantCandidates(t, `.visible .entry k(.param .u64 xs, .param .u64 ys) {
	.reg .u32 %r<6>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [xs];
	ld.param.u64 %rd2, [ys];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ntid.x;
	mad.lo.u32 %r3, %ctaid.x, %r2, %r1;
	mul.wide.u32 %rd3, %r3, 4;
	add.u64 %rd4, %rd1, %rd3;
	add.u64 %rd5, %rd2, %rd3;
	ld.global.u32 %r4, [%rd4];
	st.global.u32 [%rd5], %r4;
	ret;
}`)
}

func TestRaceCandidatesAtomicPairsExcluded(t *testing.T) {
	// Two atomics on the same address are ordered: no candidate. An
	// atomic against a plain store is one, and keeps its atomic side.
	wantCandidates(t, `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	atom.global.add.u32 %r1, [%rd1], 1;
	red.global.add.u32 [%rd1], 1;
	ret;
}`)
	wantCandidates(t, `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	atom.global.add.u32 %r1, [%rd1], 1;
	st.global.u32 [%rd1], 0;
	ret;
}`, "global atomic at line 5 vs write at line 6", "global write at line 6 vs itself across threads")
}
