package detector

import (
	"strings"
	"testing"

	"barracuda/internal/core"
	"barracuda/internal/gpusim"
)

// warpExchange is warp-synchronous code that communicates between lanes
// tid and tid+16 with no barrier. On a 32-lane warp this is ordered by
// lockstep execution; if the architecture's warp were 16 lanes wide, the
// exchange would cross warps and race — a latent warp-size-dependent bug
// (§3.1: portable CUDA code should eschew assumptions about warp size).
const warpExchange = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<10>;
	.reg .u64 %rd<10>;
	.shared .align 4 .b8 sm[128];
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	cvt.u64.u32 %rd2, %r2;
	mov.u64 %rd3, sm;
	add.u64 %rd4, %rd3, %rd2;
	st.shared.u32 [%rd4], %r1;
	add.u32 %r3, %r1, 16;
	and.b32 %r4, %r3, 31;
	shl.b32 %r5, %r4, 2;
	cvt.u64.u32 %rd5, %r5;
	add.u64 %rd6, %rd3, %rd5;
	ld.shared.u32 %r6, [%rd6];
	add.u64 %rd7, %rd1, %rd2;
	st.global.u32 [%rd7], %r6;
	ret;
}`

func TestWarpSizeLatentBug(t *testing.T) {
	// At the native warp size of 32 the kernel is race-free.
	s := open(t, warpExchange, Config{})
	out := s.Dev.MustAlloc(4 * 32)
	res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(32), Args: []uint64{out}})
	if res.Report.HasRaces() {
		t.Fatalf("false races at warp size 32: %v", res.Report.Races)
	}
	// Simulating a 16-lane warp exposes the latent cross-warp race.
	s2 := open(t, warpExchange, Config{})
	out2 := s2.Dev.MustAlloc(4 * 32)
	res2 := detect(t, s2, "k", gpusim.LaunchConfig{
		Grid: gpusim.D1(1), Block: gpusim.D1(32), Args: []uint64{out2}, WarpSize: 16,
	})
	found := false
	for _, r := range res2.Report.Races {
		if r.Kind == core.IntraBlock {
			found = true
		}
	}
	if !found {
		t.Fatalf("latent bug not exposed at warp size 16: %v", res2.Report.Races)
	}
}

func TestWarpSizeFunctionalEquivalence(t *testing.T) {
	// The same program computes the same results at any warp width.
	collect := func(ws int) []byte {
		s := open(t, warpExchange, Config{})
		out := s.Dev.MustAlloc(4 * 32)
		launch := gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(32), Args: []uint64{out}, WarpSize: ws}
		if _, _, err := s.RunNative("k", launch); err != nil {
			t.Fatalf("ws=%d: %v", ws, err)
		}
		b, err := s.Dev.ReadBytes(out, 4*32)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := collect(0) // default 32
	for _, ws := range []int{4, 8, 16, 32} {
		got := collect(ws)
		// Note: the EXCHANGE result differs across warp sizes only when
		// the racy interleaving actually bites; the deterministic
		// round-robin scheduler runs warps in order, so with the
		// writer warp scheduled first the values still match.
		if string(got) != string(ref) {
			t.Logf("ws=%d produces different results (the latent race biting)", ws)
		}
	}
}

func TestWarpSizeValidation(t *testing.T) {
	s := open(t, warpExchange, Config{})
	out := s.Dev.MustAlloc(4 * 32)
	_, err := s.Detect("k", gpusim.LaunchConfig{
		Grid: gpusim.D1(1), Block: gpusim.D1(32), Args: []uint64{out}, WarpSize: 64,
	})
	if err == nil {
		t.Error("warp size 64 accepted")
	}
	_, err = s.Detect("k", gpusim.LaunchConfig{
		Grid: gpusim.D1(1), Block: gpusim.D1(32), Args: []uint64{out}, WarpSize: 1,
	})
	if err == nil {
		t.Error("warp size 1 accepted")
	}
}

// barrierThenRead has every thread store s[tid], meet at bar.sync, and
// thread 127 load s[0]: the barrier orders the load after thread 0's
// store, so the kernel is race-free at any warp size.
const barrierThenRead = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<6>;
	.reg .u64 %rd<6>;
	.reg .pred %p<2>;
	.shared .align 4 .b8 s[512];
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	cvt.u64.u32 %rd2, %r2;
	mov.u64 %rd3, s;
	add.u64 %rd4, %rd3, %rd2;
	st.shared.u32 [%rd4], %r1;
	bar.sync 0;
	setp.ne.u32 %p1, %r1, 127;
	@%p1 bra DONE;
	ld.shared.u32 %r3, [%rd3];
	st.global.u32 [%rd1], %r3;
DONE:
	ret;
}`

// TestBlockWarpBound: a barrier release carries one bit per arrived warp
// in a 32-bit mask, so a block is at most gpusim.MaxBlockWarps warps. A
// 128-thread block is 16 warps at warp size 8 and race-free; at warp size
// 2 it is 64 warps, and the launch is an error instead of a race between
// warps the barrier left out of its join.
func TestBlockWarpBound(t *testing.T) {
	launch := func(s *Session, ws int) gpusim.LaunchConfig {
		return gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(128), Args: []uint64{s.Dev.MustAlloc(4)}, WarpSize: ws}
	}
	s := open(t, barrierThenRead, Config{})
	if res := detect(t, s, "k", launch(s, 8)); res.Report.HasRaces() {
		t.Fatalf("16 warps: false races %v", res.Report.Races)
	}
	s2 := open(t, barrierThenRead, Config{})
	res, err := s2.Detect("k", launch(s2, 2))
	if err == nil {
		t.Fatalf("64 warps per block accepted: races %v", res.Report.Races)
	}
	if !strings.Contains(err.Error(), "64 warps") {
		t.Fatalf("error %q does not name the warp count", err)
	}
}

// TestInstrumentedFunctionalEquivalence verifies instrumentation does not
// change program semantics: the instrumented module computes the same
// memory contents as the native one.
func TestInstrumentedFunctionalEquivalence(t *testing.T) {
	kernels := []struct {
		name string
		src  string
	}{
		{"clean", cleanPerThreadSrc},
		{"sharedBarrier", sharedBarrierSrc},
		{"branchOrder", branchOrderSrc},
		{"warpExchange", warpExchange},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			// Native run.
			sN := open(t, k.src, Config{})
			kname := sN.SrcMod.Kernels[0].Name
			nParams := len(sN.SrcMod.Kernels[0].Params)
			outN := sN.Dev.MustAlloc(4 * 256)
			argsN := []uint64{outN}
			for len(argsN) < nParams {
				argsN = append(argsN, 1)
			}
			// Block of 32 keeps every kernel's shared buffer in bounds.
			launch := gpusim.LaunchConfig{Grid: gpusim.D1(2), Block: gpusim.D1(32), Args: argsN}
			if _, _, err := sN.RunNative(kname, launch); err != nil {
				t.Fatal(err)
			}
			memN, _ := sN.Dev.ReadBytes(outN, 4*256)

			// Instrumented run under detection on a fresh session.
			sI := open(t, k.src, Config{})
			outI := sI.Dev.MustAlloc(4 * 256)
			argsI := []uint64{outI}
			for len(argsI) < nParams {
				argsI = append(argsI, 1)
			}
			launch.Args = argsI
			if _, err := sI.Detect(kname, launch); err != nil {
				t.Fatal(err)
			}
			memI, _ := sI.Dev.ReadBytes(outI, 4*256)
			if string(memN) != string(memI) {
				t.Fatal("instrumented execution diverged from native results")
			}
		})
	}
}
