package barracuda

import (
	"strings"
	"testing"
)

const racyPTX = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	st.global.u32 [%rd1], %r1;
	ret;
}`

const cleanPTX = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mad.lo.u32 %r4, %r2, %r3, %r1;
	shl.b32 %r5, %r4, 2;
	cvt.u64.u32 %rd2, %r5;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r4;
	ret;
}`

func TestPublicAPIDetectRace(t *testing.T) {
	s, err := Open(racyPTX, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := s.MustAlloc(4)
	res, err := s.Detect("k", D1(1), D1(32), out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.HasRaces() {
		t.Fatal("race missed through the public API")
	}
	if res.Report.Races[0].Kind != IntraWarp {
		t.Errorf("kind = %v", res.Report.Races[0].Kind)
	}
}

func TestPublicAPICleanKernel(t *testing.T) {
	s, err := Open(cleanPTX, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := s.MustAlloc(4 * 64)
	res, err := s.Detect("k", D1(2), D1(32), out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.HasRaces() {
		t.Fatalf("false positives: %v", res.Report.Races)
	}
	// Native run works and leaves the expected values.
	if err := s.RunNative("k", D1(2), D1(32), out); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadU32(out + 4*5)
	if err != nil || v != 5 {
		t.Errorf("out[5] = %d, %v", v, err)
	}
}

func TestPublicAPIMemoryHelpers(t *testing.T) {
	s, err := Open(cleanPTX, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteU32(a, 77); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBytes(a+4, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	b, err := s.ReadBytes(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 77 || b[4] != 1 || b[7] != 4 {
		t.Errorf("bytes = %v", b)
	}
}

// TestPublicAPIKernelsAndStats: Instrumented counts the sites the module
// logs. racyPTX's store is shared by every thread and stays logged;
// cleanPTX's is thread-private, so its module logs nothing until NoPrune.
func TestPublicAPIKernelsAndStats(t *testing.T) {
	s, err := Open(racyPTX, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ks := s.Kernels()
	if len(ks) != 1 || ks[0] != "k" {
		t.Errorf("Kernels = %v", ks)
	}
	st, ok := s.Instrumentation("k")
	if !ok || st.Static == 0 || st.Instrumented == 0 {
		t.Errorf("instrumentation stats = %+v ok=%v", st, ok)
	}
	if !strings.Contains(s.InstrumentedPTX(), "_log.") {
		t.Error("instrumented PTX has no logging calls")
	}
	for logged, cfg := range []Config{{}, {NoPrune: true}} {
		s, err := Open(cleanPTX, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := s.Instrumentation("k")
		if logs := strings.Count(s.InstrumentedPTX(), "_log."); st.Unoptimized != 1 || st.Instrumented != logged || logs != logged {
			t.Errorf("%+v: clean kernel stats %+v with %d logging call(s), want %d", cfg, st, logs, logged)
		}
	}
}

func TestPublicAPILitmus(t *testing.T) {
	// cta/cta on the weak profile admits non-SC behaviour...
	if n := LitmusMP(false, false, true, 20000, 1); n == 0 {
		t.Error("cta/cta weak: no violations")
	}
	// ...a global fence on either side forbids it.
	if n := LitmusMP(true, false, true, 5000, 2); n != 0 {
		t.Errorf("gl/cta weak: %d violations", n)
	}
	if n := LitmusMP(false, false, false, 5000, 3); n != 0 {
		t.Errorf("cta/cta strong: %d violations", n)
	}
}

func TestPublicAPIProfile(t *testing.T) {
	s, err := Open(cleanPTX, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := s.MustAlloc(4 * 64)
	rep, err := s.Profile("k", Launch{Grid: D1(2), Block: D1(32), Args: []uint64{out}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sites) == 0 {
		t.Fatal("profile found no access sites")
	}
	if rep.Sites[0].CoalescingRatio() != 1 {
		t.Errorf("per-thread store should be fully coalesced: %+v", rep.Sites[0])
	}
	if rep.FootprintBytes == 0 {
		t.Error("no footprint")
	}
}

func TestPublicAPIWarpSize(t *testing.T) {
	s, err := Open(racyPTX, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := s.MustAlloc(4)
	res, err := s.DetectLaunch("k", Launch{Grid: D1(1), Block: D1(32), Args: []uint64{out}, WarpSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// With 8-lane warps the same-word writes race across warps too.
	kinds := map[RaceKind]bool{}
	for _, r := range res.Report.Races {
		kinds[r.Kind] = true
	}
	if !kinds[IntraBlock] {
		t.Errorf("expected inter-warp races at warp size 8: %v", res.Report.Races)
	}
}

func TestPublicAPIBudget(t *testing.T) {
	spin := `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
SPIN:
	ld.global.u32 %r1, [%rd1];
	setp.eq.u32 %p1, %r1, 0;
	@%p1 bra SPIN;
	ret;
}`
	s, err := Open(spin, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := s.MustAlloc(4)
	_, err = s.DetectLaunch("k", Launch{Grid: D1(1), Block: D1(1), Args: []uint64{out}, MaxInstrs: 10000})
	if err == nil {
		t.Fatal("infinite spin did not hit the budget")
	}
}
