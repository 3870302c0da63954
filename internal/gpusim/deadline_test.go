package gpusim

import (
	"errors"
	"testing"
	"time"
)

// warpSpinSrc never terminates under SIMT lockstep: all 32 lanes of one
// warp compete for a lock, and the winning lane waits on the reconvergence
// entry while the losers spin (TestIntraWarpSpinlockStarves).
const warpSpinSrc = `
.visible .entry k(.param .u64 lock, .param .u64 ctr)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [lock];
	ld.param.u64 %rd2, [ctr];
SPIN:
	atom.global.cas.b32 %r1, [%rd1], 0, 1;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra SPIN;
	ld.global.u32 %r2, [%rd2];
	add.u32 %r2, %r2, 1;
	st.global.u32 [%rd2], %r2;
	atom.global.exch.b32 %r3, [%rd1], 0;
	ret;
}`

// TestDeadlineStopsSpinningLaunch: with no step budget at all, a launch
// that never terminates ends with ErrDeadline soon after its deadline.
func TestDeadlineStopsSpinningLaunch(t *testing.T) {
	d, mod := loadKernel(t, warpSpinSrc)
	cfg := LaunchConfig{Grid: D1(1), Block: D1(32), Args: []uint64{d.MustAlloc(4), d.MustAlloc(4)},
		Deadline: time.Now().Add(20 * time.Millisecond)}
	errc := make(chan error, 1)
	go func() {
		_, err := mod.Launch("k", cfg)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("error = %v, want ErrDeadline", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("the launch ran on 480 ms past its deadline")
	}
}

// TestPastDeadlineStopsAtFirstClockRead: a deadline already past ends the
// launch at the first clock read, within 1 024 warp instructions.
func TestPastDeadlineStopsAtFirstClockRead(t *testing.T) {
	d, mod := loadKernel(t, warpSpinSrc)
	cfg := LaunchConfig{Grid: D1(1), Block: D1(32), Args: []uint64{d.MustAlloc(4), d.MustAlloc(4)},
		MaxWarpInstrs: 1 << 20, Deadline: time.Now().Add(-time.Second)}
	stats, err := mod.Launch("k", cfg)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("error = %v, want ErrDeadline", err)
	}
	if stats.WarpInstrs > 1024 {
		t.Errorf("stopped after %d warp instructions, want at most %d", stats.WarpInstrs, 1024)
	}
}

// TestDistantDeadlineChangesNothing: a deadline that never comes leaves a
// launch exactly as it runs without one — the same Stats on a kernel that
// completes, and the step budget firing at the same instruction on one
// that does not.
func TestDistantDeadlineChangesNothing(t *testing.T) {
	far := time.Now().Add(time.Hour)
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 ctr)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [ctr];
	atom.global.add.u32 %r1, [%rd1], 1;
	ret;
}`)
	ctr := d.MustAlloc(4)
	cfg := LaunchConfig{Grid: D1(1000), Block: D1(64), Args: []uint64{ctr}}
	want, err := mod.Launch("k", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Deadline = far
	got, err := mod.Launch("k", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got.WarpInstrs <= 1024 {
		t.Errorf("stats with a distant deadline %+v, without %+v (want equal, past 1 024 warp instructions)", got, want)
	}

	spin := func(deadline time.Time) (Stats, error) {
		d, mod := loadKernel(t, warpSpinSrc)
		return mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(32), Args: []uint64{d.MustAlloc(4), d.MustAlloc(4)},
			MaxWarpInstrs: 100000, Deadline: deadline})
	}
	want, wantErr := spin(time.Time{})
	got, gotErr := spin(far)
	if !errors.Is(wantErr, ErrStepBudget) || !errors.Is(gotErr, ErrStepBudget) || got != want {
		t.Errorf("budget with a distant deadline: %+v, %v; without: %+v, %v", got, gotErr, want, wantErr)
	}
}
