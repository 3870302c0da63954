package detector

import (
	"reflect"
	"testing"

	"barracuda/internal/gpusim"
)

// TestAllocArgsMatchesAllocLoop: AllocArgs hands out the addresses the
// alloc-and-append loop it replaced did — the same sizes on a fresh
// device, one Alloc each, in order — so every recorded race address and
// golden stays where it was.
func TestAllocArgsMatchesAllocLoop(t *testing.T) {
	sizes := []int{4, 1024, 0, 300, 64}
	var want []uint64
	dev := open(t, racyAllWriteSrc, Config{}).Dev
	for _, n := range sizes {
		want = append(want, dev.MustAlloc(n))
	}
	got, err := open(t, racyAllWriteSrc, Config{}).AllocArgs(sizes)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("AllocArgs(%v) = %#x, %v; the loop returned %#x", sizes, got, err, want)
	}
	if want[0] != gpusim.GlobalBase {
		t.Errorf("first buffer at %#x, want the device base %#x", want[0], gpusim.GlobalBase)
	}
	if got, err := open(t, racyAllWriteSrc, Config{}).AllocArgs(nil); err != nil || len(got) != 0 {
		t.Errorf("AllocArgs(nil) = %v, %v, want no arguments", got, err)
	}
}

// TestAllocArgsFailureReturnsNoSlice: an allocation the device refuses
// is the call's error, with no partial argument list to launch on.
func TestAllocArgsFailureReturnsNoSlice(t *testing.T) {
	s := open(t, racyAllWriteSrc, Config{})
	for _, sizes := range [][]int{{64, -1}, {64, 1 << 30}} {
		if got, err := s.AllocArgs(sizes); err == nil || got != nil {
			t.Errorf("AllocArgs(%v) = %v, %v, want nil and an error", sizes, got, err)
		}
	}
}

// TestLaunch1DDefaults: no extent means one block of one warp.
func TestLaunch1DDefaults(t *testing.T) {
	l := Launch1D(0, -3, []uint64{7}, 99, 5)
	if l.Grid.Count() != 1 || l.Block.Count() != 32 || l.MaxWarpInstrs != 99 || l.WarpSize != 5 || len(l.Args) != 1 || l.Sink != nil {
		t.Errorf("Launch1D(0, -3, …) = %+v, want 1×32, budget 99, warp size 5, no sink", l)
	}
	if l := Launch1D(3, 96, nil, 0, 0); l.Grid != gpusim.D1(3) || l.Block != gpusim.D1(96) {
		t.Errorf("Launch1D(3, 96, …) = %+v", l)
	}
}

// TestKernelOrFirst: a named kernel is taken as given, an empty name is
// the module's first.
func TestKernelOrFirst(t *testing.T) {
	s := open(t, racyAllWriteSrc, Config{})
	if k, err := s.KernelOrFirst(""); err != nil || k != "k" {
		t.Errorf(`KernelOrFirst("") = %q, %v, want "k"`, k, err)
	}
	if k, err := s.KernelOrFirst("other"); err != nil || k != "other" {
		t.Errorf(`KernelOrFirst("other") = %q, %v`, k, err)
	}
}
