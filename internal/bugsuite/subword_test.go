package bugsuite

import (
	"testing"

	"barracuda/internal/detector"
)

// subwordConfigs are the detector configurations the mixed-width programs
// must agree under: the default, with a byte cap, and the FullVC ablation
// — all on the one shadow, whose word-granular regions refine.
var subwordConfigs = []detector.Config{
	{},
	{ShadowCapBytes: 64 << 20},
	{FullVC: true},
}

// TestSubwordVerdicts: every mixed-width program gets its hand-written
// verdict under every shadow configuration.
func TestSubwordVerdicts(t *testing.T) {
	for _, tc := range SubwordTests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for _, cfg := range subwordConfigs {
				v, err := RunBarracudaWith(tc, cfg)
				if err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				if !tc.Expect.Correct(v) {
					t.Errorf("%+v: verdict %v, want %v", cfg, v, tc.Expect)
				}
			}
		})
	}
}

// TestSubwordRefines pins who refines, under every shadow configuration
// alike — the ablations share the default shadow: every mixed-width
// program does (that is what they are for), and of the 66 paper programs
// only gl-partial-overlap-racy (a misaligned word store) does — the rest
// contain nothing but whole-word accesses, so their whole shadow stays
// word-granular.
func TestSubwordRefines(t *testing.T) {
	refinements := func(tc *Test, cfg detector.Config) uint64 {
		t.Helper()
		s, err := detector.OpenPTX(tc.PTX, cfg)
		if err != nil {
			t.Fatal(err)
		}
		launch, err := tc.launch(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Detect(tc.Kernel, launch)
		if err != nil {
			return 0 // hangs and launch errors: nothing to count
		}
		sh := res.Report.Shadow
		if sh.WordRegions+sh.ByteRegions != sh.GlobalPages+sh.SharedBlocks {
			t.Errorf("%s %+v: %d word + %d byte regions, but %d pages + %d slabs",
				tc.Name, cfg, sh.WordRegions, sh.ByteRegions, sh.GlobalPages, sh.SharedBlocks)
		}
		return sh.Refinements
	}
	for _, cfg := range subwordConfigs {
		for _, tc := range SubwordTests() {
			if n := refinements(tc, cfg); n == 0 {
				t.Errorf("%s: no region refined under %+v", tc.Name, cfg)
			}
		}
		for _, tc := range Tests() {
			n := refinements(tc, cfg)
			if want := tc.Name == "gl-partial-overlap-racy"; want != (n != 0) {
				t.Errorf("%s: %d refinements under %+v, want refined = %v", tc.Name, n, cfg, want)
			}
		}
	}
}
