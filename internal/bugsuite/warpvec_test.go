package bugsuite

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
)

// warpvecResult captures everything the interpreter must reproduce
// bit-for-bit: the canonical report digest (or the launch-error text),
// the ordered race set, and the launch stats.
type warpvecResult struct {
	digest string
	races  string
	stats  gpusim.Stats
}

// warpvecGolden loads testdata/warpvec_lanemajor.json, keyed "test/ws":
// the outputs of the per-lane interpreter at commit 53f9fb5, the last one
// that had it, for every suite program at ws {32,5} (0 = architecture
// default) and the two sweep programs at ws 2..32. The file is a
// recording, not regenerable from HEAD; testdata/README.md says how it
// was made.
func warpvecGolden(t *testing.T) map[string]warpvecResult {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "warpvec_lanemajor.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Test   string       `json:"test"`
		WS     int          `json:"ws"`
		Digest string       `json:"digest"`
		Races  string       `json:"races"`
		Stats  gpusim.Stats `json:"stats"`
	}
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	golden := make(map[string]warpvecResult, len(entries))
	for _, e := range entries {
		golden[fmt.Sprintf("%s/%d", e.Test, e.WS)] = warpvecResult{e.Digest, e.Races, e.Stats}
	}
	return golden
}

// warpvecRun executes one suite test under the detector at an explicit
// warp size (0 = architecture default).
func warpvecRun(tc *Test, ws int) (warpvecResult, error) {
	s, err := detector.OpenPTX(tc.PTX, detector.Config{})
	if err != nil {
		return warpvecResult{}, err
	}
	launch, err := tc.launch(s)
	if err != nil {
		return warpvecResult{}, err
	}
	launch.WarpSize = ws
	res, err := s.Detect(tc.Kernel, launch)
	if err != nil {
		if errors.Is(err, gpusim.ErrStepBudget) {
			return warpvecResult{digest: "HANG\n"}, nil
		}
		// Launch errors (e.g. the barrier-divergence park deadlock some
		// programs hit at odd warp sizes) are outcomes too: the message is
		// part of the contract.
		return warpvecResult{digest: "ERROR: " + err.Error() + "\n"}, nil
	}
	var races string
	for _, rc := range res.Report.Races {
		races += fmt.Sprintf("%+v\n", rc)
	}
	return warpvecResult{
		digest: res.Report.CanonicalDigest(),
		races:  races,
		stats:  res.SimStats,
	}, nil
}

// warpvecCompare asserts the interpreter reproduces the golden recording
// for one test/warp-size.
func warpvecCompare(t *testing.T, golden map[string]warpvecResult, tc *Test, ws int) {
	t.Helper()
	want, ok := golden[fmt.Sprintf("%s/%d", tc.Name, ws)]
	if !ok {
		t.Fatalf("no golden entry for %s at ws=%d", tc.Name, ws)
	}
	got, err := warpvecRun(tc, ws)
	if err != nil {
		t.Fatalf("run (ws=%d): %v", ws, err)
	}
	if got.digest != want.digest {
		t.Errorf("canonical digest diverged (ws=%d):\n--- golden ---\n%s--- got ---\n%s",
			ws, want.digest, got.digest)
	}
	if got.races != want.races {
		t.Errorf("race set diverged (ws=%d):\n--- golden ---\n%s--- got ---\n%s",
			ws, want.races, got.races)
	}
	if got.stats != want.stats {
		t.Errorf("launch stats diverged (ws=%d):\ngolden: %+v\ngot:    %+v",
			ws, want.stats, got.stats)
	}
}

// TestWarpVectorizedEquivalence is the correctness contract of the
// interpreter (warp-major dispatch + static-uniformity scalarization +
// pooled launch state): across the full bug suite it must reproduce the
// recorded per-lane outputs exactly — identical canonical report digests,
// identical ordered race sets, identical launch-error text and identical
// Stats counters (warp/thread instructions, records, barriers,
// divergences). Run at the default 32-lane warp and at warp size 5,
// which forces partial last warps and odd masks through every broadcast
// and bit-iteration path.
func TestWarpVectorizedEquivalence(t *testing.T) {
	golden := warpvecGolden(t)
	for _, tc := range Tests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			warpvecCompare(t, golden, tc, 0)
			warpvecCompare(t, golden, tc, 5)
		})
	}
}

// TestWarpVectorizedEquivalenceAllWarpSizes sweeps every legal warp size
// on one racy and one barrier-heavy program, covering full masks, partial
// last warps, and single-digit warps where scalarization broadcasts to
// almost nobody.
func TestWarpVectorizedEquivalenceAllWarpSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("warp-size sweep is slow")
	}
	want := map[string]bool{"gl-waw-interwarp-racy": true, "sh-barrier-waw-free": true}
	var picked []*Test
	for _, tc := range Tests() {
		if want[tc.Name] {
			picked = append(picked, tc)
		}
	}
	if len(picked) == 0 {
		t.Fatal("sweep test programs not found in suite")
	}
	golden := warpvecGolden(t)
	for _, tc := range picked {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			for ws := 2; ws <= 32; ws++ {
				warpvecCompare(t, golden, tc, ws)
			}
		})
	}
}
