package detector

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"barracuda/internal/gpusim"
)

// litmusCase is one memory-model litmus program run through the full
// detection pipeline (instrumentation, simulator, vector-clock detector).
type litmusCase struct {
	name   string
	ptx    string
	kernel string
	bufs   []int
	grid   gpusim.Dim3
	block  gpusim.Dim3
}

// litmusCorpus exercises the interpreter paths the bug suite leans on
// least: inter-block fences, spin-wait loops on flags, atomics used for
// synchronization, and block barriers with partial warps — the shapes
// where sync-record Seq stamping and warp-level broadcast must agree
// exactly with the recorded per-lane interpreter.
func litmusCorpus() []litmusCase {
	return []litmusCase{
		{
			name:   "mp-fence",
			kernel: "k",
			bufs:   []int{4, 4},
			grid:   gpusim.D1(2),
			block:  gpusim.D1(1),
			ptx: `.visible .entry k(.param .u64 data, .param .u64 flag)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [data];
	ld.param.u64 %rd2, [flag];
	mov.u32 %r1, %ctaid.x;
	setp.ne.u32 %p1, %r1, 1;
	@%p1 bra READER;
	st.global.u32 [%rd1], 42;
	membar.sys;
	st.global.u32 [%rd2], 1;
	ret;
READER:
WAIT:
	ld.global.u32 %r2, [%rd2];
	membar.sys;
	setp.eq.u32 %p1, %r2, 0;
	@%p1 bra WAIT;
	ld.global.u32 %r3, [%rd1];
	ret;
}`,
		},
		{
			name:   "mp-nofence",
			kernel: "k",
			bufs:   []int{4, 4},
			grid:   gpusim.D1(2),
			block:  gpusim.D1(1),
			ptx: `.visible .entry k(.param .u64 data, .param .u64 flag)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [data];
	ld.param.u64 %rd2, [flag];
	mov.u32 %r1, %ctaid.x;
	setp.ne.u32 %p1, %r1, 1;
	@%p1 bra READER;
	st.global.u32 [%rd1], 42;
	st.global.u32 [%rd2], 1;
	ret;
READER:
	ld.global.u32 %r2, [%rd2];
	ld.global.u32 %r3, [%rd1];
	ret;
}`,
		},
		{
			name:   "sb-plain",
			kernel: "k",
			bufs:   []int{4, 4},
			grid:   gpusim.D1(2),
			block:  gpusim.D1(1),
			ptx: `.visible .entry k(.param .u64 x, .param .u64 y)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [x];
	ld.param.u64 %rd2, [y];
	mov.u32 %r1, %ctaid.x;
	setp.ne.u32 %p1, %r1, 1;
	@%p1 bra T1;
	st.global.u32 [%rd1], 1;
	ld.global.u32 %r2, [%rd2];
	ret;
T1:
	st.global.u32 [%rd2], 1;
	ld.global.u32 %r3, [%rd1];
	ret;
}`,
		},
		{
			name:   "atom-counter",
			kernel: "k",
			bufs:   []int{4},
			grid:   gpusim.D1(2),
			block:  gpusim.D1(32),
			ptx: `.visible .entry k(.param .u64 ctr)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [ctr];
	atom.global.add.u32 %r1, [%rd1], 1;
	ret;
}`,
		},
		{
			name:   "bar-partial-warp",
			kernel: "k",
			bufs:   []int{4},
			grid:   gpusim.D1(1),
			block:  gpusim.D1(48),
			ptx: `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	.shared .align 4 .b8 buf[256];
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	cvt.u64.u32 %rd2, %r2;
	mov.u64 %rd3, buf;
	add.u64 %rd4, %rd3, %rd2;
	st.shared.u32 [%rd4], %r1;
	bar.sync 0;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra DONE;
	ld.shared.u32 %r3, [%rd3+60];
	st.global.u32 [%rd1], %r3;
DONE:
	ret;
}`,
		},
	}
}

// litmusRun runs one case at an explicit warp size and returns the
// comparable outcome string (canonical digest + ordered races) and stats.
func litmusRun(lc litmusCase, ws int) (string, gpusim.Stats, error) {
	s, err := OpenPTX(lc.ptx, Config{})
	if err != nil {
		return "", gpusim.Stats{}, err
	}
	args := make([]uint64, 0, len(lc.bufs))
	for _, sz := range lc.bufs {
		a, err := s.Dev.Alloc(sz)
		if err != nil {
			return "", gpusim.Stats{}, err
		}
		args = append(args, a)
	}
	res, err := s.Detect(lc.kernel, gpusim.LaunchConfig{
		Grid: lc.grid, Block: lc.block, Args: args,
		MaxWarpInstrs: 1 << 18,
		WarpSize:      ws,
	})
	if err != nil {
		if errors.Is(err, gpusim.ErrStepBudget) {
			return "HANG\n", gpusim.Stats{}, nil
		}
		return "ERROR: " + err.Error() + "\n", gpusim.Stats{}, nil
	}
	out := res.Report.CanonicalDigest()
	for _, rc := range res.Report.Races {
		out += fmt.Sprintf("%+v\n", rc)
	}
	return out, res.SimStats, nil
}

// TestWarpVectorizedLitmusEquivalence asserts the interpreter reproduces
// testdata/warpvec_litmus_lanemajor.json — the per-lane interpreter's
// outputs on the litmus corpus, recorded at commit 53f9fb5 (see
// bugsuite/testdata/README.md) — bit for bit: identical canonical digests,
// race sets, and launch stats, at the default warp width and at warp size
// 7 (partial warps everywhere).
func TestWarpVectorizedLitmusEquivalence(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "warpvec_litmus_lanemajor.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Case    string       `json:"case"`
		WS      int          `json:"ws"`
		Outcome string       `json:"outcome"`
		Stats   gpusim.Stats `json:"stats"`
	}
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	type recorded struct {
		outcome string
		stats   gpusim.Stats
	}
	golden := make(map[string]recorded, len(entries))
	for _, e := range entries {
		golden[fmt.Sprintf("%s/%d", e.Case, e.WS)] = recorded{e.Outcome, e.Stats}
	}
	for _, lc := range litmusCorpus() {
		lc := lc
		t.Run(lc.name, func(t *testing.T) {
			for _, ws := range []int{0, 7} {
				want, ok := golden[fmt.Sprintf("%s/%d", lc.name, ws)]
				if !ok {
					t.Fatalf("no golden entry at ws=%d", ws)
				}
				got, st, err := litmusRun(lc, ws)
				if err != nil {
					t.Fatalf("ws=%d: %v", ws, err)
				}
				if got != want.outcome {
					t.Errorf("outcome diverged (ws=%d):\n--- golden ---\n%s--- got ---\n%s", ws, want.outcome, got)
				}
				if st != want.stats {
					t.Errorf("stats diverged (ws=%d):\ngolden: %+v\ngot:    %+v", ws, want.stats, st)
				}
			}
		})
	}
}
