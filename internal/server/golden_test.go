package server

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"barracuda/internal/bugsuite"
)

// timingLine matches the JSON lines whose values are wall-clock readings.
var timingLine = regexp.MustCompile(`(?m)^\s*"(submitted_at|queue_wait_ms|total_ms|detect_ms)": .*\n`)

// loopReadSrc reads a per-thread global word 32 times in a barrier-free
// loop, then stores to a word per thread, the same words from both blocks
// of a two-block launch.
const loopReadSrc = `.visible .entry k(.param .u64 in, .param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [in];
	ld.param.u64 %rd2, [out];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	cvt.u64.u32 %rd3, %r2;
	add.u64 %rd4, %rd1, %rd3;
	add.u64 %rd5, %rd2, %rd3;
	mov.u32 %r3, 0;
	mov.u32 %r4, 0;
LOOP:
	ld.global.u32 %r5, [%rd4];
	add.u32 %r3, %r3, %r5;
	add.u32 %r4, %r4, 1;
	setp.lt.u32 %p1, %r4, 32;
	@%p1 bra LOOP;
	st.global.u32 [%rd5], %r3;
	ret;
}`

func suiteJob(t *testing.T, name string) JobRequest {
	t.Helper()
	for _, bt := range bugsuite.Tests() {
		if bt.Name == name {
			return JobRequest{PTX: bt.PTX, Kernel: bt.Kernel, Grid: bt.Grid.Count(), Block: bt.Block.Count(),
				Buffers: bt.Bufs, MaxInstrs: 1 << 19}
		}
	}
	t.Fatalf("no bugsuite program %q", name)
	return JobRequest{}
}

// TestJobBodiesGolden pins what a client of the worker reads: the bodies
// of GET /jobs/{id} and GET /jobs, byte for byte, with the wall-clock
// lines dropped. testdata/jobs_golden.txt is the string this test builds,
// written out once in a checkout of 284e60f — before a finished job's
// result was built from its wire summary — so any field that chain loses,
// reorders or reformats shows up here. No test rewrites it; it has been
// edited by hand once, when the daemon came to run one detector: the
// first and last jobs had run under the producer filter, and their
// "filter" blocks went, and the last job's "records" became its
// unfiltered count. Its repair reports were re-recorded once, when a
// repair came to target the reported races alone: "static_candidates",
// "score" and "dynamic" went, the descriptions lost their static reasons
// and the two candidates took report order. Its shadow blocks were
// re-recorded twice: when the ownership tier became the default, each
// gained its ownership counters, and when the tier went, each lost them
// again; nothing else moved either time. The four jobs: a racy suite
// program (three races), a
// barrier divergence, a repair, and a loop of global reads whose two
// blocks then store to the same words.
func TestJobBodiesGolden(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	var got strings.Builder
	get := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		got.WriteString("GET " + path + "\n" + timingLine.ReplaceAllString(string(body), ""))
	}
	for _, req := range []JobRequest{
		suiteJob(t, "gl-reduce-nosync-racy"),
		suiteJob(t, "bardiv-branch"),
		{PTX: repairableSrc, Kind: KindRepair},
		{PTX: loopReadSrc, Kernel: "k", Grid: 2, Block: 64, Buffers: []int{512, 512}},
	} {
		code, info, errj := postJob(t, ts, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %+v", code, errj)
		}
		if done := waitJob(t, ts, info.ID); done.Status != StatusDone {
			t.Fatalf("%s: %s (%s)", info.ID, done.Status, done.Error)
		}
		get("/jobs/" + info.ID)
	}
	get("/jobs")

	const path = "testdata/jobs_golden.txt"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("job bodies moved from the recorded ones (%s):\n%s", path, lineDiff(string(want), got.String()))
	}
}

// lineDiff shows the first few lines on which two texts part.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var out strings.Builder
	for i, shown := 0, 0; i < max(len(w), len(g)) && shown < 8; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&out, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
			shown++
		}
	}
	return out.String()
}
