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
	"barracuda/internal/detector"
)

// timingLine matches the JSON lines whose values are wall-clock readings.
var timingLine = regexp.MustCompile(`(?m)^\s*"(submitted_at|queue_wait_ms|total_ms|detect_ms)": .*\n`)

func suiteJob(t *testing.T, name string, cfg detector.Config) JobRequest {
	t.Helper()
	for _, bt := range bugsuite.Tests() {
		if bt.Name == name {
			return JobRequest{PTX: bt.PTX, Kernel: bt.Kernel, Grid: bt.Grid.Count(), Block: bt.Block.Count(),
				Buffers: bt.Bufs, MaxInstrs: 1 << 19, Config: cfg}
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
// reorders or reformats shows up here; nothing in the tree rewrites it.
// The four jobs: a racy suite program under the producer filter (three
// races; the filter probed and suppressed nothing, so only the worker's
// full filter block says it ran), a barrier divergence, a repair, and a
// clean kernel whose filter did suppress records.
func TestJobBodiesGolden(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	filter := detector.Config{ProducerFilter: true}
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
		suiteJob(t, "gl-reduce-nosync-racy", filter),
		suiteJob(t, "bardiv-branch", detector.Config{}),
		{PTX: repairableSrc, Kind: KindRepair},
		{PTX: loopReadSrc, Kernel: "k", Grid: 2, Block: 64, Buffers: []int{512, 512}, Config: filter},
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
