package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"barracuda/internal/bench"
	"barracuda/internal/detector"
)

// TestStreamRepairLaunch: LAUNCH kind=repair over a real /v1/stream comes
// back with the report the JSON job surface gives, and the session is an
// ordinary session afterwards.
func TestStreamRepairLaunch(t *testing.T) {
	fresh := NewScheduler(SchedulerOptions{Workers: 1})
	t.Cleanup(fresh.Stop)
	job, err := fresh.Submit(JobRequest{PTX: repairableSrc, Kind: KindRepair})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	want := job.Info()
	if want.Status != StatusDone || want.Result.Repair == nil || want.Result.Repair.Verified == 0 {
		t.Fatalf("reference repair job: %+v", want)
	}

	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	c := dialStream(t, ts.URL, "")
	if _, _, err := c.UploadModule([]byte(repairableSrc)); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(JobRequest{Kind: KindRepair}.LaunchSpec(1)); err != nil {
		t.Fatal(err)
	}
	sums, races, rejects := collect(t, c, 1)
	if len(rejects) != 0 || len(races) != 0 {
		t.Fatalf("rejects %+v, race frames %+v, want neither", rejects, races)
	}
	got := JobInfoFromSummary("", sums[1])
	if got.Status != StatusDone {
		t.Fatalf("repair over the stream: %+v", got)
	}
	gotJSON, _ := json.Marshal(got.Result)
	wantJSON, _ := json.Marshal(want.Result)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("streamed repair result differs from the submitted one:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// A detect launch of the same module on the same session.
	detect := JobRequest{PTX: repairableSrc, Grid: 2, Block: 64, Buffers: []int{64}}
	if err := c.Launch(detect.LaunchSpec(2)); err != nil {
		t.Fatal(err)
	}
	sums, _, _ = collect(t, c, 1)
	job, err = fresh.Submit(detect)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	ref, err := job.Info().Result.CoreReport()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sums[2].Report().CanonicalDigest(), ref.CanonicalDigest(); got != want || len(sums[2].Races) == 0 {
		t.Errorf("detect after repair:\n got %s\nwant %s", got, want)
	}
	if sums[2].Repair != nil {
		t.Error("detect summary carries a repair report")
	}
}

// TestOversizeSummaryFailsTheJobNotTheStream: a repair whose patched
// module will not fit a frame ends in a failed SUMMARY that says so — the
// peer is never left waiting — and the session carries the next launch.
func TestOversizeSummaryFailsTheJobNotTheStream(t *testing.T) {
	srv, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	sched := srv.Scheduler()

	// Plant a synthetic report where the job will recall it: the repair
	// memo of the module's cache entry, under the signature the job computes.
	lease, _, err := sched.Cache().Acquire(repairableSrc, HashSrc(repairableSrc))
	if err != nil {
		t.Fatal(err)
	}
	sig := repairSig("k", detector.RepairOptions{MaxInstrs: sched.opts.DefaultMaxInstrs})
	lease.e.repairs = map[string]*detector.RepairReport{sig: {
		Kernel: "k", BaselineRaces: 1, PatchedPTX: strings.Repeat("x", 5<<20),
	}}
	lease.Release()

	c := dialStream(t, ts.URL, "")
	if _, _, err := c.UploadModule([]byte(repairableSrc)); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(JobRequest{Kind: KindRepair}.LaunchSpec(1)); err != nil {
		t.Fatal(err)
	}
	sums, _, _ := collect(t, c, 1)
	if s := sums[1]; s.Status != StatusFailed || !strings.Contains(s.Error, "summary is 524") || s.Repair != nil {
		t.Fatalf("oversize summary: status %q, error %q, want failed and the size (5 MiB and a little)", s.Status, s.Error)
	}
	if err := c.Launch(JobRequest{Grid: 2, Block: 64, Buffers: []int{64}}.LaunchSpec(2)); err != nil {
		t.Fatal(err)
	}
	sums, _, _ = collect(t, c, 1)
	if sums[2].Status != StatusDone || len(sums[2].Races) == 0 {
		t.Fatalf("launch after the oversize summary: %+v", sums[2])
	}
}

// TestResolvedBenchEqualsSchedulerDefaults pins Resolved to what
// Scheduler.SubmitTenant computed inline before the resolution moved
// (table recorded at fa6aaa0).
func TestResolvedBenchEqualsSchedulerDefaults(t *testing.T) {
	recorded := []struct {
		name        string
		grid, block int
		buffers     []int
		srcLen      int
	}{
		{"bfs", 245, 64, []int{2195200, 4, 64}, 8375},
		{"backprop", 256, 64, []int{2621440, 4, 64}, 9012},
		{"dwt2d", 36, 64, []int{2396160, 16, 64}, 85744},
		{"gaussian", 256, 64, []int{1638400, 4, 64}, 6812},
		{"hotspot", 116, 64, []int{1425408, 4, 64}, 11108},
		{"hybridsort", 16, 32, []int{153600, 4, 64}, 22393},
		{"kmeans", 121, 64, []int{1115136, 4, 64}, 10093},
		{"lavamd", 16, 128, []int{778240, 4, 64}, 30737},
		{"needle", 121, 64, []int{2632960, 4, 64}, 24843},
		{"nn", 21, 32, []int{43008, 4, 64}, 5636},
		{"pathfinder", 29, 64, []int{356352, 4, 64}, 10330},
		{"streamcluster", 16, 64, []int{106496, 4, 64}, 7809},
		{"bfs_shoc", 16, 64, []int{245760, 16, 64}, 17928},
		{"hashtable", 2, 32, []int{8192, 16, 64}, 6282},
		{"dxtc", 256, 64, []int{10485760, 4, 64}, 44517},
		{"threadfencereduction", 256, 64, []int{6225920, 4, 64}, 32514},
		{"block_radix_sort", 1, 128, []int{33280, 4, 64}, 24064},
		{"block_reduce", 1, 1024, []int{307200, 4, 64}, 26619},
		{"block_scan", 1, 128, []int{48640, 4, 64}, 34979},
		{"device_partition_flagged", 1, 128, []int{26624, 4, 64}, 20248},
		{"device_reduce", 1, 128, []int{24576, 4, 64}, 18828},
		{"device_scan", 1, 128, []int{20480, 4, 64}, 15340},
		{"device_select_flagged", 1, 128, []int{25600, 4, 64}, 19520},
		{"device_select_if", 1, 128, []int{25088, 4, 64}, 19156},
		{"device_select_unique", 1, 128, []int{24576, 4, 64}, 18928},
		{"device_sort_find_non_trivial_runs", 1, 128, []int{58880, 4, 64}, 43074},
	}
	if len(recorded) != len(bench.All()) {
		t.Fatalf("table has %d rows, bench.All() %d", len(recorded), len(bench.All()))
	}
	for _, row := range recorded {
		in := JobRequest{Bench: row.name, MaxInstrs: 7, Kind: KindRepair}
		got := in.Resolved()
		want := in
		want.Bench, want.PTX = "", bench.ByName(row.name).PTX()
		want.Kernel, want.Grid, want.Block, want.Buffers = "main", row.grid, row.block, row.buffers
		if n := len(got.PTX); !reflect.DeepEqual(got, want) || n != row.srcLen {
			got.PTX, want.PTX = "", ""
			t.Errorf("%s: Resolved() = %+v (%d source bytes)\nwant %+v (%d)", row.name, got, n, want, row.srcLen)
		}
		// What the request set survives: only the unset default.
		set := JobRequest{Bench: row.name, Kernel: "other", Grid: 3, Buffers: []int{8}}.Resolved()
		if set.Kernel != "other" || set.Grid != 3 || set.Block != 0 || !reflect.DeepEqual(set.Buffers, []int{8}) {
			t.Errorf("%s: Resolved() overwrote the request's own launch: %+v", row.name, set)
		}
	}
	ptx := JobRequest{PTX: racySrc, Kernel: "k", Grid: 1, Buffers: []int{4}, Kind: KindRepair}
	if got := ptx.Resolved(); !reflect.DeepEqual(got, ptx) {
		t.Errorf("Resolved() is not the identity on a PTX request: %+v", got)
	}
}
