package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"barracuda/internal/wire"
)

// A repair is a kind "repair" job, so it meets every guard a job meets.
// These tests hold it to three of them: the queue cap, the wall-clock
// timeout, and the books (history and counters).

// TestRepairPastQueueCapAnswers429: with the one worker busy and the one
// queue slot taken, a repair is refused the way any job is.
func TestRepairPastQueueCapAnswers429(t *testing.T) {
	srv, ts := newTestServer(t, SchedulerOptions{Workers: 1, QueueCap: 1})
	spin := JobRequest{
		PTX: spinSrc, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4, 4},
		TimeoutMS: 10000, MaxInstrs: 1 << 21,
	}
	if code, _, errj := postJob(t, ts, spin); code != http.StatusAccepted {
		t.Fatalf("first spin job: %d %+v", code, errj)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Scheduler().InFlight() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the worker never picked the spin job up")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _, errj := postJob(t, ts, spin); code != http.StatusAccepted {
		t.Fatalf("second spin job (the queue's one slot): %d %+v", code, errj)
	}

	body, _ := json.Marshal(repairJob)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var errj ErrorJSON
	json.NewDecoder(resp.Body).Decode(&errj)
	if resp.StatusCode != http.StatusTooManyRequests || errj.Code != wire.CodeQueueFull || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("repair past the cap: %d %+v, Retry-After %q; want 429 queue_full with a Retry-After",
			resp.StatusCode, errj, resp.Header.Get("Retry-After"))
	}
	if m := getMetrics(t, ts); m.Jobs.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", m.Jobs.Rejected)
	}
}

// TestRepairHonoursWallClockTimeout: a repair whose verification runs
// cannot finish (the spin kernel never does) ends as a timeout job when
// its wall-clock budget is spent, instead of running on for as long as
// the step budget lets it.
func TestRepairHonoursWallClockTimeout(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1, DefaultTimeout: time.Millisecond})
	start := time.Now()
	code, info, errj := postJob(t, ts, JobRequest{PTX: spinSrc, Buffers: []int{4, 4}, MaxInstrs: 1 << 20, Kind: KindRepair})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %+v", code, errj)
	}
	info = waitJob(t, ts, info.ID)
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("ended after %v: the loop ran past the job's budget", took)
	}
	if info.Status != StatusTimeout || !strings.Contains(info.Error, "wall-clock timeout") {
		t.Fatalf("timed-out repair: %s (%s), want a wall-clock timeout", info.Status, info.Error)
	}
	if m := getMetrics(t, ts); m.Jobs.TimedOut != 1 {
		t.Errorf("timed_out = %d, want 1", m.Jobs.TimedOut)
	}
}

// TestRepairDeadlineStopsTheLoop: a repair whose baseline run spins under a
// step budget it would never reach stops at the job's deadline, its module
// released and nothing memoized: the identical repair after it runs, and
// times out, again instead of being recalled.
func TestRepairDeadlineStopsTheLoop(t *testing.T) {
	srv := New(SchedulerOptions{Workers: 1, DefaultTimeout: 200 * time.Millisecond})
	req := JobRequest{PTX: spinSrc, Buffers: []int{4, 4}, MaxInstrs: 1 << 40, Kind: KindRepair}
	for i := 0; i < 2; i++ {
		job, err := srv.Scheduler().Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if info := waitTerminal(t, job, 2*time.Second); info.Status != StatusTimeout || info.Error != "wall-clock timeout after 200ms" {
			t.Fatalf("repair %d: status %q (%s), want the 200ms wall-clock timeout", i+1, info.Status, info.Error)
		}
	}
	closeWithin(t, srv, 2*time.Second)
}

// TestRepairIsCountedAndListed: one repair job moves submitted and
// completed by one each and leaves a done job in GET /jobs.
func TestRepairIsCountedAndListed(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	before := getMetrics(t, ts).Jobs
	code, info, errj := postJob(t, ts, repairJob)
	if code != http.StatusAccepted {
		t.Fatalf("repair: %d %+v", code, errj)
	}
	if info = waitJob(t, ts, info.ID); info.Status != StatusDone {
		t.Fatalf("repair: %s (%s)", info.Status, info.Error)
	}
	after := getMetrics(t, ts).Jobs
	if after.Submitted != before.Submitted+1 || after.Completed != before.Completed+1 {
		t.Errorf("counters %+v → %+v, want submitted and completed one higher", before, after)
	}
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []JobInfo
	json.NewDecoder(resp.Body).Decode(&jobs)
	if len(jobs) != 1 || jobs[0].Status != StatusDone || jobs[0].Result == nil || jobs[0].Result.Repair == nil {
		t.Fatalf("GET /jobs after one repair: %+v, want one done job carrying the report", jobs)
	}
}
