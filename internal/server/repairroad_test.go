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

// POST /v1/repair is a kind "repair" job submitted and waited for, so it
// meets every guard a job meets. These tests hold it to three of them: the
// queue cap, the wall-clock timeout, and the books (history and counters).

// TestRepairPastQueueCapAnswers429: with the one worker busy and the one
// queue slot taken, a repair is refused the way a job is — it used to
// start another unqueued loop on the handler's goroutine.
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

	body, _ := json.Marshal(RepairRequest{PTX: repairableSrc})
	resp, err := http.Post(ts.URL+"/v1/repair", "application/json", bytes.NewReader(body))
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
// cannot finish (the spin kernel never does) answers when the job's
// wall-clock budget is spent, with the 400 every repair failure maps to,
// instead of running on for as long as the step budget lets it.
func TestRepairHonoursWallClockTimeout(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1, DefaultTimeout: time.Millisecond})
	start := time.Now()
	code, _, errj := postRepair(t, ts, RepairRequest{PTX: spinSrc, Buffers: []int{4, 4}, MaxInstrs: 1 << 20})
	if code != http.StatusBadRequest || errj.Code != wire.CodeInvalidArgument || !strings.Contains(errj.Error, "wall-clock timeout") {
		t.Fatalf("timed-out repair: %d %+v, want 400 invalid_argument carrying the wall-clock timeout", code, errj)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("answered after %v: the handler waited for the loop, not for the job", took)
	}
	if m := getMetrics(t, ts); m.Jobs.TimedOut != 1 {
		t.Errorf("timed_out = %d, want 1", m.Jobs.TimedOut)
	}
}

// TestRepairIsCountedAndListed: one /v1/repair moves submitted and
// completed by one each and leaves a done job in GET /jobs.
func TestRepairIsCountedAndListed(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	before := getMetrics(t, ts).Jobs
	if code, _, errj := postRepair(t, ts, RepairRequest{PTX: repairableSrc, MaxCandidates: 4}); code != http.StatusOK {
		t.Fatalf("repair: %d %+v", code, errj)
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

// TestRepairSearchBoundsRideTheJob: max_candidates is part of the repair a
// job runs — the same bound recalls the memo, another bound is another
// repair — though no JobRequest field carries it.
func TestRepairSearchBoundsRideTheJob(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	for i, tc := range []struct {
		maxCandidates int
		memoHit       bool
	}{{4, false}, {4, true}, {5, false}} {
		code, res, errj := postRepair(t, ts, RepairRequest{PTX: repairableSrc, MaxCandidates: tc.maxCandidates})
		if code != http.StatusOK || res.CacheHit != tc.memoHit {
			t.Errorf("call %d (max_candidates %d): %d %+v, cache_hit %v, want %v", i, tc.maxCandidates, code, errj, res.CacheHit, tc.memoHit)
		}
	}
}

// TestRepairFailureTexts: clients match on /v1/repair's 400 texts, so the
// job's error is mapped back onto them — a module that does not open
// answers with the loader's bare error, a failed loop under "repair: ".
// Both texts are the ones 284e60f answered.
func TestRepairFailureTexts(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	for _, tc := range []struct {
		req  RepairRequest
		want string
	}{
		{RepairRequest{PTX: "garbage here"}, `ptx: line 1:1: unsupported module directive "garbage"`},
		{RepairRequest{PTX: repairableSrc, Kernel: "nope"}, `repair: detector: unknown kernel "nope"`},
	} {
		code, _, errj := postRepair(t, ts, tc.req)
		if code != http.StatusBadRequest || errj.Code != wire.CodeInvalidArgument || errj.Error != tc.want {
			t.Errorf("kernel %q: %d %+v, want 400 invalid_argument %q", tc.req.Kernel, code, errj, tc.want)
		}
	}
}
