package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"barracuda/internal/wire"
)

// repairableSrc is the canonical lost-update kernel: a plain ld/add/st
// on one global counter, fixable by atomicizing the triple.
const repairableSrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	ld.global.u32 %r2, [%rd1];
	add.u32 %r3, %r2, 1;
	st.global.u32 [%rd1], %r3;
	ret;
}`

// repairJob is the repair of repairableSrc as a job.
var repairJob = JobRequest{PTX: repairableSrc, Kind: KindRepair}

// runRepairOverHTTP posts req to POST /jobs and waits for its answer on
// GET /jobs/{id}; the job must finish.
func runRepairOverHTTP(t *testing.T, ts *httptest.Server, req JobRequest) JobInfo {
	t.Helper()
	code, queued, errj := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status = %d (%v)", code, errj)
	}
	info := waitJob(t, ts, queued.ID)
	if info.Status != StatusDone {
		t.Fatalf("repair job: status = %s (%s)", info.Status, info.Error)
	}
	if info.Result == nil || info.Result.Repair == nil {
		t.Fatalf("result = %+v, want a repair report", info.Result)
	}
	return info
}

// TestRepairEndpoint drives the verified repair loop over the HTTP job
// endpoint, the one door a repair enters the daemon by: the report holds
// a verified atomicize patch with its diff, a repeat gives the same
// verdicts, and another launch shape is another repair.
func TestRepairEndpoint(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})

	info := runRepairOverHTTP(t, ts, repairJob)
	if info.CacheHit {
		t.Error("first repair reported a cache hit")
	}
	rep := info.Result.Repair
	if rep.BaselineRaces == 0 || rep.Verified == 0 || rep.FinalRaces != 0 {
		t.Fatalf("baseline %d, verified %d, final races %d: want a verified race-free repair of a racy kernel",
			rep.BaselineRaces, rep.Verified, rep.FinalRaces)
	}
	found := false
	for _, c := range rep.Candidates {
		for _, p := range c.Patches {
			if p.Verdict.Verified && p.Kind == "atomicize" {
				found = true
				if p.Diff == "" {
					t.Error("verified patch carries no diff")
				}
			}
		}
	}
	if !found {
		t.Fatalf("no verified atomicize patch in %+v", rep.Candidates)
	}

	// The same repair again reuses the cached module with the same verdicts.
	warm := runRepairOverHTTP(t, ts, repairJob)
	if !warm.CacheHit {
		t.Error("repeat repair: cache_hit = false, want hit")
	}
	if warm.Result.Repair.Verified != rep.Verified || warm.Result.Repair.PatchedPTX != rep.PatchedPTX {
		t.Error("warm report differs from cold")
	}

	// A different launch shape is a distinct parameterization with its
	// own verified repair.
	other := repairJob
	other.Grid = 3
	if shaped := runRepairOverHTTP(t, ts, other); shaped.Result.Repair.Verified == 0 {
		t.Errorf("repair at grid 3 verified no patches: %+v", shaped.Result.Repair)
	}
}

// TestRepairJobKind drives the same loop through the scheduler, the form
// the fleet coordinator forwards to workers. A repeat of the same repair
// is recalled from the module-cache entry's memo; another launch shape is
// another repair.
func TestRepairJobKind(t *testing.T) {
	srv, _ := newTestServer(t, SchedulerOptions{Workers: 1})
	sched := srv.Scheduler()
	run := func(req JobRequest) *Job {
		t.Helper()
		job, err := sched.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		if info := job.Info(); info.Status != StatusDone {
			t.Fatalf("repair job: status = %s (%s)", info.Status, info.Error)
		}
		return job
	}

	job := run(repairJob)
	info := job.Info()
	if info.Result == nil || info.Result.Repair == nil {
		t.Fatalf("result = %+v, want a repair report", info.Result)
	}
	if info.Result.Repair.Verified == 0 {
		t.Errorf("repair job verified no patches: %+v", info.Result.Repair)
	}
	if info.Result.RaceCount != info.Result.Repair.BaselineRaces {
		t.Errorf("race_count = %d, want the baseline count %d",
			info.Result.RaceCount, info.Result.Repair.BaselineRaces)
	}

	// The same repair again is recalled: the very report the first ran.
	if again := run(repairJob); again.sum.Repair != job.sum.Repair {
		t.Error("a repeated repair job was not recalled from the memo")
	}
	// A different launch shape is a distinct parameterization: a new run.
	other := repairJob
	other.Grid = 3
	if shaped := run(other); shaped.sum.Repair == job.sum.Repair {
		t.Error("a repair at grid 3 was recalled from the grid-1 repair's memo")
	}

	// A repair that fails is a failed job carrying the loop's error.
	bad, err := sched.Submit(JobRequest{PTX: repairableSrc, Kernel: "nope", Kind: KindRepair})
	if err != nil {
		t.Fatal(err)
	}
	<-bad.Done()
	if info := bad.Info(); info.Status != StatusFailed || info.Error != `detector: unknown kernel "nope"` {
		t.Errorf("repair of an unknown kernel: %s (%s), want failed naming the kernel", info.Status, info.Error)
	}

	// Unknown kinds are rejected at validation.
	if _, err := sched.Submit(JobRequest{PTX: repairableSrc, Kind: "optimize"}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestRepairRejectsBadPayloads: a repair job is validated like every job,
// and carries no search bounds of its own: it runs the detector's
// defaults.
func TestRepairRejectsBadPayloads(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	for _, req := range []JobRequest{
		{Kind: KindRepair}, // neither ptx nor bench
		{PTX: repairableSrc, Bench: "counter", Kind: KindRepair}, // both
		{PTX: repairableSrc, Grid: -1, Kind: KindRepair},
	} {
		code, _, errj := postJob(t, ts, req)
		if code != http.StatusBadRequest || errj.Code != wire.CodeInvalidArgument {
			t.Errorf("req %+v: status = %d code = %q, want 400 invalid_argument", req, code, errj.Code)
		}
	}
	code, errj := post(t, ts.URL+"/jobs", withField(repairJob, "max_candidates", "4"), nil)
	refusesField(t, "POST /jobs", "max_candidates", code, errj)
}

// TestSideDoorsAreGone: every piece of work enters as a job, so the old
// repair and static-analysis doors answer the mux's 404.
func TestSideDoorsAreGone(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	for _, path := range []string{"/v1/repair", "/v1/analyze"} {
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: %d, want 404", path, resp.StatusCode)
		}
	}
}
