package server

import (
	"bytes"
	"encoding/json"
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

func postRepair(t *testing.T, ts *httptest.Server, req RepairRequest) (int, RepairResponse, ErrorJSON) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/repair", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out RepairResponse
	var errj ErrorJSON
	if resp.StatusCode == http.StatusOK {
		json.NewDecoder(resp.Body).Decode(&out)
	} else {
		json.NewDecoder(resp.Body).Decode(&errj)
	}
	return resp.StatusCode, out, errj
}

func TestRepairEndpoint(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})

	code, res, errj := postRepair(t, ts, RepairRequest{PTX: repairableSrc})
	if code != http.StatusOK {
		t.Fatalf("status = %d (%v)", code, errj)
	}
	if res.CacheHit {
		t.Error("first repair reported a cache hit")
	}
	rep := res.Report
	if rep == nil || rep.BaselineRaces == 0 {
		t.Fatalf("report = %+v, want baseline races", rep)
	}
	if rep.Verified == 0 || rep.FinalRaces != 0 {
		t.Fatalf("verified = %d, final races = %d, want a verified race-free repair", rep.Verified, rep.FinalRaces)
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

	// The same request again is a pure memo lookup with the same verdicts.
	code, warm, _ := postRepair(t, ts, RepairRequest{PTX: repairableSrc})
	if code != http.StatusOK || !warm.CacheHit {
		t.Errorf("repeat repair: status = %d, cache_hit = %v, want hit", code, warm.CacheHit)
	}
	if warm.Report.Verified != rep.Verified || warm.Report.PatchedPTX != rep.PatchedPTX {
		t.Error("warm report differs from cold")
	}

	// A different launch shape is a distinct parameterization: miss.
	code, other, _ := postRepair(t, ts, RepairRequest{PTX: repairableSrc, Grid: 3})
	if code != http.StatusOK || other.CacheHit {
		t.Errorf("different grid: status = %d, cache_hit = %v, want miss", code, other.CacheHit)
	}
}

func TestRepairRejectsBadPayloads(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	for _, req := range []RepairRequest{
		{},                                     // neither ptx nor bench
		{PTX: repairableSrc, Bench: "counter"}, // both
		{PTX: repairableSrc, Grid: -1},
		{PTX: repairableSrc, MaxCandidates: -2},
	} {
		code, _, errj := postRepair(t, ts, req)
		if code != http.StatusBadRequest || errj.Code != wire.CodeInvalidArgument {
			t.Errorf("req %+v: status = %d code = %q, want 400 invalid_argument", req, code, errj.Code)
		}
	}
}

// TestRepairJobKind drives the same loop through the async job API — the
// form the fleet coordinator forwards to workers.
func TestRepairJobKind(t *testing.T) {
	srv, _ := newTestServer(t, SchedulerOptions{Workers: 1})
	sched := srv.Scheduler()

	job, err := sched.Submit(JobRequest{PTX: repairableSrc, Kind: KindRepair})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	info := job.Info()
	if info.Status != StatusDone {
		t.Fatalf("status = %s (%s)", info.Status, info.Error)
	}
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

	// A second identical repair job hits the per-entry memo.
	job2, err := sched.Submit(JobRequest{PTX: repairableSrc, Kind: KindRepair})
	if err != nil {
		t.Fatal(err)
	}
	<-job2.Done()
	if got := job2.Info(); got.Status != StatusDone || got.Result.Repair.Verified != info.Result.Repair.Verified {
		t.Errorf("warm repair job disagrees: %+v", got)
	}

	// Unknown kinds are rejected at validation.
	if _, err := sched.Submit(JobRequest{PTX: repairableSrc, Kind: "optimize"}); err == nil {
		t.Error("unknown kind accepted")
	}
}
