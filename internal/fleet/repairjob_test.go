package fleet

import (
	"testing"

	"barracuda/internal/server"
	"barracuda/internal/wire"
)

// lostUpdateSrc is the canonical repairable kernel: a plain ld/add/st
// increment the repair loop rewrites to red.global.add.
const lostUpdateSrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	ld.global.u32 %r2, [%rd1];
	add.u32 %r3, %r2, 1;
	st.global.u32 [%rd1], %r3;
	ret;
}`

// TestFleetRunsRepairJobs: a kind=repair job submitted to the
// coordinator is forced onto the batch queue, forwarded to a worker
// like any detection job, and comes back with a verified repair report.
func TestFleetRunsRepairJobs(t *testing.T) {
	f := newTestFleet(t, 2)

	// Even an explicitly interactive submission is demoted: repair work
	// runs many verification launches and must not hold the
	// interactive fast path.
	code, info, errj := f.submit(server.JobRequest{
		PTX:   lostUpdateSrc,
		Kind:  server.KindRepair,
		Class: server.ClassInteractive,
	})
	if code != 202 {
		t.Fatalf("submit: %d (%v)", code, errj)
	}
	if info.Class != server.ClassBatch {
		t.Errorf("class = %q, want repair forced to %q", info.Class, server.ClassBatch)
	}

	done := f.wait(info.ID)
	if done.Status != server.StatusDone {
		t.Fatalf("status = %s (%s)", done.Status, done.Error)
	}
	if done.Worker == nil || done.Worker.Result == nil || done.Worker.Result.Repair == nil {
		t.Fatalf("no repair report in %+v", done.Worker)
	}
	rep := done.Worker.Result.Repair
	if rep.BaselineRaces == 0 {
		t.Error("repair report has no baseline races")
	}
	if rep.Verified == 0 || rep.FinalRaces != 0 {
		t.Errorf("verified = %d, final = %d, want a verified race-free repair", rep.Verified, rep.FinalRaces)
	}

	// The same module again routes to the same warm worker and replays
	// the memoized report.
	code, info2, _ := f.submit(server.JobRequest{PTX: lostUpdateSrc, Kind: server.KindRepair})
	if code != 202 {
		t.Fatalf("resubmit: %d", code)
	}
	done2 := f.wait(info2.ID)
	if done2.Status != server.StatusDone {
		t.Fatalf("warm status = %s (%s)", done2.Status, done2.Error)
	}
	if done2.Node != done.Node {
		t.Errorf("warm repair routed to %s, first ran on %s (cache affinity lost)", done2.Node, done.Node)
	}
	if !done2.Worker.CacheHit {
		t.Error("warm repair job missed the module cache")
	}
	if done2.Worker.Result.Repair.Verified != rep.Verified {
		t.Error("warm repair verdicts differ from cold")
	}

	if m := f.metrics(); m.StreamForwards != 2 || m.JSONForwards != 0 {
		t.Errorf("stream_forwards %d, json_forwards %d, want 2 and 0", m.StreamForwards, m.JSONForwards)
	}

	// Malformed kinds are rejected at the coordinator, consuming no
	// dispatch attempts.
	code, _, errj = f.submit(server.JobRequest{PTX: lostUpdateSrc, Kind: "optimize"})
	if code != 400 || errj.Code != wire.CodeInvalidArgument {
		t.Errorf("bad kind: %d %q, want 400 invalid_argument", code, errj.Code)
	}
}
