package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"barracuda/internal/bench"
	"barracuda/internal/server"
	"barracuda/internal/wire"
)

func TestStreamForwardEndToEnd(t *testing.T) {
	f := newTestFleet(t, 2)
	code, info, errj := f.submit(racyJob())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %+v", code, errj)
	}
	done := f.wait(info.ID)
	if done.Status != server.StatusDone {
		t.Fatalf("job: %+v", done)
	}
	if done.Worker == nil || done.Worker.Result == nil || done.Worker.Result.RaceCount == 0 {
		t.Fatalf("stream-forwarded result missing races: %+v", done.Worker)
	}
	if n := f.coord.streamFwds.Load(); n == 0 {
		t.Fatal("job completed without a stream forward")
	}
	if m := f.metrics(); m.JSONForwards != 0 {
		t.Fatalf("json_forwards = %d: there is no JSON forward", m.JSONForwards)
	}
}

// metrics reads /fleet/metrics as an operator does.
func (f *testFleet) metrics() FleetMetricsJSON {
	f.t.Helper()
	resp, err := http.Get(f.coordTS.URL + "/fleet/metrics")
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var m FleetMetricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		f.t.Fatal(err)
	}
	return m
}

// racyJobFor is racyJob with a module comment chosen so that the ring's
// primary for the job is the given node.
func (f *testFleet) racyJobFor(node string) server.JobRequest {
	f.t.Helper()
	req := racyJob()
	for i := 0; i < 10_000; i++ {
		req.PTX = fmt.Sprintf("%s\n// aimed %d", racySrc, i)
		f.coord.core.mu.Lock()
		primary := f.coord.core.ring.Primary(server.CacheKey(req.PTX, req.Config))
		f.coord.core.mu.Unlock()
		if primary == node {
			return req
		}
	}
	f.t.Fatalf("no module variant has %s as its ring primary", node)
	return req
}

// TestStreamForwardWarmRepeat: a second submission of the same module
// ring-routes to the same worker, which answers the hash declaration
// with "have" — the PTX bytes travel once across both jobs.
func TestStreamForwardWarmRepeat(t *testing.T) {
	f := newTestFleet(t, 2)
	for i := 0; i < 2; i++ {
		code, info, errj := f.submit(racyJob())
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %+v", i, code, errj)
		}
		if done := f.wait(info.ID); done.Status != server.StatusDone {
			t.Fatalf("job %d: %+v", i, done)
		}
	}
	var hits, misses int64
	for _, w := range f.workers {
		st := w.srv.Scheduler().Srcs().Stats()
		hits += st.Hits
		misses += st.Misses
	}
	if hits == 0 {
		t.Fatalf("repeat forward never hit the worker source store (hits=%d misses=%d)", hits, misses)
	}
}

// TestStreamForwardFallbackOldWorker: there is no fallback. A worker
// whose /v1/stream answers 404 is a failed node for the job — what a dead
// listener is: with no other node the job waits, queued, with that node
// excluded, and runs as soon as a healthy worker joins; with a healthy node
// on the ring the job's second attempt lands there.
func TestStreamForwardFallbackOldWorker(t *testing.T) {
	f := newTestFleet(t, 0)
	srv := server.New(defaultWorkerOpts)
	t.Cleanup(srv.Close)
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, wire.StreamPath) {
			http.NotFound(w, r)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(old.Close)
	link := StartWorkerLink(f.coordTS.URL, "w-old", old.URL, srv.Scheduler(),
		150*time.Millisecond, func(string, ...any) {})
	t.Cleanup(link.Close)
	f.waitNodes(1)

	// Alone: one failed attempt, then nowhere to go.
	code, info, errj := f.submit(racyJob())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %+v", code, errj)
	}
	pj, _ := f.coord.jobs.Get(info.ID)
	if !within(5*time.Second, func() bool {
		// Retries tells this queued from the one before the forward began.
		got := pj.info()
		return got.Status == server.StatusQueued && got.Attempts == 1 && f.coord.Core().Stats().Retries == 1
	}) {
		t.Fatalf("job after the refused upgrade: %+v, want queued after 1 attempt", pj.info())
	}
	if ex := pj.fj.Excluded(); len(ex) != 1 || ex[0] != "w-old" {
		t.Fatalf("excluded = %v, want [w-old]", ex)
	}
	f.addWorker("w-new", defaultWorkerOpts)
	done := f.wait(info.ID)
	if done.Status != server.StatusDone || done.Node != "w-new" || done.Attempts != 2 {
		t.Fatalf("after a healthy worker joined: %+v, want done on w-new at attempt 2", done)
	}
	if done.Worker == nil || done.Worker.Result == nil || done.Worker.Result.RaceCount == 0 {
		t.Fatalf("result missing races: %+v", done.Worker)
	}

	// Beside a healthy node: the job walks the ring past its primary.
	retries := f.coord.Core().Stats().Retries
	done = f.run(f.racyJobFor("w-old"))
	if done.Status != server.StatusDone || done.Node != "w-new" || done.Attempts != 2 {
		t.Fatalf("job keyed to w-old: %+v, want done on w-new at attempt 2", done)
	}
	if got := f.coord.Core().Stats().Retries - retries; got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if m := f.metrics(); m.JSONForwards != 0 || m.Stats.FailedPerm != 0 {
		t.Errorf("json_forwards %d, failed_perm %d, want 0 and 0", m.JSONForwards, m.Stats.FailedPerm)
	}
}

// TestFleetBenchJobRidesTheStream: a benchmark-by-name job is resolved at
// the coordinator and travels as the PTX upload it is — same report as the
// same request on a lone worker, hash-skipped on the repeat.
func TestFleetBenchJobRidesTheStream(t *testing.T) {
	small := bench.All()[0]
	for _, b := range bench.All() {
		if b.Threads() < small.Threads() {
			small = b
		}
	}
	req := server.JobRequest{Bench: small.Name}

	lone := server.New(defaultWorkerOpts)
	t.Cleanup(lone.Close)
	job, err := lone.Scheduler().Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	info := job.Info()
	want := digest(t, FleetJobInfo{Status: info.Status, Worker: &info})

	f := newTestFleet(t, 2)
	first := f.run(req)
	if got := digest(t, first); got != want {
		t.Errorf("fleet digest differs from the lone worker's:\n got %s\nwant %s", got, want)
	}
	if first.Worker.Result.Kernel != "main" {
		t.Errorf("kernel = %q, want the benchmark's main", first.Worker.Result.Kernel)
	}
	second := f.run(req)
	if second.Node != first.Node || digest(t, second) != want {
		t.Errorf("repeat ran on %s (first on %s) or reported differently", second.Node, first.Node)
	}
	if st := f.worker(first.Node).srv.Scheduler().Srcs().Stats(); st.Hits == 0 {
		t.Errorf("repeat upload was not skipped: %+v", st)
	}
	if m := f.metrics(); m.JSONForwards != 0 || m.StreamForwards != 2 {
		t.Errorf("json_forwards %d, stream_forwards %d, want 0 and 2", m.JSONForwards, m.StreamForwards)
	}
}

// TestStreamForwardRejectRequeues: a worker that rejects the launch
// with queue_full must not terminally fail the job; the coordinator
// requeues and the job lands on capacity elsewhere.
func TestStreamForwardRejectRequeues(t *testing.T) {
	f := newTestFleet(t, 1)
	// Choke the only worker: one slot, zero queue — concurrent
	// submissions force queue_full rejects that must come back around.
	w := f.workers[0]
	_ = w
	const jobs = 6
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		code, info, errj := f.submit(racyJob())
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %+v", i, code, errj)
		}
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		if done := f.wait(id); done.Status != server.StatusDone {
			t.Fatalf("job %s: %+v", id, done)
		}
	}
}
