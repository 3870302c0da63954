package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"barracuda/internal/detector"
	"barracuda/internal/server"
	"barracuda/internal/wire"
)

const racySrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	st.global.u32 [%rd1], %r1;
	ret;
}`

// testFleet is a coordinator plus N real barracudad workers wired up
// over httptest, with fast heartbeats so failover tests finish quickly.
type testFleet struct {
	t         *testing.T
	coord     *HTTPCoordinator
	coordTS   *httptest.Server
	workers   []*testWorker
	coordOnce sync.Once
}

// closeCoord closes the coordinator once: a test that needs to observe
// Close calls it ahead of the cleanup.
func (f *testFleet) closeCoord() { f.coordOnce.Do(f.coord.Close) }

type testWorker struct {
	id   string
	srv  *server.Server
	ts   *httptest.Server
	ln   *severingListener // pool_test.go: cuts the coordinator's connections
	link *WorkerLink
}

var defaultWorkerOpts = server.SchedulerOptions{Workers: 2, QueueCap: 64, CacheEntries: 8}

func newTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	return newTestFleetWith(t, n, defaultWorkerOpts)
}

func newTestFleetWith(t *testing.T, n int, opts server.SchedulerOptions) *testFleet {
	t.Helper()
	return newTestFleetBehind(t, n, opts, func(h http.Handler) http.Handler { return h })
}

// newTestFleetBehind serves the coordinator through front, which wraps
// its handler to inject a fault between the workers and the coordinator.
func newTestFleetBehind(t *testing.T, n int, opts server.SchedulerOptions, front func(http.Handler) http.Handler) *testFleet {
	t.Helper()
	f := &testFleet{t: t}
	f.coord = NewHTTPCoordinator(Options{
		SuspectAfter: 400 * time.Millisecond,
		DeadAfter:    1200 * time.Millisecond,
	})
	f.coordTS = httptest.NewServer(front(f.coord.Handler()))
	t.Cleanup(func() {
		f.coordTS.Close()
		f.closeCoord()
	})
	for i := 0; i < n; i++ {
		f.addWorker(fmt.Sprintf("w-%02d", i), opts)
	}
	f.waitNodes(n)
	return f
}

func (f *testFleet) addWorker(id string, opts server.SchedulerOptions) *testWorker {
	f.t.Helper()
	return f.addWorkerOn(id, opts, func(l net.Listener) net.Listener { return l })
}

// addWorkerOn is addWorker with the worker's listener wrapped by wrap,
// to inject a fault beneath its HTTP server.
func (f *testFleet) addWorkerOn(id string, opts server.SchedulerOptions, wrap func(net.Listener) net.Listener) *testWorker {
	f.t.Helper()
	srv := server.New(opts)
	ts := httptest.NewUnstartedServer(srv.Handler())
	ln := &severingListener{Listener: wrap(ts.Listener)}
	ts.Listener = ln
	ts.Start()
	w := &testWorker{id: id, srv: srv, ts: ts, ln: ln}
	w.link = StartWorkerLink(f.coordTS.URL, id, ts.URL, srv.Scheduler(),
		150*time.Millisecond, func(string, ...any) {}) // quiet logs
	f.workers = append(f.workers, w)
	f.t.Cleanup(func() {
		if w.ts != nil {
			w.kill()
		}
	})
	return w
}

// kill simulates a crash: heartbeats stop with no graceful leave, the
// listener closes, and every connection the worker holds is cut before
// its scheduler stops, so the jobs it was running die with it instead of
// reporting.
func (w *testWorker) kill() {
	w.link.stop.Do(func() { close(w.link.quit) })
	<-w.link.done
	w.ln.Close()
	w.ln.sever()
	w.ts.Close()
	w.srv.Close()
	w.ts = nil
}

func (f *testFleet) waitNodes(n int) {
	f.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(f.coord.Core().Nodes()) == n {
			return
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("fleet never reached %d nodes (have %d)", n, len(f.coord.Core().Nodes()))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// submit posts req, a server.JobRequest or a raw JSON body, to the
// coordinator's /jobs.
func (f *testFleet) submit(req any) (int, FleetJobInfo, server.ErrorJSON) {
	f.t.Helper()
	body, ok := req.([]byte)
	if !ok {
		body, _ = json.Marshal(req)
	}
	resp, err := http.Post(f.coordTS.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var info FleetJobInfo
	var errj server.ErrorJSON
	if resp.StatusCode == http.StatusAccepted {
		json.NewDecoder(resp.Body).Decode(&info)
	} else {
		json.NewDecoder(resp.Body).Decode(&errj)
	}
	return resp.StatusCode, info, errj
}

func (f *testFleet) wait(id string) FleetJobInfo {
	f.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(f.coordTS.URL + "/jobs/" + id + "?wait_ms=1000")
		if err != nil {
			f.t.Fatal(err)
		}
		var info FleetJobInfo
		json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if info.Status == server.StatusDone || info.Status == server.StatusFailed {
			return info
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("job %s still %s after 30s", id, info.Status)
		}
	}
}

func racyJob() server.JobRequest {
	return server.JobRequest{PTX: racySrc, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4}}
}

// End-to-end: submit through the coordinator, run on a real worker,
// repeat submissions route to the same node and hit its module cache.
func TestFleetEndToEndWarmRouting(t *testing.T) {
	f := newTestFleet(t, 3)

	code, info, errj := f.submit(racyJob())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %+v", code, errj)
	}
	first := f.wait(info.ID)
	if first.Status != server.StatusDone {
		t.Fatalf("job failed: %+v", first)
	}
	if first.Worker == nil || first.Worker.Result == nil || first.Worker.Result.RaceCount == 0 {
		t.Fatalf("no detection result through the fleet: %+v", first.Worker)
	}

	// Same PTX+config → same cache key → same node, warm this time.
	for i := 0; i < 3; i++ {
		_, again, _ := f.submit(racyJob())
		res := f.wait(again.ID)
		if res.Node != first.Node {
			t.Fatalf("repeat %d routed to %s, first ran on %s", i, res.Node, first.Node)
		}
		if res.Worker == nil || !res.Worker.CacheHit {
			t.Fatalf("repeat %d was not a cache hit on %s", i, res.Node)
		}
	}
	if st := f.coord.Core().Stats(); st.WarmHits < 3 {
		t.Fatalf("WarmHits = %d, want >= 3", st.WarmHits)
	}
}

// Failover: kill the worker a job's key routes to; the retry must land
// on a different node and produce the identical race report.
func TestFleetFailoverRetriesElsewhere(t *testing.T) {
	f := newTestFleet(t, 3)

	// Run once to learn the key's primary and capture the ground truth.
	_, info, _ := f.submit(racyJob())
	base := f.wait(info.ID)
	if base.Status != server.StatusDone {
		t.Fatalf("baseline failed: %+v", base)
	}

	var victim *testWorker
	for _, w := range f.workers {
		if w.id == base.Node {
			victim = w
		}
	}
	victim.kill()

	// Submit immediately: the coordinator still believes the dead node is
	// alive, forwards there, gets a connection error, and must re-route.
	_, info2, _ := f.submit(racyJob())
	res := f.wait(info2.ID)
	if res.Status != server.StatusDone {
		t.Fatalf("job did not survive worker death: %+v", res)
	}
	if res.Node == victim.id {
		t.Fatalf("job reportedly completed on the dead node %s", victim.id)
	}
	if res.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (forward to dead node, then retry)", res.Attempts)
	}
	// The report must not depend on which node ran the job.
	if a, b := base.Worker.Result, res.Worker.Result; a.RaceCount != b.RaceCount || a.Records != b.Records {
		t.Fatalf("failover changed the report: races %d→%d, records %d→%d",
			a.RaceCount, b.RaceCount, a.Records, b.Records)
	}

	// Eventually the registry declares the victim dead and drops it.
	deadline := time.Now().Add(10 * time.Second)
	for len(f.coord.Core().Nodes()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("dead worker never removed from the registry")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// A worker the coordinator forgot (dead timer fired while it was
// partitioned) re-joins automatically off the heartbeat 404.
func TestFleetWorkerRejoinsAfterForgotten(t *testing.T) {
	f := newTestFleet(t, 1)
	w := f.workers[0]

	// Forget the node coordinator-side; the worker keeps beating.
	f.coord.Core().Leave(w.id)
	f.waitNodes(1) // re-join happens on the next beat cycle

	code, info, _ := f.submit(racyJob())
	if code != http.StatusAccepted {
		t.Fatalf("submit after re-join: %d", code)
	}
	if res := f.wait(info.ID); res.Status != server.StatusDone {
		t.Fatalf("job after re-join: %+v", res)
	}
}

func TestFleetSubmitValidation(t *testing.T) {
	f := newTestFleet(t, 1)

	code, _, errj := f.submit(server.JobRequest{}) // neither ptx nor bench
	if code != http.StatusBadRequest || errj.Code != wire.CodeInvalidArgument {
		t.Fatalf("empty job: %d code %q, want 400 invalid_argument", code, errj.Code)
	}
	// The fleet runs one detector and schedules one queue: configuration
	// and class are fields no job has.
	body, _ := json.Marshal(racyJob())
	for field, value := range map[string]string{"config": `{"full_vc":true}`, "class": `"interactive"`} {
		code, _, errj = f.submit(append(body[:len(body)-1], `,"`+field+`":`+value+`}`...))
		if code != http.StatusBadRequest || errj.Code != wire.CodeInvalidArgument || !strings.Contains(errj.Error, `"`+field+`"`) {
			t.Fatalf("a job with a %q: %d %+v, want 400 invalid_argument naming the field", field, code, errj)
		}
	}
	code, info, errj := f.submit(racyJob())
	if code != http.StatusAccepted {
		t.Fatalf("the next job: %d %+v", code, errj)
	}
	res := f.wait(info.ID)
	if res.Status != server.StatusDone || res.Worker == nil || res.Worker.Result == nil {
		t.Fatalf("the next job: %+v", res)
	}
	rep, err := res.Worker.Result.CoreReport()
	if err != nil {
		t.Fatal(err)
	}
	s, err := detector.OpenPTX(racySrc, detector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lib, err := s.Detect("k", detector.Launch1D(1, 32, []uint64{s.Dev.MustAlloc(4)}, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.CanonicalDigest(), lib.Report.CanonicalDigest(); got != want {
		t.Errorf("the next job reported\n%s\nthe library\n%s", got, want)
	}
}

func TestFleetNoNodesUnavailable(t *testing.T) {
	coord := NewHTTPCoordinator(Options{})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { ts.Close(); coord.Close() })

	body, _ := json.Marshal(racyJob())
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var errj server.ErrorJSON
	json.NewDecoder(resp.Body).Decode(&errj)
	if errj.Code != wire.CodeUnavailable {
		t.Fatalf("code %q, want unavailable", errj.Code)
	}
	if !server.RetryableCode(errj.Code) {
		t.Fatal("no-nodes rejection must be retryable")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// A job that is invalid only at runtime (bad PTX passes shape checks)
// fails permanently without burning retries on other nodes.
func TestFleetBadJobNotRetriedAcrossFleet(t *testing.T) {
	f := newTestFleet(t, 3)
	_, info, _ := f.submit(server.JobRequest{PTX: "this is not ptx"})
	res := f.wait(info.ID)
	if res.Status != server.StatusFailed {
		t.Fatalf("bad PTX job: %+v", res)
	}
	if res.Attempts != 1 {
		t.Fatalf("bad job dispatched %d times, want exactly 1 (job fault, not node fault)", res.Attempts)
	}
}

func TestFleetControlEndpoints(t *testing.T) {
	f := newTestFleet(t, 2)

	resp, err := http.Get(f.coordTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string  `json:"status"`
		Nodes  float64 `json:"nodes"`
	}
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if hz.Status != "ok" || hz.Nodes != 2 {
		t.Fatalf("healthz = %+v", hz)
	}

	m := f.metrics()
	if len(m.Nodes) != 2 {
		t.Fatalf("metrics nodes = %d, want 2", len(m.Nodes))
	}
	for _, n := range m.Nodes {
		if n.State != "alive" {
			t.Fatalf("node %s state %q, want alive", n.ID, n.State)
		}
		if n.Capacity != 2 {
			t.Fatalf("node %s capacity %d, want 2 (worker's -workers)", n.ID, n.Capacity)
		}
	}

	// Heartbeats carry the worker's queue/cache stats within a beat or two.
	_, info, _ := f.submit(racyJob())
	f.wait(info.ID)
	deadline := time.Now().Add(5 * time.Second)
	for {
		var total int64
		for _, n := range f.coord.Core().Nodes() {
			total += n.Stats.Completed
		}
		if total >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker heartbeats never reported the completed job")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Regression for the stale-forward hole: a worker hang can outlive
// DeadAfter, so the coordinator evicts the node and re-dispatches the
// job while the old forward is still stuck in its poll. When that
// forward finally errors, failAssignment must recognize the report as
// stale and leave the proxy job alone — finishing it as failed would
// tell the client the job failed even though the retry completes.
func TestStaleFailAssignmentDoesNotFinishJob(t *testing.T) {
	// Huge heartbeat thresholds so the background ticker never evicts.
	h := NewHTTPCoordinator(Options{SuspectAfter: time.Hour, DeadAfter: 2 * time.Hour})
	t.Cleanup(h.Close)
	now := time.Now()
	h.Core().Join("node-a", "http://invalid.test", 1, now)
	h.Core().Join("node-b", "http://invalid.test", 1, now)

	pj := &proxyJob{id: "fjob-x", status: server.StatusQueued, done: make(chan struct{})}
	fj := &Job{ID: "fjob-x", Key: "k", Payload: pj}
	pj.fj = fj
	asgs, err := h.Core().Submit(fj, now)
	if err != nil || len(asgs) != 1 {
		t.Fatalf("submit: asgs=%v err=%v", asgs, err)
	}
	stale := asgs[0]

	// The assigned node dies while the (never-started) forward would be
	// hanging; the job re-routes to the survivor.
	moved := h.Core().Leave(stale.Node)
	if len(moved) != 1 || moved[0].Node == stale.Node {
		t.Fatalf("eviction re-dispatch = %v, want 1 assignment on the other node", moved)
	}

	// The stuck forward finally reports its poll error.
	h.failAssignment(stale, pj, true, "poll "+stale.Node+": timeout", wire.CodeUnavailable)

	select {
	case <-pj.done:
		t.Fatalf("stale failure report finished the job: %+v", pj.info())
	default:
	}
	if pj.terminal() {
		t.Fatalf("job terminal after stale report: %+v", pj.info())
	}
	if h.Core().InFlight() != 1 {
		t.Fatalf("in flight = %d, want 1 (live attempt untouched)", h.Core().InFlight())
	}
}

// listedIDs is the coordinator's retained history, in listing order.
func listedIDs(h *HTTPCoordinator) []string {
	var ids []string
	for _, pj := range h.jobs.List() {
		ids = append(ids, pj.id)
	}
	return ids
}

// Rolling back a failed submission must remove that submission's id,
// not whatever happens to be last in the listing order (a concurrent
// submit may have appended since the id was put).
func TestSubmitRollbackRemovesCorrectJob(t *testing.T) {
	h := NewHTTPCoordinator(Options{})
	t.Cleanup(h.Close)
	for _, id := range []string{"fjob-1", "fjob-2"} {
		pj := &proxyJob{id: id, status: server.StatusQueued, done: make(chan struct{})}
		pj.fj = &Job{ID: id, Payload: pj}
		h.jobs.Put(id, pj)
	}
	h.jobs.Drop("fjob-1") // fjob-2 appended after fjob-1's submit failed
	if ids := listedIDs(h); len(ids) != 1 || ids[0] != "fjob-2" {
		t.Fatalf("order = %v, want [fjob-2]", ids)
	}
	if _, ok := h.jobs.Get("fjob-2"); !ok {
		t.Fatal("rollback dropped the concurrent submission's job")
	}
	if _, ok := h.jobs.Get("fjob-1"); ok {
		t.Fatal("rolled-back job still in the table")
	}
}

// The coordinator's job history is the scheduler's server.History:
// oldest terminal jobs are forgotten past MaxJobs, live jobs are never
// dropped, and a terminal job releases its retained request payload.
func TestJobHistoryBounded(t *testing.T) {
	h := NewHTTPCoordinator(Options{MaxJobs: 2})
	t.Cleanup(h.Close)
	add := func(id string, terminal bool) *proxyJob {
		pj := &proxyJob{id: id, status: server.StatusQueued, done: make(chan struct{}), reqCopy: racyJob()}
		pj.fj = &Job{ID: id, Payload: pj}
		if terminal {
			pj.finish(server.StatusDone, "", "", nil)
		}
		h.jobs.Put(id, pj)
		return pj
	}

	done := add("fjob-1", true)
	if done.reqCopy.PTX != "" {
		t.Fatal("terminal job still retains its PTX payload")
	}
	add("fjob-2", true)
	add("fjob-3", true)
	if ids := listedIDs(h); len(ids) != 2 || ids[0] != "fjob-2" {
		t.Fatalf("order = %v, want oldest terminal job evicted", ids)
	}
	if _, ok := h.jobs.Get("fjob-1"); ok {
		t.Fatal("evicted job still in the table")
	}

	// A live job pins the history even past the cap.
	add("fjob-4", false)
	add("fjob-5", true)
	add("fjob-6", true)
	if ids := listedIDs(h); len(ids) != 3 || ids[0] != "fjob-4" {
		t.Fatalf("order = %v, want live fjob-4 retained with everything after it", ids)
	}
}

// An unknown node's heartbeat gets 404 + not_found so the worker knows
// to re-join rather than retry forever.
func TestFleetHeartbeatUnknownNode(t *testing.T) {
	coord := NewHTTPCoordinator(Options{})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { ts.Close(); coord.Close() })

	body, _ := json.Marshal(HeartbeatRequest{ID: "ghost"})
	resp, err := http.Post(ts.URL+"/fleet/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var errj server.ErrorJSON
	json.NewDecoder(resp.Body).Decode(&errj)
	if errj.Code != server.CodeNotFound {
		t.Fatalf("code %q, want not_found", errj.Code)
	}
}

// TestFleetHealthzDuringMembershipChurn reads /healthz while workers
// join and leave: the node count is ring state, which Join and Leave
// mutate under the coordinator's lock. Meaningful under -race.
func TestFleetHealthzDuringMembershipChurn(t *testing.T) {
	coord := NewHTTPCoordinator(Options{})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { ts.Close(); coord.Close() })

	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; i < 200; i++ {
			id := fmt.Sprintf("w-%02d", i%4)
			coord.Core().Join(id, "http://127.0.0.1:0", 1, time.Now())
			coord.Core().Leave(id)
		}
	}()
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var hz struct {
			Nodes int `json:"nodes"`
		}
		err = json.NewDecoder(resp.Body).Decode(&hz)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hz.Nodes > 1 {
			t.Fatalf("healthz nodes = %d with at most one worker joined", hz.Nodes)
		}
		select {
		case <-churned:
			return
		default:
		}
	}
}
