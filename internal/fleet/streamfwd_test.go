package fleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
	if n := f.coord.jsonFwds.Load(); n != 0 {
		t.Fatalf("streamable job fell back to JSON %d times", n)
	}
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

// TestStreamForwardFallbackOldWorker: a worker whose /v1/stream does
// not exist (pre-protocol daemon) still gets jobs — the refused upgrade
// drops that forward to the JSON path.
func TestStreamForwardFallbackOldWorker(t *testing.T) {
	f := &testFleet{t: t}
	f.coord = NewHTTPCoordinator(Options{
		SuspectAfter: 400 * time.Millisecond,
		DeadAfter:    1200 * time.Millisecond,
	})
	f.coordTS = httptest.NewServer(f.coord.Handler())
	t.Cleanup(func() {
		f.coordTS.Close()
		f.coord.Close()
	})

	// Wrap a real worker so the stream endpoint answers like an old
	// daemon (404, no upgrade) while the JSON surface works.
	srv := server.New(server.SchedulerOptions{Workers: 2, QueueCap: 64, CacheEntries: 8})
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

	code, info, errj := f.submit(racyJob())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %+v", code, errj)
	}
	done := f.wait(info.ID)
	if done.Status != server.StatusDone {
		t.Fatalf("job: %+v", done)
	}
	if done.Worker == nil || done.Worker.Result == nil || done.Worker.Result.RaceCount == 0 {
		t.Fatalf("fallback result missing races: %+v", done.Worker)
	}
	if n := f.coord.jsonFwds.Load(); n == 0 {
		t.Fatal("refused upgrade did not fall back to JSON")
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
