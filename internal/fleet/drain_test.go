package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"barracuda/internal/server"
)

// inFlightOn counts jobs currently assigned to one node.
func inFlightOn(c *Coordinator, node string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight[node])
}

// keysForPrimary picks n distinct ring keys whose primary is the given
// node, so tests can aim jobs at a specific worker deterministically.
func keysForPrimary(c *Coordinator, node string, n int) []string {
	var keys []string
	for i := 0; len(keys) < n && i < 10_000; i++ {
		k := fmt.Sprintf("drainkey-%d", i)
		if c.ring.Sequence(k)[0] == node {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestDrainCompletesInFlightWithoutRequeue is the clean-drain contract:
// a draining node gets no new work, its in-flight jobs run to
// completion on it (never requeued), heartbeats don't revive it, and
// the registry removes it exactly when the last job reports back.
func TestDrainCompletesInFlightWithoutRequeue(t *testing.T) {
	f := newFakeFleet(t, Options{}, 2, 4)
	target := "node-00"
	other := "node-01"

	keys := keysForPrimary(f.c, target, 2)
	if len(keys) < 2 {
		t.Fatalf("could not find 2 keys with primary %s", target)
	}
	f.submit("t-0", keys[0])
	f.submit("t-1", keys[1])
	for _, id := range []string{"t-0", "t-1"} {
		if f.onjob[id] != target {
			t.Fatalf("job %s routed to %s, want %s", id, f.onjob[id], target)
		}
	}

	asgs, inflight, known := f.c.Drain(target, f.now)
	f.record(asgs)
	if !known || inflight != 2 {
		t.Fatalf("Drain = (inflight=%d, known=%v), want (2, true)", inflight, known)
	}
	info, ok := f.c.Node(target)
	if !ok || info.State != StateDraining {
		t.Fatalf("node state after drain = %v (known=%v), want draining", info.State, ok)
	}

	// A heartbeat keeps the node known but must not revive it to Alive.
	f.now = f.now.Add(time.Second)
	hbKnown, hbAsgs := f.c.Heartbeat(target, server.HeartbeatStats{}, f.now)
	f.record(hbAsgs)
	if !hbKnown {
		t.Fatal("heartbeat during drain reported the node unknown")
	}
	if info, _ := f.c.Node(target); info.State != StateDraining {
		t.Fatalf("heartbeat revived draining node to %v", info.State)
	}

	// New work whose ring primary was the draining node re-routes away.
	for i, k := range keysForPrimary(f.c, target, 2) {
		id := fmt.Sprintf("re-%d", i)
		f.submit(id, k)
		if f.onjob[id] != other {
			t.Fatalf("job %s routed to %s during drain, want %s", id, f.onjob[id], other)
		}
	}

	// Completions finish the drain one job at a time.
	f.complete("t-0")
	if _, ok := f.c.Node(target); !ok {
		t.Fatal("node removed with a job still in flight")
	}
	f.complete("t-1")
	if _, ok := f.c.Node(target); ok {
		t.Fatal("node still registered after its last in-flight job completed")
	}

	st := f.c.Stats()
	if st.Requeued != 0 {
		t.Errorf("clean drain requeued %d job(s), want 0", st.Requeued)
	}
	if st.Drained != 1 {
		t.Errorf("Drained = %d, want 1", st.Drained)
	}
}

// TestDrainIdleNodeRemovesImmediately: nothing in flight means the
// drain finishes in the same call.
func TestDrainIdleNodeRemovesImmediately(t *testing.T) {
	f := newFakeFleet(t, Options{}, 2, 2)
	asgs, inflight, known := f.c.Drain("node-00", f.now)
	f.record(asgs)
	if !known || inflight != 0 {
		t.Fatalf("Drain = (inflight=%d, known=%v), want (0, true)", inflight, known)
	}
	if _, ok := f.c.Node("node-00"); ok {
		t.Fatal("idle node still registered after drain")
	}
	if _, _, known := f.c.Drain("node-00", f.now); known {
		t.Fatal("second drain of a removed node reported it known")
	}
	if st := f.c.Stats(); st.Requeued != 0 || st.Drained != 1 {
		t.Errorf("stats = %+v, want Requeued=0 Drained=1", st)
	}
}

// TestDrainSurvivesTickButNotSilence: the suspect timer must not demote
// a draining node (its beat may be slow while it finishes work), but a
// node that goes fully silent past the dead threshold mid-drain is a
// crash — its jobs requeue like any other death.
func TestDrainSurvivesTickButNotSilence(t *testing.T) {
	f := newFakeFleet(t, Options{}, 2, 4)
	target := "node-00"
	keys := keysForPrimary(f.c, target, 1)
	f.submit("t-0", keys[0])
	asgs, _, _ := f.c.Drain(target, f.now)
	f.record(asgs)

	beat01 := func() {
		_, asgs := f.c.Heartbeat("node-01", server.HeartbeatStats{}, f.now)
		f.record(asgs)
	}

	// Past the suspect threshold: still draining, not suspect.
	f.now = f.now.Add(6 * time.Second)
	beat01()
	f.record(f.c.Tick(f.now))
	if info, ok := f.c.Node(target); !ok || info.State != StateDraining {
		t.Fatalf("state past suspect threshold = %v (known=%v), want draining", info.State, ok)
	}

	// Past the dead threshold with no beats: the node dies and its
	// in-flight job goes back to the queue (node-01 keeps beating).
	f.now = f.now.Add(20 * time.Second)
	beat01()
	f.record(f.c.Tick(f.now))
	if _, ok := f.c.Node(target); ok {
		t.Fatal("silent draining node not declared dead")
	}
	if st := f.c.Stats(); st.Requeued != 1 {
		t.Errorf("Requeued = %d after mid-drain death, want 1", st.Requeued)
	}
	if node := f.onjob["t-0"]; node != "node-01" {
		t.Errorf("job t-0 on %s after mid-drain death, want node-01", node)
	}
}

// TestWorkerLinkDrainEndToEnd exercises the HTTP surface: a real worker
// with a job in flight drains via SIGTERM's code path (link.Drain), the
// job finishes on that worker, and nothing is requeued.
func TestWorkerLinkDrainEndToEnd(t *testing.T) {
	f := newTestFleet(t, 2)

	// A kernel that spins long enough for the drain to start while the
	// job is still running.
	const spin = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	cvt.u64.u32 %rd2, %r2;
	add.u64 %rd3, %rd1, %rd2;
	mov.u32 %r3, 0;
LOOP:
	add.u32 %r3, %r3, 1;
	setp.lt.u32 %p1, %r3, 262144;
	@%p1 bra LOOP;
	st.global.u32 [%rd3], %r3;
	ret;
}`
	code, info, errj := f.submit(server.JobRequest{
		PTX: spin, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{128},
		TimeoutMS: 20_000, MaxInstrs: 1 << 24,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", code, errj.Error)
	}

	// Find the worker the coordinator routed the job to and drain it.
	var running *testWorker
	for _, w := range f.workers {
		if inFlightOn(f.coord.Core(), w.id) > 0 {
			running = w
			break
		}
	}
	if running == nil {
		// The job may have already finished on a fast machine; drain any
		// worker — the invariants below still hold.
		running = f.workers[0]
	}
	if !running.link.Drain(15 * time.Second) {
		t.Fatal("drain did not complete cleanly")
	}

	done := f.wait(info.ID)
	if done.Status != server.StatusDone {
		t.Fatalf("job after drain: %s (%s)", done.Status, done.Error)
	}
	st := f.coord.Core().Stats()
	if st.Requeued != 0 {
		t.Errorf("clean drain requeued %d job(s)", st.Requeued)
	}
	if st.Drained != 1 {
		t.Errorf("Drained = %d, want 1", st.Drained)
	}
	for _, n := range f.coord.Core().Nodes() {
		if n.ID == running.id {
			t.Errorf("drained node %s still registered (state %s)", n.ID, n.State)
		}
	}
	// Drain stopped the link; mark the worker dead for cleanup purposes.
	running.ts.Close()
	running.srv.Close()
	running.ts = nil
}

// TestDrainHTTPUnknownNode: draining a node the coordinator never saw
// is a 404 — the worker treats that as "nothing to do" and exits.
func TestDrainHTTPUnknownNode(t *testing.T) {
	f := newTestFleet(t, 1)
	body := []byte(`{"id":"ghost"}`)
	resp, err := http.Post(f.coordTS.URL+"/fleet/drain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain of unknown node: %d, want 404", resp.StatusCode)
	}
	var ej server.ErrorJSON
	json.NewDecoder(resp.Body).Decode(&ej)
	if ej.Code != server.CodeNotFound {
		t.Errorf("error code = %q, want %q", ej.Code, server.CodeNotFound)
	}
}
