package fleet

import (
	"fmt"
	"testing"
	"time"

	"barracuda/internal/server"
)

// fakeFleet drives a Coordinator through its passive event interface,
// tracking assignments the way a driver would.
type fakeFleet struct {
	t     *testing.T
	c     *Coordinator
	now   time.Time
	onjob map[string]string // job ID → node currently running it
}

func newFakeFleet(t *testing.T, opt Options, nodes int, capacity int) *fakeFleet {
	f := &fakeFleet{
		t: t, c: NewCoordinator(opt),
		now:   time.Unix(10_000, 0),
		onjob: make(map[string]string),
	}
	for i := 0; i < nodes; i++ {
		f.record(f.c.Join(fmt.Sprintf("node-%02d", i), "test://", capacity, f.now))
	}
	return f
}

func (f *fakeFleet) record(asgs []Assignment) {
	f.t.Helper()
	for _, a := range asgs {
		for _, ex := range a.Job.Excluded() {
			if ex == a.Node {
				f.t.Fatalf("job %s assigned to excluded node %s", a.Job.ID, a.Node)
			}
		}
		f.onjob[a.Job.ID] = a.Node
	}
}

func (f *fakeFleet) submit(id, key, class string) {
	f.t.Helper()
	asgs, err := f.c.Submit(&Job{ID: id, Key: key, Class: class}, f.now)
	if err != nil {
		f.t.Fatalf("submit %s: %v", id, err)
	}
	f.record(asgs)
}

func (f *fakeFleet) complete(id string) {
	f.t.Helper()
	node, ok := f.onjob[id]
	if !ok {
		f.t.Fatalf("complete %s: not running", id)
	}
	delete(f.onjob, id)
	asgs, live := f.c.Complete(node, id, false)
	if !live {
		f.t.Fatalf("complete %s: coordinator says the assignment is stale", id)
	}
	f.record(asgs)
}

func TestSubmitNoNodes(t *testing.T) {
	c := NewCoordinator(Options{})
	if _, err := c.Submit(&Job{ID: "j", Key: "k"}, time.Now()); err != ErrNoNodes {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
}

func TestRoutingFollowsRing(t *testing.T) {
	f := newFakeFleet(t, Options{}, 4, 2)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		id := fmt.Sprintf("j-%d", i)
		f.submit(id, key, server.ClassBatch)
		want := f.c.ring.Primary(key)
		if got := f.onjob[id]; got != want {
			t.Fatalf("job %s (key %s) on %s, ring primary is %s", id, key, got, want)
		}
		f.complete(id)
	}
	st := f.c.Stats()
	if st.PrimaryHits != st.Dispatched {
		t.Fatalf("idle fleet: %d/%d dispatches on primary, want all", st.PrimaryHits, st.Dispatched)
	}
}

// Reserved slot: batch can occupy at most capacity-1 slots of a node, so
// an interactive job submitted into a batch flood dispatches immediately.
func TestInteractiveReservedSlotAndQueueJump(t *testing.T) {
	f := newFakeFleet(t, Options{NoSpill: true}, 1, 3)
	// Saturate the batch share (cap 3 → batchCap 2) and build a backlog.
	for i := 0; i < 5; i++ {
		f.submit(fmt.Sprintf("b-%d", i), "key", server.ClassBatch)
	}
	running := len(f.onjob)
	if running != 2 {
		t.Fatalf("%d batch running, want 2 (reserved slot must stay free)", running)
	}
	// Interactive lands instantly in the reserved slot, past 3 queued batch.
	f.submit("i-0", "key", server.ClassInteractive)
	if _, ok := f.onjob["i-0"]; !ok {
		t.Fatal("interactive job queued behind batch backlog")
	}
	if st := f.c.Stats(); st.QueueJumps == 0 {
		t.Fatal("queue-jump not counted")
	}
	// A second interactive has no free slot and must wait...
	f.submit("i-1", "key", server.ClassInteractive)
	if _, ok := f.onjob["i-1"]; ok {
		t.Fatal("interactive dispatched with zero free slots")
	}
	// ...but dispatches before any queued batch when a batch job finishes.
	f.complete("b-0")
	if _, ok := f.onjob["i-1"]; !ok {
		t.Fatal("freed slot went to batch before queued interactive")
	}
}

func TestRetryWithExclusionWalksRing(t *testing.T) {
	f := newFakeFleet(t, Options{MaxAttempts: 4}, 4, 1)
	f.submit("j", "some-key", server.ClassBatch)

	seq := f.c.ring.Sequence("some-key")
	visited := []string{f.onjob["j"]}
	for i := 0; i < 2; i++ {
		node := f.onjob["j"]
		delete(f.onjob, "j")
		asgs, outcome := f.c.Fail(node, "j", true)
		if outcome != FailRequeued {
			t.Fatalf("fail %d: outcome %v, want FailRequeued", i+1, outcome)
		}
		f.record(asgs)
		next, ok := f.onjob["j"]
		if !ok {
			t.Fatalf("fail %d: job not re-dispatched", i+1)
		}
		visited = append(visited, next)
	}
	// Failover must walk the ring sequence in order, never revisiting.
	for i, n := range visited {
		if n != seq[i] {
			t.Fatalf("attempt %d on %s, want ring successor %s (seq %v, visited %v)",
				i+1, n, seq[i], seq, visited)
		}
	}
	// Fourth dispatch is attempt 4 = MaxAttempts; its failure is permanent.
	node := f.onjob["j"]
	delete(f.onjob, "j")
	asgs, outcome := f.c.Fail(node, "j", true)
	f.record(asgs)
	if outcome != FailRequeued {
		t.Fatal("attempt 3 failure should still requeue (MaxAttempts=4)")
	}
	node = f.onjob["j"]
	if _, outcome = f.c.Fail(node, "j", true); outcome != FailTerminal {
		t.Fatalf("past MaxAttempts: outcome %v, want FailTerminal", outcome)
	}
	if st := f.c.Stats(); st.FailedPerm != 1 {
		t.Fatalf("FailedPerm = %d, want 1", st.FailedPerm)
	}
}

func TestPermanentFailureNotRetried(t *testing.T) {
	f := newFakeFleet(t, Options{}, 2, 1)
	f.submit("j", "k", server.ClassBatch)
	node := f.onjob["j"]
	if _, outcome := f.c.Fail(node, "j", false); outcome != FailTerminal {
		t.Fatalf("non-retryable failure: outcome %v, want FailTerminal", outcome)
	}
}

// Dead-node eviction: jobs in flight on a node that misses heartbeats
// past DeadAfter are requeued with that node excluded and re-routed.
func TestTickEvictsDeadNodeAndRequeues(t *testing.T) {
	f := newFakeFleet(t, Options{SuspectAfter: 2 * time.Second, DeadAfter: 6 * time.Second}, 3, 2)
	var mine string
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("key-%d", i)
		if f.c.ring.Primary(key) == "node-00" {
			mine = key
			break
		}
	}
	if mine == "" {
		t.Fatal("no key routed to node-00")
	}
	f.submit("j", mine, server.ClassBatch)
	if f.onjob["j"] != "node-00" {
		t.Fatalf("setup: job on %s", f.onjob["j"])
	}

	// Everyone else keeps beating; node-00 goes silent.
	beat := func(at time.Time) {
		for _, id := range []string{"node-01", "node-02"} {
			_, asgs := f.c.Heartbeat(id, server.HeartbeatStats{}, at)
			f.record(asgs)
		}
	}
	beat(f.now.Add(3 * time.Second))
	f.record(f.c.Tick(f.now.Add(3 * time.Second))) // node-00 suspect
	if n, _ := f.c.Node("node-00"); n.State != StateSuspect {
		t.Fatalf("node-00 state %v, want suspect", n.State)
	}
	if f.c.InFlight() != 1 {
		t.Fatal("suspect transition must not requeue in-flight work")
	}

	beat(f.now.Add(7 * time.Second))
	delete(f.onjob, "j")
	f.record(f.c.Tick(f.now.Add(7 * time.Second))) // node-00 dead
	if _, ok := f.c.Node("node-00"); ok {
		t.Fatal("dead node still registered")
	}
	node, ok := f.onjob["j"]
	if !ok {
		t.Fatal("evicted job not re-dispatched")
	}
	if node == "node-00" {
		t.Fatal("job re-routed to the dead node")
	}
	if st := f.c.Stats(); st.Requeued != 1 {
		t.Fatalf("Requeued = %d, want 1", st.Requeued)
	}
}

// A failure report for an assignment the coordinator already evicted
// and re-routed is stale, not terminal: the HTTP forwarder's poll can
// outlive DeadAfter, so by the time the old forward errors out the job
// may be running (or done) on another node. Treating that report as a
// permanent failure would tell the client the job failed even though
// the retry completes (the reviewer's zero-job-loss hole).
func TestStaleFailureReportIgnored(t *testing.T) {
	f := newFakeFleet(t, Options{SuspectAfter: 2 * time.Second, DeadAfter: 6 * time.Second}, 3, 2)
	f.submit("j", "k", server.ClassBatch)
	first := f.onjob["j"]

	// Everyone but the job's node keeps beating; the job's node dies.
	beat := func(at time.Time) {
		for i := 0; i < 3; i++ {
			id := fmt.Sprintf("node-%02d", i)
			if id == first {
				continue
			}
			_, asgs := f.c.Heartbeat(id, server.HeartbeatStats{}, at)
			f.record(asgs)
		}
	}
	beat(f.now.Add(7 * time.Second))
	f.record(f.c.Tick(f.now.Add(7 * time.Second))) // first declared dead, job re-routed
	second, ok := f.onjob["j"]
	if !ok || second == first {
		t.Fatalf("evicted job on %q (was %q), want re-dispatch elsewhere", second, first)
	}

	// The old forward finally reports its connection error.
	asgs, outcome := f.c.Fail(first, "j", true)
	f.record(asgs)
	if outcome != FailStale {
		t.Fatalf("stale failure report: outcome %v, want FailStale", outcome)
	}
	if f.c.InFlight() != 1 {
		t.Fatalf("stale report perturbed the live attempt: %d in flight, want 1", f.c.InFlight())
	}
	if st := f.c.Stats(); st.FailedPerm != 0 {
		t.Fatalf("stale report counted as permanent failure (FailedPerm=%d)", st.FailedPerm)
	}

	// Same for a stale completion: only the live assignment counts.
	if _, live := f.c.Complete(first, "j", false); live {
		t.Fatal("stale completion reported as live")
	}
	if _, live := f.c.Complete(second, "j", false); !live {
		t.Fatal("live completion reported as stale")
	}
	if st := f.c.Stats(); st.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", st.Completed)
	}
}

// Suspect nodes get no NEW work but a heartbeat revives them and drains
// the queue to them again.
func TestSuspectExcludedFromRoutingUntilRevived(t *testing.T) {
	f := newFakeFleet(t, Options{SuspectAfter: 2 * time.Second, DeadAfter: 20 * time.Second}, 1, 2)
	f.record(f.c.Tick(f.now.Add(3 * time.Second)))
	f.submit("j", "k", server.ClassBatch)
	if len(f.onjob) != 0 {
		t.Fatal("job dispatched to a suspect node")
	}
	_, asgs := f.c.Heartbeat("node-00", server.HeartbeatStats{}, f.now.Add(4*time.Second))
	f.record(asgs)
	if _, ok := f.onjob["j"]; !ok {
		t.Fatal("revived node did not drain the queue")
	}
}

func TestLeaveRequeuesInOrder(t *testing.T) {
	f := newFakeFleet(t, Options{NoSpill: true}, 1, 3)
	f.submit("j-0", "k", server.ClassBatch)
	f.submit("j-1", "k", server.ClassBatch)
	if len(f.onjob) != 2 {
		t.Fatalf("setup: %d running, want 2", len(f.onjob))
	}
	f.onjob = map[string]string{}
	f.record(f.c.Leave("node-00"))
	if len(f.onjob) != 0 {
		t.Fatal("jobs dispatched with an empty fleet")
	}
	// A fresh node picks the requeued jobs back up in submission order.
	f.record(f.c.Join("node-99", "test://", 3, f.now))
	if f.onjob["j-0"] != "node-99" || f.onjob["j-1"] != "node-99" {
		t.Fatalf("requeued jobs not re-dispatched: %v", f.onjob)
	}
}

func TestBatchSpillToIdle(t *testing.T) {
	f := newFakeFleet(t, Options{}, 2, 2)
	// Find a key whose primary is node-00, saturate its batch share.
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("key-%d", i)
		if f.c.ring.Primary(key) == "node-00" {
			break
		}
	}
	f.submit("b-0", key, server.ClassBatch) // node-00 batchCap=1 → saturated
	f.submit("b-1", key, server.ClassBatch) // primary busy, node-01 idle → spill
	if f.onjob["b-1"] != "node-01" {
		t.Fatalf("job b-1 on %s, want spill to idle node-01", f.onjob["b-1"])
	}
	if st := f.c.Stats(); st.Spills != 1 {
		t.Fatalf("Spills = %d, want 1", st.Spills)
	}

	// With NoSpill the same shape queues instead.
	f2 := newFakeFleet(t, Options{NoSpill: true}, 2, 2)
	f2.submit("b-0", key, server.ClassBatch)
	f2.submit("b-1", key, server.ClassBatch)
	if _, ok := f2.onjob["b-1"]; ok {
		t.Fatal("NoSpill coordinator spilled anyway")
	}
}
