package fleet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"barracuda/internal/server"
)

// fakeFleet drives a Coordinator through its passive event interface,
// tracking assignments the way a driver would.
type fakeFleet struct {
	t      *testing.T
	c      *Coordinator
	now    time.Time
	onjob  map[string]string // job ID → node currently running it
	failed map[string]bool   // jobs an Assignment with no Node ended
}

func newFakeFleet(t *testing.T, opt Options, nodes int, capacity int) *fakeFleet {
	f := &fakeFleet{
		t: t, c: NewCoordinator(opt),
		now:    time.Unix(10_000, 0),
		onjob:  make(map[string]string),
		failed: make(map[string]bool),
	}
	for i := 0; i < nodes; i++ {
		f.record(f.c.Join(fmt.Sprintf("node-%02d", i), "test://", capacity, f.now))
	}
	return f
}

func (f *fakeFleet) record(asgs []Assignment) {
	f.t.Helper()
	for _, a := range asgs {
		if a.Node == "" {
			delete(f.onjob, a.Job.ID)
			f.failed[a.Job.ID] = true
			continue
		}
		for _, ex := range a.Job.Excluded() {
			if ex == a.Node {
				f.t.Fatalf("job %s assigned to excluded node %s", a.Job.ID, a.Node)
			}
		}
		f.onjob[a.Job.ID] = a.Node
	}
}

func (f *fakeFleet) submit(id, key string) {
	f.t.Helper()
	asgs, err := f.c.Submit(&Job{ID: id, Key: key}, f.now)
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
		f.submit(id, key)
		want := f.c.ring.Sequence(key)[0]
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

// A job gets five attempts: four retryable failures walk it down the
// ring, never back to a node it failed on, and the fifth is permanent
// although a sixth node it never tried is free.
func TestRetryWithExclusionWalksRing(t *testing.T) {
	f := newFakeFleet(t, Options{}, 6, 1)
	f.submit("j", "some-key")

	seq := f.c.ring.Sequence("some-key")
	visited := []string{f.onjob["j"]}
	for i := 1; i <= 4; i++ {
		node := f.onjob["j"]
		delete(f.onjob, "j")
		asgs, outcome := f.c.Fail(node, "j", true)
		if outcome != FailRequeued {
			t.Fatalf("fail %d: outcome %v, want FailRequeued", i, outcome)
		}
		f.record(asgs)
		next, ok := f.onjob["j"]
		if !ok {
			t.Fatalf("fail %d: job not re-dispatched", i)
		}
		visited = append(visited, next)
	}
	for i, n := range visited {
		if n != seq[i] {
			t.Fatalf("attempt %d on %s, want ring successor %s (seq %v, visited %v)",
				i+1, n, seq[i], seq, visited)
		}
	}
	if _, outcome := f.c.Fail(f.onjob["j"], "j", true); outcome != FailTerminal {
		t.Fatalf("fifth failure: outcome %v, want FailTerminal", outcome)
	}
	if st := f.c.Stats(); st.FailedPerm != 1 || st.Retries != 4 {
		t.Fatalf("FailedPerm = %d, Retries = %d, want 1 and 4", st.FailedPerm, st.Retries)
	}
}

func TestPermanentFailureNotRetried(t *testing.T) {
	f := newFakeFleet(t, Options{}, 2, 1)
	f.submit("j", "k")
	node := f.onjob["j"]
	if _, outcome := f.c.Fail(node, "j", false); outcome != FailTerminal {
		t.Fatalf("non-retryable failure: outcome %v, want FailTerminal", outcome)
	}
}

// A job every ring node has refused fails at the last refusal: it could
// route nowhere, and used to stay queued, with nothing in flight, for good.
func TestRefusedEverywhereFails(t *testing.T) {
	f := newFakeFleet(t, Options{}, 2, 1)
	f.submit("j", "k")
	first := f.onjob["j"]
	asgs, outcome := f.c.Fail(first, "j", true)
	if outcome != FailRequeued {
		t.Fatalf("first refusal: outcome %v, want FailRequeued", outcome)
	}
	f.record(asgs)
	if f.onjob["j"] == first {
		t.Fatalf("job re-dispatched to %s, which refused it", first)
	}
	if _, outcome := f.c.Fail(f.onjob["j"], "j", true); outcome != FailTerminal {
		t.Fatalf("refusal by the last ring node: outcome %v, want FailTerminal", outcome)
	}
	if f.c.QueueDepth() != 0 || f.c.InFlight() != 0 {
		t.Fatalf("queue %d, in flight %d, want the job gone", f.c.QueueDepth(), f.c.InFlight())
	}
	if st := f.c.Stats(); st.FailedPerm != 1 || st.Retries != 1 {
		t.Fatalf("FailedPerm = %d, Retries = %d, want 1 and 1", st.FailedPerm, st.Retries)
	}
}

// A job its primary refused, whose successor is then declared dead,
// excludes both nodes while the primary is still on the ring: it fails at
// the eviction, reported as an Assignment with no Node, where it used to
// be requeued to wait for good.
func TestEvictionStrandedJobFails(t *testing.T) {
	f := newFakeFleet(t, Options{}, 2, 1)
	f.submit("j", "k")
	primary := f.onjob["j"]
	asgs, outcome := f.c.Fail(primary, "j", true)
	if outcome != FailRequeued {
		t.Fatalf("primary's refusal: outcome %v, want FailRequeued", outcome)
	}
	f.record(asgs)
	successor, ok := f.onjob["j"]
	if !ok || successor == primary {
		t.Fatalf("job not re-dispatched to the successor (on %q)", successor)
	}
	// The primary keeps beating; the successor goes silent until dead.
	for _, at := range []time.Duration{5 * time.Second, 10 * time.Second, 16 * time.Second} {
		_, asgs := f.c.Heartbeat(primary, server.HeartbeatStats{}, f.now.Add(at))
		f.record(asgs)
		f.record(f.c.Tick(f.now.Add(at)))
	}
	if _, ok := f.c.Node(successor); ok {
		t.Fatalf("successor %s still registered", successor)
	}
	if f.c.Routable() != 1 {
		t.Fatalf("%d nodes on the ring, want the primary alone", f.c.Routable())
	}
	if !f.failed["j"] {
		t.Fatalf("job not failed: on %q, queue %d", f.onjob["j"], f.c.QueueDepth())
	}
	if f.c.QueueDepth() != 0 || f.c.InFlight() != 0 {
		t.Fatalf("queue %d, in flight %d, want the job gone", f.c.QueueDepth(), f.c.InFlight())
	}
	if st := f.c.Stats(); st.FailedPerm != 1 || st.Requeued != 1 {
		t.Fatalf("FailedPerm = %d, Requeued = %d, want 1 and 1", st.FailedPerm, st.Requeued)
	}
}

// BenchmarkCompleteWithBacklog: one Complete on a full one-slot node
// dispatches the head of the queue. Its cost should not grow with the
// jobs waiting behind it, none of which can route.
func BenchmarkCompleteWithBacklog(b *testing.B) {
	for _, queued := range []int{10, 1000, 10000} {
		b.Run(fmt.Sprint(queued), func(b *testing.B) {
			c := NewCoordinator(Options{})
			now := time.Unix(10_000, 0)
			c.Join("node-00", "test://", 1, now)
			n := 0
			submit := func() []Assignment {
				n++
				asgs, err := c.Submit(&Job{ID: fmt.Sprint("j-", n), Key: fmt.Sprint("key-", n)}, now)
				if err != nil {
					b.Fatal(err)
				}
				return asgs
			}
			running := submit()[0].Job.ID
			for range queued {
				submit()
			}
			b.ResetTimer()
			for range b.N {
				asgs, live := c.Complete("node-00", running, false)
				if !live || len(asgs) != 1 {
					b.Fatalf("complete: live %v, %d assignments, want the head dispatched", live, len(asgs))
				}
				running = asgs[0].Job.ID
				b.StopTimer()
				submit()
				b.StartTimer()
			}
		})
	}
}

// Dead-node eviction: jobs in flight on a node that misses heartbeats
// past DeadAfter are requeued with that node excluded and re-routed.
func TestTickEvictsDeadNodeAndRequeues(t *testing.T) {
	f := newFakeFleet(t, Options{SuspectAfter: 2 * time.Second, DeadAfter: 6 * time.Second}, 3, 2)
	var mine string
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("key-%d", i)
		if f.c.ring.Sequence(key)[0] == "node-00" {
			mine = key
			break
		}
	}
	if mine == "" {
		t.Fatal("no key routed to node-00")
	}
	f.submit("j", mine)
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
	f.submit("j", "k")
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
	f.submit("j", "k")
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
	f := newFakeFleet(t, Options{}, 1, 3)
	f.submit("j-0", "k")
	f.submit("j-1", "k")
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

// One rule: a job takes the first node of its key's ring sequence with a
// free slot, so the primary's every slot fills before a successor sees
// the key, and only the overflow runs off the primary.
func TestPrimaryTakesEverySlotFirst(t *testing.T) {
	f := newFakeFleet(t, Options{}, 2, 2)
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("key-%d", i)
		if f.c.ring.Sequence(key)[0] == "node-00" {
			break
		}
	}
	f.submit("j-0", key)
	f.submit("j-1", key)
	if f.onjob["j-0"] != "node-00" || f.onjob["j-1"] != "node-00" {
		t.Fatalf("two jobs on a two-slot primary ran on %s and %s, want node-00 twice", f.onjob["j-0"], f.onjob["j-1"])
	}
	f.submit("j-2", key)
	if f.onjob["j-2"] != "node-01" {
		t.Fatalf("the third job ran on %q, want the successor node-01", f.onjob["j-2"])
	}
	if st := f.c.Stats(); st.Dispatched-st.PrimaryHits != 1 {
		t.Fatalf("%d of %d dispatches off the primary, want 1", st.Dispatched-st.PrimaryHits, st.Dispatched)
	}
}

// vloop drives a fakeFleet through virtual time, one event at a time:
// job arrivals, a heap of pending completions, a heartbeat from every
// node each second, a tick every half second and an optional hang. One
// seeded RNG decides everything random, so a seed names one schedule,
// and log holds every assignment in the order the coordinator made it.
type vloop struct {
	*fakeFleet
	rng   *rand.Rand
	start time.Time
	nodes int
	slots int // per node

	failP  float64 // a dispatch ends in a retryable failure
	dropP  float64 // a heartbeat is lost
	hang   string  // this node goes silent at hangAt, never to answer again ("": none)
	hangAt time.Duration

	pending  pendingHeap
	seq      int
	hung     bool            // hangAt has passed
	short    map[string]bool // jobs served in 1 ms, not 8
	done     map[string]bool
	suspects int // nodes found Suspect after a tick
	log      []string
}

// pending is a dispatched job's outcome, due at a virtual time.
type pending struct {
	at        time.Duration
	seq       int // creation order: the tie-break at equal times
	node, job string
	ok        bool // completes; false fails retryably
}

type pendingHeap []pending

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h pendingHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x any)   { *h = append(*h, x.(pending)) }
func (h *pendingHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// newVLoop is a fleet of nodes with slots slots each and the heartbeat
// thresholds at 2.5 and 5 beat intervals.
func newVLoop(t *testing.T, seed int64, nodes, slots int) *vloop {
	f := newFakeFleet(t, Options{SuspectAfter: 2500 * time.Millisecond, DeadAfter: 5 * time.Second}, nodes, slots)
	return &vloop{
		fakeFleet: f, rng: rand.New(rand.NewSource(seed)), start: f.now, nodes: nodes, slots: slots,
		short: map[string]bool{},
		done:  map[string]bool{},
	}
}

func (l *vloop) clock() time.Duration { return l.now.Sub(l.start) }

func (l *vloop) silent(node string) bool { return l.hung && node == l.hang }

func (l *vloop) push(p pending) {
	l.seq++
	p.seq = l.seq
	heap.Push(&l.pending, p)
}

// run submits n jobs over 64 module keys, arriving at rate per second
// with a fraction short of them served in 1 ms, and steps until every job
// has completed.
func (l *vloop) run(n int, rate, short float64) {
	l.t.Helper()
	const never = time.Duration(1 << 62)
	arrived, nextArrival := 0, time.Duration(0)
	nextBeat, nextTick, hangAt := time.Second, 500*time.Millisecond, never
	if l.hang != "" {
		hangAt = l.hangAt
	}
	for len(l.done) < n {
		at := min(nextBeat, nextTick, hangAt)
		if arrived < n {
			at = min(at, nextArrival)
		}
		if len(l.pending) > 0 {
			at = min(at, l.pending[0].at)
		}
		if at > 10*time.Minute {
			l.t.Fatalf("%d of %d jobs never completed", n-len(l.done), n)
		}
		l.now = l.start.Add(at)
		switch {
		case arrived < n && at == nextArrival:
			l.submit(fmt.Sprintf("j-%04d", arrived), short)
			arrived++
			nextArrival += time.Duration(l.rng.ExpFloat64() / rate * float64(time.Second))
		case len(l.pending) > 0 && at == l.pending[0].at:
			l.deliver(heap.Pop(&l.pending).(pending))
		case at == hangAt:
			l.hung = true
			hangAt = never
		case at == nextBeat:
			l.beat()
			nextBeat += time.Second
		default:
			l.perform(l.c.Tick(l.now))
			for _, node := range l.c.Nodes() {
				if node.State == StateSuspect {
					l.suspects++
				}
			}
			nextTick += 500 * time.Millisecond
		}
	}
}

func (l *vloop) submit(id string, short float64) {
	l.t.Helper()
	l.short[id] = l.rng.Float64() < short
	asgs, err := l.c.Submit(&Job{ID: id, Key: fmt.Sprintf("key-%02d", l.rng.Intn(64))}, l.now)
	if err != nil {
		l.t.Fatalf("submit %s: %v", id, err)
	}
	l.perform(asgs)
}

// perform logs each assignment and schedules its outcome: nothing on a
// silent node, a retryable failure a millisecond later with probability
// failP, otherwise completion after 8 ms, or 1 ms for a short job, ±20%.
func (l *vloop) perform(asgs []Assignment) {
	l.t.Helper()
	l.record(asgs) // fails the test on an excluded node
	now := l.clock()
	for _, a := range asgs {
		if a.Node == "" {
			l.t.Fatalf("job %s lost: every ring node excludes it", a.Job.ID)
		}
		l.log = append(l.log, fmt.Sprintf("%v %s→%s", now, a.Job.ID, a.Node))
		if l.silent(a.Node) {
			continue
		}
		p := pending{at: now + time.Millisecond, node: a.Node, job: a.Job.ID}
		if l.rng.Float64() >= l.failP {
			service := 8 * time.Millisecond
			if l.short[a.Job.ID] {
				service = time.Millisecond
			}
			p.at = now + time.Duration(float64(service)*(0.8+0.4*l.rng.Float64()))
			p.ok = true
		}
		l.push(p)
	}
}

func (l *vloop) deliver(p pending) {
	l.t.Helper()
	if !p.ok {
		asgs, outcome := l.c.Fail(p.node, p.job, true)
		if outcome == FailTerminal {
			l.t.Fatalf("job %s lost: its failure on %s was terminal", p.job, p.node)
		}
		l.perform(asgs)
		return
	}
	if l.silent(p.node) {
		return // a silent worker reports nothing
	}
	// A completion the coordinator calls stale belongs to an attempt it
	// already requeued (its node was declared dead); the live one counts.
	asgs, live := l.c.Complete(p.node, p.job, false)
	if live {
		if l.done[p.job] {
			l.t.Fatalf("job %s completed twice", p.job)
		}
		l.done[p.job] = true
	}
	l.perform(asgs)
}

// beat sends every live node's heartbeat, losing each with probability
// dropP. A node the coordinator declared dead re-joins, as WorkerLink
// does on a 404.
func (l *vloop) beat() {
	for i := 0; i < l.nodes; i++ {
		id := fmt.Sprintf("node-%02d", i)
		if l.silent(id) || l.rng.Float64() < l.dropP {
			continue
		}
		known, asgs := l.c.Heartbeat(id, server.HeartbeatStats{}, l.now)
		if !known {
			asgs = l.c.Join(id, "test://", l.slots, l.now)
		}
		l.perform(asgs)
	}
}

// The coordinator is a function of its event sequence. One seed drives
// submissions, completions, retryable failures, lost heartbeats, ticks
// and a node that goes silent, holding its jobs until it is declared
// dead; two runs make every assignment at the same virtual time to the
// same node, lose no job, and — fakeFleet.record checks each — never
// send a job to a node it excluded.
func TestSameSeedSameSchedule(t *testing.T) {
	run := func() *vloop {
		l := newVLoop(t, 42, 4, 4)
		l.failP, l.dropP = 0.02, 0.3
		l.hang, l.hangAt = "node-01", 2*time.Second
		l.run(2000, 400, 0.2)
		return l
	}
	a, b := run(), run()
	for i := range min(len(a.log), len(b.log)) {
		if a.log[i] != b.log[i] {
			t.Fatalf("assignment %d: %q, then %q", i, a.log[i], b.log[i])
		}
	}
	if len(a.log) != len(b.log) {
		t.Fatalf("%d assignments, then %d", len(a.log), len(b.log))
	}
	st := a.c.Stats()
	if st.Retries == 0 || st.Requeued < 3 || a.suspects == 0 {
		t.Fatalf("retries %d, requeued %d, suspects %d: the faults did not bite", st.Retries, st.Requeued, a.suspects)
	}
	if st.Completed != 2000 {
		t.Fatalf("Completed = %d, want 2000", st.Completed)
	}
}
