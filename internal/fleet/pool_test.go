package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"barracuda/internal/server"
	"barracuda/internal/wire"
)

// severingListener is the injectable fault at the wire-connection seam:
// it sits behind the net.Listener the worker's HTTP server already uses,
// remembers what it accepted and cuts all of it on demand — what an idle
// timeout in the network, or a worker restart, does to a connection the
// coordinator believes is standing. The listener keeps accepting.
type severingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *severingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *severingListener) sever() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// slowListener is the slow-node fault at the same seam: every write on a
// connection it accepted waits delay first — a worker on a congested link
// or an overloaded host. The bytes are the same, only later.
type slowListener struct {
	net.Listener
	delay  time.Duration
	writes atomic.Int64 // writes delayed so far
}

func (l *slowListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &slowConn{Conn: c, l: l}, nil
}

type slowConn struct {
	net.Conn
	l *slowListener
}

func (c *slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.l.delay)
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

// cleanSrc gives every thread its own word: no race.
const cleanSrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	cvt.u64.u32 %rd2, %r2;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r1;
	ret;
}`

func cleanJob() server.JobRequest {
	return server.JobRequest{PTX: cleanSrc, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{128}}
}

// run submits one job and waits for it.
func (f *testFleet) run(req server.JobRequest) FleetJobInfo {
	f.t.Helper()
	code, info, errj := f.submit(req)
	if code != http.StatusAccepted {
		f.t.Fatalf("submit: %d %+v", code, errj)
	}
	return f.wait(info.ID)
}

func (f *testFleet) worker(id string) *testWorker {
	f.t.Helper()
	for _, w := range f.workers {
		if w.id == id {
			return w
		}
	}
	f.t.Fatalf("no worker %q", id)
	return nil
}

// streamsOpen reads the worker's open-stream gauge off /v1/metrics.
func (w *testWorker) streamsOpen(t *testing.T) int {
	t.Helper()
	resp, err := http.Get(w.ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m server.MetricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m.StreamsOpen
}

// within polls cond for up to d.
func within(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); ; time.Sleep(5 * time.Millisecond) {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

func digest(t *testing.T, info FleetJobInfo) string {
	t.Helper()
	if info.Status != server.StatusDone || info.Worker == nil || info.Worker.Result == nil {
		t.Fatalf("job not done with a result: %+v", info)
	}
	rep, err := info.Worker.Result.CoreReport()
	if err != nil {
		t.Fatal(err)
	}
	return rep.CanonicalDigest()
}

// A cut idle connection costs a redial, not an attempt: the job runs on
// the node it was routed to and the scheduler never hears of it.
func TestPooledSessionSurvivesSeveredConnection(t *testing.T) {
	f := newTestFleet(t, 1)
	first := f.run(racyJob())
	if first.Status != server.StatusDone {
		t.Fatalf("job 1: %+v", first)
	}
	f.workers[0].ln.sever()

	second := f.run(racyJob())
	if second.Status != server.StatusDone || second.Node != first.Node {
		t.Fatalf("job 2 after the cut: %+v, want done on %s", second, first.Node)
	}
	if second.Attempts != 1 {
		t.Errorf("attempts = %d, want 1: a stale session is not a failed assignment", second.Attempts)
	}
	if st := f.coord.Core().Stats(); st.Retries != 0 || st.Requeued != 0 {
		t.Errorf("retries %d, requeued %d, want 0 and 0", st.Retries, st.Requeued)
	}
	if digest(t, first) != digest(t, second) {
		t.Error("the redialed job reported differently")
	}
	// As an operator reads it.
	m := f.metrics()
	if m.StreamDials != 2 || m.StreamReuses != 1 || m.StreamRedials != 1 {
		t.Errorf("dials %d, reuses %d, redials %d, want 2, 1 and 1",
			m.StreamDials, m.StreamReuses, m.StreamRedials)
	}
	if len(m.Nodes) != 1 || m.Nodes[0].IdleSessions != 1 {
		t.Errorf("nodes = %+v, want one with one idle session", m.Nodes)
	}
}

// When the fresh dial fails too the worker is gone, and the job takes the
// road TestFleetFailoverRetriesElsewhere describes: one failed attempt,
// the node excluded, the retry on a ring successor.
func TestStaleSessionThenDeadWorker(t *testing.T) {
	f := newTestFleet(t, 3)
	base := f.run(racyJob())
	if base.Status != server.StatusDone {
		t.Fatalf("baseline failed: %+v", base)
	}
	victim := f.worker(base.Node)
	victim.kill() // cuts the idle session and stops the listener: the redial is refused

	res := f.run(racyJob())
	if res.Status != server.StatusDone {
		t.Fatalf("job did not survive worker death: %+v", res)
	}
	if res.Node == victim.id {
		t.Fatalf("job reportedly completed on the dead node %s", victim.id)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (stale session + refused redial is one failure, then the retry)", res.Attempts)
	}
	if st := f.coord.Core().Stats(); st.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Retries)
	}
	if r := f.coord.sessions.redials.Load(); r != 1 {
		t.Errorf("redials = %d, want 1", r)
	}
	if digest(t, base) != digest(t, res) {
		t.Error("failover changed the report")
	}
}

// A session remembers nothing of the jobs it carried: racy, clean, racy
// over one connection read as each does over a connection of its own.
func TestPooledSessionsCarryNoModuleState(t *testing.T) {
	f := newTestFleet(t, 1)
	var pooled []FleetJobInfo
	for _, req := range []server.JobRequest{racyJob(), cleanJob(), racyJob()} {
		pooled = append(pooled, f.run(req))
	}
	p := &f.coord.sessions
	if d, r := p.dials.Load(), p.reuses.Load(); d != 1 || r != 2 {
		t.Fatalf("dials %d, reuses %d, want one session carrying all three jobs", d, r)
	}
	if st := f.workers[0].srv.Scheduler().Srcs().Stats(); st.Hits != 1 {
		t.Errorf("source store hits = %d, want 1 (the third job's upload skipped)", st.Hits)
	}
	for i, racy := range []bool{true, false, true} {
		if got := pooled[i].Worker.Result.RaceCount > 0; got != racy {
			t.Errorf("job %d: racy = %v, want %v", i, got, racy)
		}
	}

	// The same jobs, each over a connection of its own.
	for i, req := range []server.JobRequest{racyJob(), cleanJob()} {
		p.retain(func(string) bool { return false })
		fresh := f.run(req)
		if digest(t, fresh) != digest(t, pooled[i]) {
			t.Errorf("job %d: pooled and fresh-dial digests differ", i)
		}
	}
	if digest(t, pooled[0]) != digest(t, pooled[2]) {
		t.Error("the racy module reported differently after the clean one")
	}
	if d := p.dials.Load(); d != 3 {
		t.Errorf("dials = %d, want 3 (the fresh runs did not dial)", d)
	}
}

// Meaningful under -race: eight submitters, one worker of capacity 4.
// The pool never holds, and the coordinator never dials, more sessions
// than the node has slots.
func TestPooledSessionsConcurrentForwards(t *testing.T) {
	const capacity, submitters, perSubmitter = 4, 8, 25
	f := newTestFleetWith(t, 1, server.SchedulerOptions{Workers: capacity, QueueCap: 64, CacheEntries: 8})
	addr := f.workers[0].ts.URL

	stop := make(chan struct{})
	var maxIdle int
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := f.coord.sessions.idleCount(addr); n > maxIdle {
				maxIdle = n
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				req := racyJob()
				if (s+i)%2 == 1 {
					req = cleanJob()
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(f.coordTS.URL+"/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var info FleetJobInfo
				json.NewDecoder(resp.Body).Decode(&info)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submitter %d job %d: status %d", s, i, resp.StatusCode)
					return
				}
				for info.Status != server.StatusDone {
					if info.Status == server.StatusFailed {
						t.Errorf("submitter %d job %d: %+v", s, i, info)
						return
					}
					resp, err := http.Get(f.coordTS.URL + "/jobs/" + info.ID + "?wait_ms=1000")
					if err != nil {
						t.Error(err)
						return
					}
					json.NewDecoder(resp.Body).Decode(&info)
					resp.Body.Close()
				}
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	p := &f.coord.sessions
	if d := p.dials.Load(); d > capacity {
		t.Errorf("dials = %d for a node of capacity %d", d, capacity)
	}
	if maxIdle > capacity {
		t.Errorf("idle sessions peaked at %d for a node of capacity %d", maxIdle, capacity)
	}
	// A forward is counted after its job is reported, so give the last a moment.
	if !within(time.Second, func() bool { return f.coord.streamFwds.Load() == submitters*perSubmitter }) {
		t.Errorf("stream forwards = %d, want %d", f.coord.streamFwds.Load(), submitters*perSubmitter)
	}
	if st := f.coord.Core().Stats(); st.Retries != 0 || p.redials.Load() != 0 {
		t.Errorf("retries %d, redials %d, want 0 and 0", st.Retries, p.redials.Load())
	}
}

// Idle sessions end with their node's membership and with the
// coordinator; the worker's gauge is how an operator would see it.
func TestPoolClosedWhenNodeLeavesAndOnClose(t *testing.T) {
	f := newTestFleet(t, 2)
	// Jobs until each worker has run one, and so holds an idle session.
	ran := map[string]bool{}
	for i := 0; len(ran) < 2 && i < 64; i++ {
		req := cleanJob()
		req.PTX += fmt.Sprintf("\n// module %d", i) // another cache key: another place on the ring
		if info := f.run(req); info.Status == server.StatusDone {
			ran[info.Node] = true
		}
	}
	if len(ran) != 2 {
		t.Fatal("64 distinct modules never reached both workers")
	}
	for _, w := range f.workers {
		if n := w.streamsOpen(t); n == 0 {
			t.Fatalf("%s: no open stream after running a job", w.id)
		}
	}

	leaver, stayer := f.workers[0], f.workers[1]
	leaver.link.Close() // stops the beats, then POST /fleet/leave
	if !within(time.Second, func() bool { return leaver.streamsOpen(t) == 0 }) {
		t.Errorf("%s left, but still has %d open stream(s) a tick later", leaver.id, leaver.streamsOpen(t))
	}
	if n := stayer.streamsOpen(t); n == 0 {
		t.Errorf("%s is still a member and lost its sessions", stayer.id)
	}

	f.closeCoord()
	if !within(time.Second, func() bool { return stayer.streamsOpen(t) == 0 }) {
		t.Errorf("coordinator closed, but %s still has %d open stream(s)", stayer.id, stayer.streamsOpen(t))
	}
}

// A refused launch is the worker's answer on a healthy session: the job
// goes round as it always did, and the session carries the next one.
func TestLaunchRejectKeepsSession(t *testing.T) {
	f := newTestFleetWith(t, 2, server.SchedulerOptions{Workers: 1, QueueCap: 1, CacheEntries: 8})
	first := f.run(racyJob())
	if first.Status != server.StatusDone {
		t.Fatalf("job 1: %+v", first)
	}
	busy := f.worker(first.Node)

	// Saturate that worker behind the coordinator's back: one spin job on
	// its only detection worker, one in its one-deep queue. Each ends at
	// its step budget or, under -race, at its wall-clock budget.
	spin := server.JobRequest{
		PTX: spinSrc, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4, 4},
		TimeoutMS: 500, MaxInstrs: 1 << 18,
	}
	var direct []*server.Job
	for len(direct) < 2 {
		j, err := busy.srv.Scheduler().Submit(spin)
		if err != nil {
			time.Sleep(time.Millisecond) // the first is not off the queue yet
			continue
		}
		direct = append(direct, j)
	}

	// Same key, so the ring still says busy; its queue says no.
	second := f.run(racyJob())
	if second.Status != server.StatusDone || second.Node == busy.id {
		t.Fatalf("job 2: %+v, want done on the other worker", second)
	}
	if second.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (REJECT on %s, then the successor)", second.Attempts, busy.id)
	}
	if st := f.coord.Core().Stats(); st.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Retries)
	}
	if n := f.coord.sessions.idleCount(busy.ts.URL); n != 1 {
		t.Errorf("%d idle session(s) to %s after its REJECT, want the one that carried it", n, busy.id)
	}

	for _, j := range direct {
		<-j.Done()
	}
	third := f.run(racyJob())
	if third.Status != server.StatusDone || third.Node != busy.id {
		t.Fatalf("job 3: %+v, want done on %s", third, busy.id)
	}
	p := &f.coord.sessions
	if d, r := p.dials.Load(), p.redials.Load(); d != 2 || r != 0 {
		t.Errorf("dials %d, redials %d, want 2 (one per worker) and 0", d, r)
	}
}

// With a standing session a forwarded job costs its tenant bucket one
// token, the launch's; a connection per job cost two. Burst 4 and no
// refill to speak of: one handshake and exactly three jobs.
func TestFleetSessionDebitsOneTokenPerJob(t *testing.T) {
	opts := defaultWorkerOpts
	opts.Tenants = server.TenantOptions{RatePerSec: 0.001, Burst: 4}
	f := newTestFleetWith(t, 1, opts)
	w := f.workers[0]
	bucket := func() (tj server.TenantJSON) {
		for _, tj = range w.srv.Scheduler().Tenants().Snapshot() {
			if tj.Key == "fleet:"+w.id {
				return tj
			}
		}
		return server.TenantJSON{}
	}
	for i := 0; i < 3; i++ {
		if info := f.run(racyJob()); info.Status != server.StatusDone || info.Attempts != 1 {
			t.Fatalf("job %d: %+v, want done at the first attempt", i, info)
		}
	}
	if tj := bucket(); tj.Jobs != 3 || tj.Rejected != 0 {
		t.Fatalf("after three jobs: %+v, want 3 admitted and none refused", tj)
	}
	// The bucket is dry: a fourth launch is refused, and with its only
	// node excluded the job fails with the refusal's code, which a client
	// may resubmit on.
	if info := f.run(racyJob()); info.Status != server.StatusFailed || info.Code != wire.CodeQueueFull || info.Attempts != 1 {
		t.Errorf("fourth job: %+v, want failed queue_full after 1 attempt", info)
	}
	if tj := bucket(); tj.Rejected != 1 {
		t.Errorf("fourth job: %+v, want its launch refused", tj)
	}
}

// spinSrc never terminates under SIMT lockstep (the lane that wins the
// lock cannot release it while the losers spin): a budget ends it.
const spinSrc = `.visible .entry k(.param .u64 lock, .param .u64 ctr)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [lock];
	ld.param.u64 %rd2, [ctr];
SPIN:
	atom.global.cas.b32 %r1, [%rd1], 0, 1;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra SPIN;
	ld.global.u32 %r2, [%rd2];
	add.u32 %r2, %r2, 1;
	st.global.u32 [%rd2], %r2;
	atom.global.exch.b32 %r3, [%rd1], 0;
	ret;
}`
