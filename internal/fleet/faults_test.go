package fleet

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"barracuda/internal/server"
)

// The fleet's fault properties, asserted against the real HTTPCoordinator
// and real workers: a crash, lost heartbeats, a slow node and a full primary
// each change where or when a job runs, never what it reports. Every
// fault is injected from a test file — a listener wrapper beneath a
// worker, or a handler in front of the coordinator — and every test
// checks that its fault actually happened.

// Failover changes where a job runs, never what it reports: workers are
// crashed while 48 jobs are in flight, and every job ends done with the
// digest a one-node fleet gives the same request.
func TestFailoverLosesNothingAndReportsMatchSingleNode(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		crash []int // worker indices, crashed at even intervals of the traffic
	}{
		{"kill-1-of-4", 4, []int{0}},
		{"kill-2-of-4", 4, []int{0, 2}},
		{"kill-3-of-8", 8, []int{1, 4, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const jobs = 48
			f := newTestFleet(t, tc.nodes)
			single := newTestFleet(t, 1)

			// A racy and a clean module aimed at each worker, so every
			// victim is the primary of some of the traffic.
			var reqs []server.JobRequest
			want := map[string]string{} // PTX → the one-node fleet's digest
			for _, w := range f.workers {
				for _, req := range []server.JobRequest{f.aimedAt(w.id, racyJob()), f.aimedAt(w.id, cleanJob())} {
					reqs = append(reqs, req)
					want[req.PTX] = digest(t, single.run(req))
				}
			}

			ids := make([]string, jobs)
			crashed := 0
			for i := range ids {
				if crashed < len(tc.crash) && i == (crashed+1)*jobs/(len(tc.crash)+1) {
					f.workers[tc.crash[crashed]].kill()
					crashed++
				}
				code, info, errj := f.submit(reqs[i%len(reqs)])
				if code != http.StatusAccepted {
					t.Fatalf("submit %d: %d %+v", i, code, errj)
				}
				ids[i] = info.ID
			}
			for i, id := range ids {
				req := reqs[i%len(reqs)]
				if got := digest(t, f.wait(id)); got != want[req.PTX] {
					t.Errorf("job %d (%s): digest %s, one-node fleet %s", i, id, got, want[req.PTX])
				}
			}
			if st := f.coord.Core().Stats(); st.Retries+st.Requeued == 0 {
				t.Fatalf("%d crashes, zero retries and requeues: the crashes did not bite", len(tc.crash))
			}
		})
	}
}

// heartbeatDropper stands in front of the coordinator's handler and
// loses a seeded fraction of the workers' heartbeats: the connection
// drops before the coordinator sees the beat.
type heartbeatDropper struct {
	next http.Handler
	p    float64

	mu      sync.Mutex
	rng     *rand.Rand
	dropped int
}

func (d *heartbeatDropper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/fleet/heartbeat" {
		d.mu.Lock()
		drop := d.rng.Float64() < d.p
		if drop {
			d.dropped++
		}
		d.mu.Unlock()
		if drop {
			panic(http.ErrAbortHandler)
		}
	}
	d.next.ServeHTTP(w, r)
}

func (d *heartbeatDropper) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dropped
}

// Lost heartbeats cost a node its new work for a while, never a job:
// with half the beats dropped, some node goes Suspect and comes back
// Alive while traffic runs, and every job submitted meanwhile ends done.
func TestHeartbeatLossIsSurvivable(t *testing.T) {
	drop := &heartbeatDropper{p: 0.5, rng: rand.New(rand.NewSource(3))}
	f := newTestFleetBehind(t, 3, defaultWorkerOpts, func(h http.Handler) http.Handler {
		drop.next = h
		return drop
	})

	suspect := map[string]bool{} // seen Suspect since last seen registered
	revived := ""
	var ids []string
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; revived == ""; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no node went Suspect and came back within 20 s (%d beats dropped)", drop.count())
		}
		if i%5 == 0 {
			req := racyJob()
			if i%10 == 5 {
				req = cleanJob()
			}
			req.PTX += fmt.Sprintf("\n// module %d", i%8)
			code, info, errj := f.submit(req)
			if code != http.StatusAccepted {
				t.Fatalf("submit %d: %d %+v", len(ids), code, errj)
			}
			ids = append(ids, info.ID)
		}
		seen := map[string]bool{}
		for _, n := range f.coord.Core().Nodes() {
			seen[n.ID] = true
			switch {
			case n.State == StateSuspect:
				suspect[n.ID] = true
			case n.State == StateAlive && suspect[n.ID]:
				revived = n.ID
			}
		}
		for id := range suspect {
			if !seen[id] {
				delete(suspect, id) // declared dead: a re-join is not a revival
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range ids {
		if info := f.wait(id); info.Status != server.StatusDone {
			t.Errorf("job %s: %+v, want done", id, info)
		}
	}
	t.Logf("%s revived; %d jobs, %d beats dropped", revived, len(ids), drop.count())
}

// A slow node stretches the time its jobs take, not their reports: jobs
// keyed to a worker whose every write is delayed run there and report
// what they report on a healthy fleet.
func TestSlowNodeChangesScheduleNotReports(t *testing.T) {
	healthy := newTestFleet(t, 2)
	f := newTestFleet(t, 1)
	slow := &slowListener{delay: 20 * time.Millisecond}
	f.addWorkerOn("w-01", defaultWorkerOpts, func(l net.Listener) net.Listener {
		slow.Listener = l
		return slow
	})
	f.waitNodes(2)

	for i, base := range []server.JobRequest{racyJob(), cleanJob()} {
		req := f.aimedAt("w-01", base)
		want := digest(t, healthy.run(req))
		start := time.Now()
		got := f.run(req)
		if took := time.Since(start); took < slow.delay {
			t.Errorf("job %d took %v on the slow node, less than one delayed write", i, took)
		}
		if got.Node != "w-01" {
			t.Fatalf("job %d, keyed to the slow node, ran on %s", i, got.Node)
		}
		if digest(t, got) != want {
			t.Errorf("job %d: the slow node changed its report", i)
		}
	}
	if slow.writes.Load() == 0 {
		t.Fatal("no write of the slow worker was delayed")
	}
}

// A job whose primary has no free slot runs on the next node of its ring
// sequence, cold; the report does not move with it.
func TestReportDigestInvariantUnderRouting(t *testing.T) {
	f := newTestFleet(t, 2)
	const primary = "w-00"
	// Both of the primary's slots go to jobs that spin until their step
	// budget stops them, each on its own module so neither waits on the
	// other's session.
	var blockers []string
	for i := range defaultWorkerOpts.Workers {
		code, info, errj := f.submit(f.aimedAt(primary, server.JobRequest{
			PTX: fmt.Sprintf("%s\n// spin %d", spinSrc, i), Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4, 4},
			TimeoutMS: 2000, MaxInstrs: 1 << 20,
		}))
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %+v", code, errj)
		}
		blockers = append(blockers, info.ID)
	}
	req := f.aimedAt(primary, racyJob())
	moved := f.run(req)
	if st := f.coord.Core().Stats(); moved.Node == primary || st.Dispatched == st.PrimaryHits {
		t.Fatalf("job ran on %s with %d of %d dispatches on a primary: its primary was never full",
			moved.Node, st.PrimaryHits, st.Dispatched)
	}
	for _, id := range blockers {
		f.wait(id)
	}
	onPrimary := f.run(req)
	if onPrimary.Node != primary {
		t.Fatalf("with its primary idle the job ran on %s", onPrimary.Node)
	}
	if digest(t, moved) != digest(t, onPrimary) {
		t.Error("the job that ran off its primary reported differently from its primary")
	}
}
