package server

import (
	"fmt"
	"testing"
	"time"
)

// TestFairQueueWRROrder pins the deficit rotation: a weight-2 tenant
// takes two consecutive jobs per round, everyone else one, and a
// drained tenant leaves the ring without disturbing the rotation.
func TestFairQueueWRROrder(t *testing.T) {
	q := newFairQueue(16, map[string]int{"a": 2})
	mk := func(id string) *Job { return &Job{ID: id, done: make(chan struct{})} }
	for _, j := range []struct{ tenant, id string }{
		{"a", "a1"}, {"a", "a2"}, {"a", "a3"}, {"a", "a4"},
		{"b", "b1"}, {"c", "c1"},
	} {
		if !q.push(j.tenant, mk(j.id)) {
			t.Fatalf("push %s rejected", j.id)
		}
	}
	want := []string{"a1", "a2", "b1", "c1", "a3", "a4"}
	for i, w := range want {
		j := q.pop()
		if j == nil || j.ID != w {
			t.Fatalf("pop %d = %v, want %s", i, j, w)
		}
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("depth after drain = %d", d)
	}
}

// TestFairQueueForgetsDrainedTenants: POST /jobs admits any bearer token
// as a tenant, so the queue may keep nothing per tenant once that tenant's
// jobs are gone — 10 000 one-job tenants, popped or drained at shutdown,
// leave no bucket behind.
func TestFairQueueForgetsDrainedTenants(t *testing.T) {
	const tenants = 10000
	q := newFairQueue(tenants, map[string]int{"a": 2})
	for i := 0; i < tenants; i++ {
		if !q.push(fmt.Sprint("key-", i), &Job{ID: fmt.Sprint(i)}) {
			t.Fatalf("push %d rejected", i)
		}
	}
	for i := 0; i < tenants/2; i++ {
		if j := q.pop(); j == nil || j.ID != fmt.Sprint(i) {
			t.Fatalf("pop %d = %v: one-job tenants are served in arrival order", i, j)
		}
	}
	if len(q.buckets) != tenants/2 || len(q.ring) != tenants/2 {
		t.Errorf("%d bucket(s), %d in the ring after %d of %d tenants were served", len(q.buckets), len(q.ring), tenants/2, tenants)
	}
	if left := q.drain(); len(left) != tenants/2 || len(q.buckets) != 0 || q.Depth() != 0 {
		t.Errorf("drain returned %d job(s) and left %d bucket(s), depth %d", len(left), len(q.buckets), q.Depth())
	}
	// A returning tenant starts over: its weight, from the tail of the ring.
	for _, id := range []string{"a1", "a2", "a3"} {
		q.push("a", &Job{ID: id})
	}
	q.push("b", &Job{ID: "b1"})
	for _, want := range []string{"a1", "a2", "b1", "a3"} {
		if j := q.pop(); j.ID != want {
			t.Fatalf("pop = %s, want %s", j.ID, want)
		}
	}
	if len(q.buckets) != 0 {
		t.Errorf("%d bucket(s) left in an empty queue", len(q.buckets))
	}
}

// TestFairShareNoStarvation is the two-tenant contract: a noisy tenant
// queues a deep backlog behind a held worker, a quiet tenant then
// submits a single job, and weighted round-robin serves the quiet job
// on the first free rotation — not behind the whole backlog as the old
// single FIFO would.
func TestFairShareNoStarvation(t *testing.T) {
	s := NewScheduler(SchedulerOptions{Workers: 1, QueueCap: 64})
	defer s.Stop()

	// Hold the lone worker long enough for every submission below to
	// land in the queue while it runs.
	holder, err := s.SubmitTenant(JobRequest{
		PTX: spinSrc, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4, 4},
		TimeoutMS: 500, MaxInstrs: 1 << 24,
	}, "noisy", nil)
	if err != nil {
		t.Fatal(err)
	}

	quick := JobRequest{PTX: racySrc, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4}}
	var noisy []*Job
	for i := 0; i < 8; i++ {
		j, err := s.SubmitTenant(quick, "noisy", nil)
		if err != nil {
			t.Fatal(err)
		}
		noisy = append(noisy, j)
	}
	quiet, err := s.SubmitTenant(quick, "quiet", nil)
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.After(30 * time.Second)
	for _, j := range append([]*Job{holder, quiet}, noisy...) {
		select {
		case <-j.Done():
		case <-deadline:
			t.Fatalf("job %s did not finish", j.ID)
		}
	}

	finished := func(j *Job) time.Time {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.submitted.Add(time.Duration(j.sum.TotalUS) * time.Microsecond)
	}
	ahead := 0
	for _, j := range noisy {
		if finished(j).Before(finished(quiet)) {
			ahead++
		}
	}
	// The rotation serves at most one backlogged noisy job before the
	// quiet tenant's turn comes around.
	if ahead > 1 {
		t.Errorf("%d of 8 noisy backlog jobs ran before the quiet tenant's single job (starved by the backlog)", ahead)
	}
}
