package server

import "sync"

// fairQueue is the scheduler's admission queue: one FIFO bucket per
// tenant, drained by round-robin, one job per tenant per turn. A tenant
// that floods the queue only delays its own jobs — another tenant's next
// job is served after at most one of the flooder's, not after the whole
// backlog, which is the starvation the old single FIFO allowed.
//
// The capacity bound stays global (total queued jobs across tenants), so
// backpressure semantics — ErrQueueFull past QueueCap — are unchanged.
type fairQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	depth  int
	closed bool

	buckets map[string]*bucket // per-tenant FIFOs, of the tenants in ring
	ring    []string           // rotation order of tenants with queued jobs
	cursor  int                // ring index the next pop starts from
}

type bucket struct {
	jobs []*Job
}

func newFairQueue(capacity int) *fairQueue {
	q := &fairQueue{
		cap:     capacity,
		buckets: make(map[string]*bucket),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job for a tenant, reporting false when the global
// capacity is reached (or the queue is closed).
func (q *fairQueue) push(tenant string, job *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.depth >= q.cap {
		return false
	}
	b := q.buckets[tenant]
	if b == nil {
		// A tenant has a bucket exactly while it has queued jobs. Joining
		// tenants enter the ring behind the cursor: they wait their turn in
		// the current round rather than jumping the rotation.
		b = &bucket{}
		q.buckets[tenant] = b
		q.ring = append(q.ring, tenant)
	}
	b.jobs = append(b.jobs, job)
	q.depth++
	q.cond.Signal()
	return true
}

// pop blocks until a job is available or the queue is closed; it
// returns nil once closed (remaining jobs are left for drain).
func (q *fairQueue) pop() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.depth == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil
	}
	// Round-robin: the cursor tenant serves one job, then the turn passes.
	// An emptied tenant leaves the ring and the map — the JSON road admits
	// any bearer token, so a bucket kept per token ever seen is a leak —
	// and re-enters at the tail on its next push.
	if q.cursor >= len(q.ring) {
		q.cursor = 0
	}
	tenant := q.ring[q.cursor]
	b := q.buckets[tenant]
	job := b.jobs[0]
	b.jobs = b.jobs[1:]
	q.depth--
	if len(b.jobs) == 0 {
		delete(q.buckets, tenant)
		q.ring = append(q.ring[:q.cursor], q.ring[q.cursor+1:]...)
	} else {
		q.cursor++
	}
	return job
}

// close wakes all blocked poppers; subsequent pops return nil.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// drain removes and returns every still-queued job (used after close to
// fail them on shutdown).
func (q *fairQueue) drain() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*Job
	for _, tenant := range q.ring {
		out = append(out, q.buckets[tenant].jobs...)
		delete(q.buckets, tenant)
	}
	q.ring, q.cursor, q.depth = nil, 0, 0
	return out
}

// Depth is the number of queued-but-unstarted jobs across all tenants.
func (q *fairQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}
