// Package fleet is the control plane that turns one barracudad into a
// detection fleet: a coordinator owning a consistent-hash ring keyed on
// the module cache key (server.CacheKey), worker registration with a
// heartbeat health state machine, retry-with-exclusion failover, and a
// two-class priority scheduler that keeps small interactive vet/analyze
// jobs from starving behind large batch detection jobs.
//
// The Coordinator core is deliberately passive: every externally driven
// event (Submit, Heartbeat, Tick, Complete, Fail, Join, Leave) is a
// synchronous method that updates state and returns the Assignments the
// caller must now perform. The HTTP front-end performs assignments by
// forwarding jobs to real workers over HTTP; the deterministic cluster
// simulator (internal/fleet/sim) performs them by scheduling virtual
// events. One scheduling brain, two drivers — so everything the sim
// proves about routing, failover and preemption holds verbatim for the
// real fleet.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"barracuda/internal/server"
)

// Job is one unit of work routed by the coordinator. Payload is owned
// by the driver (the HTTP front-end stores the original JobRequest, the
// simulator a synthetic spec); the coordinator routes purely on Key and
// Class.
type Job struct {
	ID      string
	Key     string // module cache key: the ring key (server.CacheKey)
	Class   string // server.ClassInteractive or server.ClassBatch
	Payload any

	attempts atomic.Int32        // written under Coordinator.mu; Attempts reads it without
	excluded map[string]struct{} // nodes that already failed this job
	seq      int64               // submission order, for FIFO within class
}

// Attempts is how many times the job has been dispatched.
func (j *Job) Attempts() int { return int(j.attempts.Load()) }

// Excluded lists nodes this job must never be routed to again, sorted.
func (j *Job) Excluded() []string {
	out := make([]string, 0, len(j.excluded))
	for n := range j.excluded {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Assignment instructs the driver to run Job on Node.
type Assignment struct {
	Node string
	Job  *Job
}

// Options tunes the coordinator.
type Options struct {
	// Replicas is the virtual-node count per ring member (default 128).
	Replicas int
	// MaxAttempts bounds dispatches per job, counting the first
	// (default 5). A job that exhausts its attempts fails permanently.
	MaxAttempts int
	// MaxJobs bounds the HTTP front-end's retained job history (default
	// 4096, matching server.SchedulerOptions.MaxJobs): oldest terminal
	// jobs past the cap are forgotten so a long-running coordinator does
	// not grow without bound. The scheduling core itself drops jobs as
	// soon as they finish and never retains history.
	MaxJobs int
	// SuspectAfter / DeadAfter are the heartbeat thresholds
	// (defaults 5s / 15s).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// NoSpill disables batch spill-to-idle: by default a batch job
	// whose warm primary is saturated may run cold on a completely idle
	// successor rather than queue (trading one cache miss for
	// utilization). Interactive jobs always take the first free slot.
	NoSpill bool
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = defaultReplicas
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 5 * time.Second
	}
	if o.DeadAfter <= o.SuspectAfter {
		o.DeadAfter = 3 * o.SuspectAfter
	}
	return o
}

// Stats counts coordinator-level scheduling events.
type Stats struct {
	Submitted   int64 `json:"submitted"`
	Dispatched  int64 `json:"dispatched"`
	Completed   int64 `json:"completed"`
	Retries     int64 `json:"retries"`      // re-dispatches after a retryable failure
	FailedPerm  int64 `json:"failed_perm"`  // permanent failures (bad job or attempts exhausted)
	Requeued    int64 `json:"requeued"`     // jobs pulled back from a dead/left node
	QueueJumps  int64 `json:"queue_jumps"`  // interactive dispatched past older queued batch
	Spills      int64 `json:"spills"`       // batch dispatched cold to an idle non-primary
	PrimaryHits int64 `json:"primary_hits"` // dispatches that landed on the ring primary
	WarmHits    int64 `json:"warm_hits"`    // completions the worker reported as cache hits
	Drained     int64 `json:"drained"`      // nodes removed after a clean drain (no requeue)
}

// ErrNoNodes is returned by Submit when the fleet has no members at all.
var ErrNoNodes = errors.New("fleet: no registered workers")

// Coordinator owns the ring, the registry and the two-class dispatch
// queue. Safe for concurrent use; the deterministic simulator drives it
// from a single goroutine so lock order never affects schedules.
type Coordinator struct {
	mu  sync.Mutex
	opt Options

	ring *Ring
	reg  *Registry

	interQ  []*Job // interactive FIFO
	batchQ  []*Job // batch FIFO
	nextSeq int64

	inflight map[string]map[string]*Job // node → job ID → job
	stats    Stats
}

// NewCoordinator builds an empty coordinator.
func NewCoordinator(opt Options) *Coordinator {
	opt = opt.withDefaults()
	return &Coordinator{
		opt:      opt,
		ring:     NewRing(opt.Replicas),
		reg:      NewRegistry(opt.SuspectAfter, opt.DeadAfter),
		inflight: make(map[string]map[string]*Job),
	}
}

// Join registers a worker and drains any queued work it can take.
func (c *Coordinator) Join(id, addr string, capacity int, now time.Time) []Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Join(id, addr, capacity, now)
	c.ring.Add(id)
	if c.inflight[id] == nil {
		c.inflight[id] = make(map[string]*Job)
	}
	return c.dispatchLocked()
}

// Leave removes a worker gracefully; its in-flight jobs are requeued
// (front of their class queue, node excluded) and re-routed.
func (c *Coordinator) Leave(id string) []Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Leave(id)
	c.evictNodeLocked(id)
	return c.dispatchLocked()
}

// Drain begins a graceful departure for a node: it leaves the ring and
// gets no new work, but its in-flight jobs keep running to completion —
// unlike Leave, nothing is requeued. Once the last in-flight job
// finishes (Complete or Fail), the node is removed from the registry.
// Returns the number of jobs still in flight on the node and whether
// the node is known; inflight==0 means the drain finished immediately
// (the node is already gone on return). Draining nodes still heartbeat;
// a beat neither revives them nor cancels the drain.
func (c *Coordinator) Drain(id string, now time.Time) (asgs []Assignment, inflight int, known bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.reg.Drain(id, now) {
		return c.dispatchLocked(), 0, false
	}
	c.ring.Remove(id)
	inflight = len(c.inflight[id])
	if inflight == 0 {
		c.finishDrainLocked(id)
	}
	// Work that would have routed here re-routes to ring successors.
	return c.dispatchLocked(), inflight, true
}

// maybeFinishDrainLocked removes a draining node once its in-flight set
// is empty. Called after Complete/Fail delete a job from the table.
func (c *Coordinator) maybeFinishDrainLocked(id string) {
	info, ok := c.reg.Get(id)
	if !ok || info.State != StateDraining || len(c.inflight[id]) != 0 {
		return
	}
	c.finishDrainLocked(id)
}

func (c *Coordinator) finishDrainLocked(id string) {
	c.reg.Leave(id)
	delete(c.inflight, id)
	c.stats.Drained++
}

// Heartbeat records a worker beat. known=false means the coordinator
// has no such node (e.g. it was declared dead, or the coordinator
// restarted) and the worker must re-Join.
func (c *Coordinator) Heartbeat(id string, stats server.HeartbeatStats, now time.Time) (known bool, asgs []Assignment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.reg.Heartbeat(id, stats, now) {
		return false, nil
	}
	// A revived Suspect becomes routable again: drain the queue.
	return true, c.dispatchLocked()
}

// Tick applies heartbeat timeouts. Nodes that cross the dead threshold
// are removed from the ring and their in-flight jobs re-routed with
// exclusion.
func (c *Coordinator) Tick(now time.Time) []Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.reg.Tick(now) {
		c.evictNodeLocked(id)
	}
	return c.dispatchLocked()
}

// Submit enqueues a job and dispatches whatever is now routable.
func (c *Coordinator) Submit(job *Job, now time.Time) ([]Assignment, error) {
	if job.Class == "" {
		job.Class = server.ClassBatch
	}
	if job.Class != server.ClassBatch && job.Class != server.ClassInteractive {
		return nil, fmt.Errorf("fleet: job %s: unknown class %q", job.ID, job.Class)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring.Len() == 0 {
		return nil, ErrNoNodes
	}
	if job.excluded == nil {
		job.excluded = make(map[string]struct{})
	}
	c.nextSeq++
	job.seq = c.nextSeq
	c.stats.Submitted++
	c.enqueueLocked(job, false)
	return c.dispatchLocked(), nil
}

// Complete marks an assignment finished. cacheHit is the worker's
// report of whether the module session was warm (drives the WarmHits
// routing-effectiveness counter). live=false means the (node, jobID)
// assignment is not an in-flight one the coordinator knows — the report
// is stale (the node was evicted and the job already requeued) and the
// driver must not treat it as the job's outcome.
//
// A job excludes every node it ever failed on or was evicted from, so
// it can never be routed to the same node twice: presence in the
// in-flight table uniquely identifies the job's live attempt.
func (c *Coordinator) Complete(node, jobID string, cacheHit bool) (asgs []Assignment, live bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.inflight[node]; m != nil {
		if _, ok := m[jobID]; ok {
			delete(m, jobID)
			c.stats.Completed++
			if cacheHit {
				c.stats.WarmHits++
			}
			live = true
			c.maybeFinishDrainLocked(node)
		}
	}
	return c.dispatchLocked(), live
}

// FailOutcome classifies a Fail report.
type FailOutcome int

const (
	// FailStale: the (node, jobID) pair is not a live assignment — the
	// reported attempt was superseded (its node was declared dead and
	// the job requeued, possibly already re-dispatched elsewhere). The
	// driver must ignore the report: the live attempt owns the job.
	FailStale FailOutcome = iota
	// FailRequeued: the job went back to the front of its class queue
	// with the failed node excluded, to retry on a ring successor.
	FailRequeued
	// FailTerminal: the job is permanently failed (non-retryable error
	// or attempts exhausted) and the driver should surface the error.
	FailTerminal
)

// Fail marks an assignment failed. Retryable failures (connection
// errors, 429/503 per server.RetryableCode) exclude the node and
// re-route to the next ring successor; permanent failures (400s) and
// exhausted attempts drop the job. A report for an assignment the
// coordinator no longer tracks — the node was evicted and the job
// requeued in the meantime — returns FailStale and changes nothing (see
// Complete for why presence in-flight identifies the live attempt).
func (c *Coordinator) Fail(node, jobID string, retryable bool) (asgs []Assignment, outcome FailOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.inflight[node]
	job, ok := m[jobID]
	if !ok {
		return c.dispatchLocked(), FailStale
	}
	delete(m, jobID)
	job.excluded[node] = struct{}{}
	if !retryable || job.Attempts() >= c.opt.MaxAttempts {
		c.stats.FailedPerm++
		c.maybeFinishDrainLocked(node)
		return c.dispatchLocked(), FailTerminal
	}
	c.stats.Retries++
	c.enqueueLocked(job, true)
	c.maybeFinishDrainLocked(node)
	return c.dispatchLocked(), FailRequeued
}

// Nodes snapshots the registry.
func (c *Coordinator) Nodes() []NodeInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg.List()
}

// Node looks up one registered worker.
func (c *Coordinator) Node(id string) (NodeInfo, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg.Get(id)
}

// Stats snapshots the scheduling counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// QueueDepths returns the queued-but-undispatched counts per class.
func (c *Coordinator) QueueDepths() (interactive, batch int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.interQ), len(c.batchQ)
}

// InFlight returns the number of dispatched-but-unfinished jobs.
func (c *Coordinator) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.inflight {
		n += len(m)
	}
	return n
}

// Routable returns the number of nodes on the ring: registered, not
// draining, not evicted.
func (c *Coordinator) Routable() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Len()
}

// evictNodeLocked pulls a node out of the ring and requeues its
// in-flight jobs at the front of their class queues with the node
// excluded, preserving their original relative order.
func (c *Coordinator) evictNodeLocked(id string) {
	c.ring.Remove(id)
	m := c.inflight[id]
	delete(c.inflight, id)
	if len(m) == 0 {
		return
	}
	jobs := make([]*Job, 0, len(m))
	for _, j := range m {
		jobs = append(jobs, j)
	}
	// Map order is random; restore submission order for determinism.
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	// Prepend in reverse so jobs[0] ends up first.
	for i := len(jobs) - 1; i >= 0; i-- {
		j := jobs[i]
		j.excluded[id] = struct{}{}
		c.stats.Requeued++
		c.enqueueLocked(j, true)
	}
}

// enqueueLocked adds a job to its class queue (front=true for requeues,
// which must not lose their place behind newer submissions).
func (c *Coordinator) enqueueLocked(job *Job, front bool) {
	q := &c.batchQ
	if job.Class == server.ClassInteractive {
		q = &c.interQ
	}
	if front {
		*q = append([]*Job{job}, *q...)
	} else {
		*q = append(*q, job)
	}
}

// batchCap is the batch-usable slot count of a node: one slot is
// reserved for interactive work whenever the node has more than one, so
// a flood of batch detection jobs can never occupy every worker and
// starve a vet/analyze request ("reserved-slot preemption"). Together
// with strict queue priority (interactive always dispatches before any
// queued batch job) this bounds interactive wait by one job service
// time, not by the batch backlog.
func batchCap(capacity int) int {
	if capacity > 1 {
		return capacity - 1
	}
	return capacity
}

// routeLocked picks a node for the job, or "" if nothing is eligible
// right now. Eligible = registered, Alive (Suspect nodes get no new
// work), not excluded by this job's failure history, with a free slot
// for the job's class.
func (c *Coordinator) routeLocked(j *Job) (node string, spill bool) {
	seq := c.ring.Sequence(j.Key)
	if j.Class == server.ClassInteractive {
		// Latency first: the first healthy node with any free slot.
		// The primary comes first in seq, so warmth is still preferred
		// when available.
		for _, n := range seq {
			if c.eligibleLocked(j, n) && c.freeSlotsLocked(n) > 0 {
				return n, false
			}
		}
		return "", false
	}
	// Batch: warmth first. Wait for the primary unless it is saturated
	// and some successor is completely idle (spill-to-idle).
	var primary string
	for _, n := range seq {
		if c.eligibleLocked(j, n) {
			primary = n
			break
		}
	}
	if primary == "" {
		return "", false
	}
	info, _ := c.reg.Get(primary)
	if len(c.inflight[primary]) < batchCap(info.Capacity) {
		return primary, false
	}
	if !c.opt.NoSpill {
		for _, n := range seq {
			if n == primary || !c.eligibleLocked(j, n) {
				continue
			}
			if len(c.inflight[n]) == 0 {
				return n, true
			}
		}
	}
	return "", false
}

func (c *Coordinator) eligibleLocked(j *Job, node string) bool {
	if _, no := j.excluded[node]; no {
		return false
	}
	return c.reg.Alive(node)
}

func (c *Coordinator) freeSlotsLocked(node string) int {
	info, ok := c.reg.Get(node)
	if !ok {
		return 0
	}
	return info.Capacity - len(c.inflight[node])
}

// dispatchLocked drains whatever is routable right now: the interactive
// queue in full priority order, then batch. A single pass per queue —
// jobs that cannot route stay queued for the next event.
func (c *Coordinator) dispatchLocked() []Assignment {
	var out []Assignment
	take := func(q *[]*Job, jumpOver int) {
		kept := (*q)[:0]
		for _, j := range *q {
			node, spill := c.routeLocked(j)
			if node == "" {
				kept = append(kept, j)
				continue
			}
			j.attempts.Add(1)
			c.inflight[node][j.ID] = j
			c.stats.Dispatched++
			if spill {
				c.stats.Spills++
			}
			if jumpOver > 0 {
				c.stats.QueueJumps++
			}
			if c.ring.Primary(j.Key) == node {
				c.stats.PrimaryHits++
			}
			out = append(out, Assignment{Node: node, Job: j})
		}
		// Zero the tail so requeued pointers don't linger.
		for i := len(kept); i < len(*q); i++ {
			(*q)[i] = nil
		}
		*q = kept
	}
	take(&c.interQ, len(c.batchQ))
	take(&c.batchQ, 0)
	return out
}
