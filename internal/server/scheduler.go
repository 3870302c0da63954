package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
	"barracuda/internal/wire"
)

// ErrQueueFull is returned by Submit when the bounded queue is at
// capacity; the HTTP layer maps it to 429 backpressure.
var ErrQueueFull = errors.New("server: job queue full")

// SchedulerOptions sizes the service.
type SchedulerOptions struct {
	// Workers is the number of concurrent detection workers (default 2).
	Workers int
	// QueueCap bounds the number of queued-but-unstarted jobs
	// (default 64). Submissions beyond it are rejected with
	// ErrQueueFull rather than growing without bound.
	QueueCap int
	// CacheEntries bounds the warm-session cache (default 32).
	CacheEntries int
	// DefaultTimeout is the per-job wall-clock budget when the request
	// does not set one (default 30s).
	DefaultTimeout time.Duration
	// DefaultMaxInstrs is the dynamic warp-instruction budget applied
	// when the request does not set one; always enforced, so a spin
	// loop cannot pin a worker forever (default 1<<24).
	DefaultMaxInstrs uint64
	// MaxBufferBytes caps a single job's total buffer allocation
	// (default 1 GiB; <0 disables the cap).
	MaxBufferBytes int64
	// MaxJobs bounds the retained job history (default 4096; oldest
	// finished jobs are forgotten first).
	MaxJobs int
	// SrcEntries bounds the content-addressed source store behind the
	// streaming protocol's warm-upload short-circuit (default 64).
	SrcEntries int
	// Tenants sizes the per-API-key admission control on the streaming
	// path.
	Tenants TenantOptions
	// TenantWeights sets per-tenant weighted-round-robin shares of the
	// admission queue (default weight 1 for any tenant not listed). A
	// tenant with weight 2 is served two jobs per rotation to everyone
	// else's one; no tenant can starve another regardless of backlog.
	TenantWeights map[string]int
}

func (o SchedulerOptions) withDefaults() SchedulerOptions {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 32
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.DefaultMaxInstrs == 0 {
		o.DefaultMaxInstrs = 1 << 24
	}
	if o.MaxBufferBytes == 0 {
		o.MaxBufferBytes = 1 << 30
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	return o
}

// Job is one submitted detection unit.
type Job struct {
	ID string

	// Immutable after Submit.
	req      JobRequest // resolved; Kernel may be "": the module's first, at run time
	timeout  time.Duration
	budget   uint64
	tenant   string          // API key the job was admitted under ("" = anonymous)
	observer func(core.Race) // streaming path: fired per new static race

	// sum is the job as a SUMMARY frame: status, cache hit and queue wait as
	// each becomes known, the rest — and result, a poll's JSON — from finish.
	mu        sync.Mutex
	sum       wire.Summary
	result    *JobResult
	submitted time.Time

	// A repair's search bounds (0 = defaults; only POST /v1/repair sets
	// them), and whether its report was recalled from the memo: set before
	// done closes, read after.
	maxCandidates int
	maxPatches    int
	memoHit       bool

	done chan struct{}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Info snapshots the job for the API.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := envelope(j.ID, j.sum)
	info.SubmittedAt = j.submitted.UTC().Format(time.RFC3339Nano)
	info.Result = j.result
	return info
}

// finish makes the job terminal: the JSON result is built from the run's
// summary, as a coordinator builds it, then given what only res holds. Its
// caller is the one goroutine that writes sum, so the tables are built
// before the lock is taken.
func (j *Job) finish(status, errMsg string, run wire.Summary, res *detector.Result) {
	run.Status = status
	run.Error = errMsg
	run.CacheHit = j.sum.CacheHit
	run.QueueWaitUS = j.sum.QueueWaitUS
	run.TotalUS = uint64(time.Since(j.submitted).Microseconds())
	result := resultFromSummary(run)
	if res != nil {
		result.addWorkerExtras(res)
	}
	j.mu.Lock()
	j.sum = run
	j.result = result
	j.mu.Unlock()
	close(j.done)
}

// fail is finish for a job that produced nothing.
func (j *Job) fail(status, errMsg string) { j.finish(status, errMsg, wire.Summary{}, nil) }

func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sum.Status != StatusQueued && j.sum.Status != StatusRunning
}

// Scheduler owns the job queue, the worker pool and the module cache.
type Scheduler struct {
	opts    SchedulerOptions
	cache   *ModCache
	srcs    *SrcStore
	tenants *TenantRegistry
	metrics *Metrics

	inflight atomic.Int64 // jobs currently held by a worker

	q    *fairQueue
	wg   sync.WaitGroup
	jobs *History[*Job]
}

// NewScheduler builds the service core and starts its workers.
func NewScheduler(opts SchedulerOptions) *Scheduler {
	opts = opts.withDefaults()
	s := &Scheduler{
		opts:    opts,
		cache:   NewModCache(opts.CacheEntries),
		srcs:    NewSrcStore(opts.SrcEntries),
		tenants: NewTenantRegistry(opts.Tenants),
		metrics: &Metrics{},
		q:       newFairQueue(opts.QueueCap, opts.TenantWeights),
		jobs:    NewHistory("job-", opts.MaxJobs, (*Job).terminal),
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics returns the counter registry.
func (s *Scheduler) Metrics() *Metrics { return s.metrics }

// Cache returns the module cache (for stats).
func (s *Scheduler) Cache() *ModCache { return s.cache }

// Srcs returns the content-addressed source store the streaming
// protocol negotiates uploads against.
func (s *Scheduler) Srcs() *SrcStore { return s.srcs }

// Tenants returns the per-API-key admission registry.
func (s *Scheduler) Tenants() *TenantRegistry { return s.tenants }

// QueueDepth is the number of queued-but-unstarted jobs.
func (s *Scheduler) QueueDepth() int { return s.q.Depth() }

// InFlight is the number of jobs currently held by workers.
func (s *Scheduler) InFlight() int { return int(s.inflight.Load()) }

// HeartbeatStats snapshots the load and cache figures a fleet worker
// reports to its coordinator: queue pressure steers overflow routing,
// cache hits/misses make warm-routing effectiveness observable.
type HeartbeatStats struct {
	QueueDepth  int   `json:"queue_depth"`
	QueueCap    int   `json:"queue_cap"`
	InFlight    int   `json:"in_flight"`
	Workers     int   `json:"workers"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`

	// Shadow-memory pressure: lets the coordinator see which nodes run
	// detection under a byte cap hard enough to evict live state (and
	// so degrade precision), and how much shadow the node's jobs peak
	// at, before routing more memory-hungry kernels its way.
	ShadowPeakResident int64 `json:"shadow_peak_resident_bytes,omitempty"`
	ShadowEvictions    int64 `json:"shadow_evictions,omitempty"`
	ShadowDegradedJobs int64 `json:"shadow_degraded_jobs,omitempty"`

	// Producer-filter effectiveness: how many records this node's jobs
	// kept off the queues, so fleet operators can see the A/B knob's
	// payoff per node.
	FilterSuppressed int64 `json:"filter_suppressed_records,omitempty"`
	FilterProbes     int64 `json:"filter_probes,omitempty"`
}

// HeartbeatStats builds the heartbeat payload.
func (s *Scheduler) HeartbeatStats() HeartbeatStats {
	cs := s.cache.Stats()
	c := s.metrics.Counters()
	sh := s.metrics.Shadow()
	fc := s.metrics.Filter()
	return HeartbeatStats{
		QueueDepth:         s.QueueDepth(),
		QueueCap:           s.opts.QueueCap,
		InFlight:           s.InFlight(),
		Workers:            s.opts.Workers,
		CacheHits:          cs.Hits,
		CacheMisses:        cs.Misses,
		Completed:          c.Completed,
		Failed:             c.Failed,
		ShadowPeakResident: sh.PeakResident,
		ShadowEvictions:    sh.Evictions,
		ShadowDegradedJobs: sh.DegradedJobs,
		FilterSuppressed:   fc.Suppressed,
		FilterProbes:       fc.Probes,
	}
}

// Options returns the effective (defaulted) options.
func (s *Scheduler) Options() SchedulerOptions { return s.opts }

// Submit validates, resolves and enqueues a job. It returns the job on
// success, ErrQueueFull under backpressure, and a descriptive error for
// invalid payloads (mapped to 400 by the HTTP layer).
func (s *Scheduler) Submit(req JobRequest) (*Job, error) {
	return s.SubmitTenant(req, "", nil)
}

// SubmitTenant is Submit with a tenant identity and an incremental race
// observer. The job is admitted into that tenant's weighted-round-robin
// bucket, so one tenant's backlog cannot starve another's submissions.
// onRace, when non-nil, is invoked once per new static race at the
// moment of discovery, from a detection worker goroutine. The streaming
// API uses it to push FRace frames before the job completes; it must
// not block (the stream layer hands it a buffered channel sized to the
// race cap).
func (s *Scheduler) SubmitTenant(req JobRequest, tenant string, onRace func(core.Race)) (*Job, error) {
	return s.submit(req, tenant, onRace, 0, 0)
}

// submit is SubmitTenant with a repair's search bounds, which ride the
// Job and not the request: JobRequest stays exactly what travels.
func (s *Scheduler) submit(req JobRequest, tenant string, onRace func(core.Race), maxCandidates, maxPatches int) (*Job, error) {
	if err := req.Validate(s.opts.MaxBufferBytes); err != nil {
		return nil, err
	}
	job := &Job{
		ID:            s.jobs.Reserve(),
		tenant:        tenant,
		observer:      onRace,
		req:           req.Resolved(),
		timeout:       s.opts.DefaultTimeout,
		budget:        s.opts.DefaultMaxInstrs,
		maxCandidates: maxCandidates,
		maxPatches:    maxPatches,
		sum:           wire.Summary{Status: StatusQueued},
		submitted:     time.Now(),
		done:          make(chan struct{}),
	}
	if req.TimeoutMS > 0 {
		job.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if req.MaxInstrs > 0 {
		job.budget = req.MaxInstrs
	}
	if !s.q.push(job.tenant, job) {
		s.metrics.Rejected.Add(1)
		return nil, ErrQueueFull
	}
	s.jobs.Put(job.ID, job)
	s.metrics.Submitted.Add(1)
	return job, nil
}

// Stop shuts the worker pool down and fails any still-queued jobs.
func (s *Scheduler) Stop() {
	s.q.close()
	s.wg.Wait()
	for _, job := range s.q.drain() {
		job.fail(StatusFailed, "server shutting down")
		s.metrics.Failed.Add(1)
	}
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		job := s.q.pop()
		if job == nil {
			return
		}
		s.run(job)
	}
}

// run executes one job with a wall-clock timeout: the only place in the
// daemon a kernel is launched (make one-way-in). The launch runs in a
// child goroutine holding the cache lease; on timeout the worker moves on
// while the child winds down against the step budget and releases the
// lease when the simulator gives up.
func (s *Scheduler) run(job *Job) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	job.mu.Lock()
	job.sum.Status = StatusRunning
	job.sum.QueueWaitUS = uint64(time.Since(job.submitted).Microseconds())
	job.mu.Unlock()

	req := job.req
	lease, hit, err := s.cache.Acquire(req.PTX, req.Config)
	if err != nil {
		s.metrics.Failed.Add(1)
		job.fail(StatusFailed, "open: "+err.Error())
		return
	}
	job.mu.Lock()
	job.sum.CacheHit = hit
	job.mu.Unlock()

	type outcome struct {
		kernel  string
		res     *detector.Result
		repair  *detector.RepairReport
		memoHit bool
		err     error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer lease.Release()
		sess := lease.Session()
		kernel, err := sess.KernelOrFirst(req.Kernel)
		if err != nil {
			ch <- outcome{err: err}
			return
		}
		if req.Kind == KindRepair {
			rep, memoHit, err := repairOnLease(lease, kernel, detector.RepairOptions{
				Grid:                   req.Grid,
				Block:                  req.Block,
				Buffers:                req.Buffers,
				MaxInstrs:              job.budget,
				WarpSize:               req.WarpSize,
				MaxCandidates:          job.maxCandidates,
				MaxPatchesPerCandidate: job.maxPatches,
			})
			ch <- outcome{kernel: kernel, repair: rep, memoHit: memoHit, err: err}
			return
		}
		args, err := lease.Buffers(req.Buffers)
		if err != nil {
			ch <- outcome{err: err}
			return
		}
		res, err := sess.DetectObserved(kernel, detector.Launch1D(req.Grid, req.Block, args, job.budget, req.WarpSize), job.observer)
		ch <- outcome{kernel: kernel, res: res, err: err}
	}()

	timer := time.NewTimer(job.timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		switch {
		case o.err == nil && o.repair != nil:
			s.metrics.Completed.Add(1)
			job.memoHit = o.memoHit
			job.finish(StatusDone, "", wire.Summary{Kernel: o.kernel, Repair: o.repair}, nil)
		case o.err == nil:
			s.metrics.Completed.Add(1)
			s.metrics.Latency.Observe(o.res.Duration)
			s.metrics.ObserveShadow(o.res.Report.Shadow)
			s.metrics.ObserveFilter(o.res.SimStats.Filter)
			job.finish(StatusDone, "", summaryOf(o.kernel, o.res), o.res)
		case errors.Is(o.err, gpusim.ErrStepBudget):
			s.metrics.TimedOut.Add(1)
			job.fail(StatusTimeout, fmt.Sprintf("step budget (%d warp instructions) exceeded: %v", job.budget, o.err))
		default:
			s.metrics.Failed.Add(1)
			job.fail(StatusFailed, o.err.Error())
		}
	case <-timer.C:
		s.metrics.TimedOut.Add(1)
		job.fail(StatusTimeout, fmt.Sprintf("wall-clock timeout after %v", job.timeout))
	}
}
