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

	mu        sync.Mutex
	status    string
	cacheHit  bool
	errMsg    string
	result    *JobResult
	report    *core.Report // a detect run's; set before done closes, read after
	submitted time.Time
	started   time.Time
	finished  time.Time

	done chan struct{}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Info snapshots the job for the API.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:          j.ID,
		Status:      j.status,
		CacheHit:    j.cacheHit,
		Error:       j.errMsg,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
		Result:      j.result,
	}
	if !j.started.IsZero() {
		info.QueueWaitMS = float64(j.started.Sub(j.submitted).Microseconds()) / 1000
	}
	if !j.finished.IsZero() {
		info.TotalMS = float64(j.finished.Sub(j.submitted).Microseconds()) / 1000
	}
	return info
}

func (j *Job) finish(status, errMsg string, result *JobResult) {
	j.mu.Lock()
	j.status = status
	j.errMsg = errMsg
	j.result = result
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// Scheduler owns the job queue, the worker pool and the module cache.
type Scheduler struct {
	opts    SchedulerOptions
	cache   *ModCache
	srcs    *SrcStore
	tenants *TenantRegistry
	metrics *Metrics

	inflight atomic.Int64 // jobs currently held by a worker

	q  *fairQueue
	wg sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for listing and history trimming
	nextID int64
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
		jobs:    make(map[string]*Job),
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
	if err := req.Validate(s.opts.MaxBufferBytes); err != nil {
		return nil, err
	}
	job := &Job{
		tenant:   tenant,
		observer: onRace,
		req:      req.Resolved(),
		timeout:  s.opts.DefaultTimeout,
		budget:   s.opts.DefaultMaxInstrs,
		status:   StatusQueued,
		done:     make(chan struct{}),
	}
	if req.TimeoutMS > 0 {
		job.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if req.MaxInstrs > 0 {
		job.budget = req.MaxInstrs
	}

	s.mu.Lock()
	s.nextID++
	job.ID = fmt.Sprintf("job-%d", s.nextID)
	job.submitted = time.Now()
	s.mu.Unlock()

	if !s.q.push(job.tenant, job) {
		s.metrics.Rejected.Add(1)
		return nil, ErrQueueFull
	}

	s.mu.Lock()
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.trimHistoryLocked()
	s.mu.Unlock()
	s.metrics.Submitted.Add(1)
	return job, nil
}

// trimHistoryLocked forgets the oldest finished jobs past MaxJobs.
func (s *Scheduler) trimHistoryLocked() {
	for len(s.order) > s.opts.MaxJobs {
		id := s.order[0]
		if j, ok := s.jobs[id]; ok {
			j.mu.Lock()
			terminal := j.status == StatusDone || j.status == StatusFailed || j.status == StatusTimeout
			j.mu.Unlock()
			if !terminal {
				return // oldest still live: keep history until it finishes
			}
			delete(s.jobs, id)
		}
		s.order = s.order[1:]
	}
}

// Job looks up a job by id.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists retained jobs in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Stop shuts the worker pool down and fails any still-queued jobs.
func (s *Scheduler) Stop() {
	s.q.close()
	s.wg.Wait()
	for _, job := range s.q.drain() {
		job.finish(StatusFailed, "server shutting down", nil)
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

// run executes one job with a wall-clock timeout. The detect itself runs
// in a child goroutine holding the cache lease; on timeout the worker
// moves on while the child winds down against the step budget and
// releases the lease when the simulator gives up.
func (s *Scheduler) run(job *Job) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	job.mu.Lock()
	job.status = StatusRunning
	job.started = time.Now()
	job.mu.Unlock()

	req := job.req
	lease, hit, err := s.cache.Acquire(req.PTX, req.Config)
	if err != nil {
		s.metrics.Failed.Add(1)
		job.finish(StatusFailed, "open: "+err.Error(), nil)
		return
	}
	job.mu.Lock()
	job.cacheHit = hit
	job.mu.Unlock()

	type outcome struct {
		kernel string
		res    *detector.Result
		repair *detector.RepairReport
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer lease.Release()
		sess := lease.Session()
		kernel := req.Kernel
		if kernel == "" {
			names := sess.Native.KernelNames()
			if len(names) == 0 {
				ch <- outcome{err: errors.New("module has no kernels")}
				return
			}
			kernel = names[0]
		}
		if req.Kind == KindRepair {
			opt := s.repairOptions(req.Grid, req.Block, req.Buffers, job.budget,
				0, 0, req.WarpSize)
			rep, _, err := repairOnLease(lease, kernel, opt)
			ch <- outcome{kernel: kernel, repair: rep, err: err}
			return
		}
		args, err := lease.Buffers(req.Buffers)
		if err != nil {
			ch <- outcome{err: err}
			return
		}
		res, err := sess.DetectObserved(kernel, launchConfig(req.Grid, req.Block, args, job.budget, req.WarpSize), job.observer)
		ch <- outcome{kernel: kernel, res: res, err: err}
	}()

	timer := time.NewTimer(job.timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		switch {
		case o.err == nil && o.repair != nil:
			s.metrics.Completed.Add(1)
			job.finish(StatusDone, "", repairResultJSON(o.kernel, o.repair))
		case o.err == nil:
			s.metrics.Completed.Add(1)
			s.metrics.Latency.Observe(o.res.Duration)
			s.metrics.ObserveShadow(o.res.Report.Shadow)
			s.metrics.ObserveFilter(o.res.SimStats.Filter)
			job.report = o.res.Report
			job.finish(StatusDone, "", resultJSON(o.kernel, o.res))
		case errors.Is(o.err, gpusim.ErrStepBudget):
			s.metrics.TimedOut.Add(1)
			job.finish(StatusTimeout, fmt.Sprintf("step budget (%d warp instructions) exceeded: %v", job.budget, o.err), nil)
		default:
			s.metrics.Failed.Add(1)
			job.finish(StatusFailed, o.err.Error(), nil)
		}
	case <-timer.C:
		s.metrics.TimedOut.Add(1)
		job.finish(StatusTimeout, fmt.Sprintf("wall-clock timeout after %v", job.timeout), nil)
	}
}
