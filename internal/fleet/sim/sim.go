// Package sim is the deterministic in-process cluster simulator for the
// fleet control plane: N coordinator-attached fake workers driven by a
// seeded PRNG and a virtual clock, with injected crashes, slow nodes
// and heartbeat loss. It drives the *real* fleet.Coordinator — the same
// ring, registry, retry and priority code the HTTP front-end runs — so
// routing, failover and preemption are testable at millions-of-jobs
// scale with no real machines and byte-reproducible schedules: the same
// seed and traffic spec produce the same schedule digest, run after
// run, with or without -race.
package sim

import (
	"container/heap"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"barracuda/internal/fleet"
	"barracuda/internal/server"
)

// Crash kills node index Node at virtual time AtMS. Crashed nodes stop
// heartbeating, drop their cache and refuse new connections; they do
// not come back (a restart would be a fresh Join, which the fleet
// handles but the scripted scenarios here don't need).
type Crash struct {
	Node int
	AtMS float64
}

// Config is one simulated scenario. The zero value of most knobs picks
// a sensible default (see withDefaults).
type Config struct {
	Seed  int64
	Nodes int
	// Capacity is the per-node concurrent job slots (default 2).
	Capacity int
	// CacheSlots bounds each worker's simulated module-session LRU
	// (default 16). Smaller than Keys, or routing policy can't matter.
	CacheSlots int
	Jobs       int
	// Traffic is one of TrafficUniform, TrafficZipf, TrafficMixed.
	Traffic string
	// Keys is the distinct module cache-key population (default 64).
	Keys int
	// ZipfS is the zipf skew exponent, >1 (default 1.2).
	ZipfS float64
	// InteractiveFrac is the interactive share under TrafficMixed
	// (default 0.2).
	InteractiveFrac float64
	// ArrivalRate is mean arrivals per virtual second (default: 70% of
	// fleet batch-service capacity, so queues stay bounded).
	ArrivalRate float64
	// Service times (virtual ms) before warm/slow/jitter scaling.
	BatchServiceMS       float64 // default 8
	InteractiveServiceMS float64 // default 1
	// WarmFactor scales service time on a cache hit (default 0.25).
	WarmFactor float64
	// JitterFrac: service time is scaled by 1±JitterFrac uniformly
	// (default 0.2).
	JitterFrac float64
	// HeartbeatMS is the worker beat interval (default 1000 virtual ms);
	// suspect/dead thresholds default to 2.5x / 5x.
	HeartbeatMS    float64
	SuspectAfterMS float64
	DeadAfterMS    float64
	// HeartbeatLossP drops individual beats with this probability,
	// exercising the suspect→revive path without any real fault.
	HeartbeatLossP float64
	// Crashes scripts permanent node failures.
	Crashes []Crash
	// SlowFactor scales a node's service time (index → multiplier >1).
	SlowFactor map[int]float64
	// NoSpill disables batch spill-to-idle (see fleet.Options.NoSpill):
	// batch jobs then always wait for their warm primary, trading queue
	// delay for maximum cache affinity.
	NoSpill bool
	// MaxAttempts per job (default 5).
	MaxAttempts int
	// Replicas per ring node (default 128).
	Replicas int
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.Capacity <= 0 {
		c.Capacity = 2
	}
	if c.CacheSlots <= 0 {
		c.CacheSlots = 16
	}
	if c.Jobs <= 0 {
		c.Jobs = 10000
	}
	if c.Traffic == "" {
		c.Traffic = TrafficZipf
	}
	if c.Keys <= 0 {
		c.Keys = 64
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.InteractiveFrac <= 0 {
		c.InteractiveFrac = 0.2
	}
	if c.BatchServiceMS <= 0 {
		c.BatchServiceMS = 8
	}
	if c.InteractiveServiceMS <= 0 {
		c.InteractiveServiceMS = 1
	}
	if c.WarmFactor <= 0 {
		c.WarmFactor = 0.25
	}
	if c.JitterFrac < 0 {
		c.JitterFrac = 0
	} else if c.JitterFrac == 0 {
		c.JitterFrac = 0.2
	}
	if c.ArrivalRate <= 0 {
		perNode := 1000 / c.BatchServiceMS * float64(c.Capacity)
		c.ArrivalRate = 0.7 * perNode * float64(c.Nodes)
	}
	if c.HeartbeatMS <= 0 {
		c.HeartbeatMS = 1000
	}
	if c.SuspectAfterMS <= 0 {
		c.SuspectAfterMS = 2.5 * c.HeartbeatMS
	}
	if c.DeadAfterMS <= c.SuspectAfterMS {
		c.DeadAfterMS = 5 * c.HeartbeatMS
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	return c
}

// Result is everything a scenario run measured.
type Result struct {
	Nodes     int    `json:"nodes"`
	Jobs      int    `json:"jobs"`
	Traffic   string `json:"traffic"`
	Seed      int64  `json:"seed"`
	Submitted int    `json:"submitted"`
	Completed int    `json:"completed"`
	// Lost = submitted − completed: permanently failed or stranded
	// (every healthy run must report 0).
	Lost       int   `json:"lost"`
	Retries    int64 `json:"retries"`
	Requeued   int64 `json:"requeued"`
	QueueJumps int64 `json:"queue_jumps"`
	Spills     int64 `json:"spills"`
	Dispatched int64 `json:"dispatched"`
	// WarmHits / HitRate measure routing quality: completions whose
	// worker already had the module key cached.
	WarmHits int64   `json:"warm_hits"`
	HitRate  float64 `json:"hit_rate"`
	// PrimaryFrac is the share of dispatches landing on the ring
	// primary (1.0 = pure affinity; drops under failover/spill).
	PrimaryFrac float64 `json:"primary_frac"`
	MakespanMS  float64 `json:"makespan_ms"` // virtual, last completion
	JobsPerSec  float64 `json:"jobs_per_sec"`
	// Wait = submit → first dispatch, the starvation metric.
	InteractiveP99WaitMS float64 `json:"interactive_p99_wait_ms"`
	InteractiveMaxWaitMS float64 `json:"interactive_max_wait_ms"`
	BatchP99WaitMS       float64 `json:"batch_p99_wait_ms"`
	// ExcludedViolations counts assignments to a node the job had
	// already been excluded from — must be 0 (retry-with-exclusion
	// contract).
	ExcludedViolations int `json:"excluded_violations"`
	// ScheduleDigest hashes every scheduling event in virtual-time
	// order; ReportDigest hashes the jobs' deterministic results
	// (sorted by job ID, so it is routing-independent by construction
	// *iff* no job is lost or duplicated).
	ScheduleDigest string  `json:"schedule_digest"`
	ReportDigest   string  `json:"report_digest"`
	WallMS         float64 `json:"wall_ms"`
}

// Event kinds, in tie-break priority order at equal virtual times.
const (
	evArrival = iota
	evDone
	evConnFail
	evBeat
	evTick
	evCrash
)

type event struct {
	atUS int64
	seq  int64 // creation order: total tie-break, so heap order is unique
	kind int
	node string
	job  string
	gen  int // worker incarnation for evDone validity
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].atUS != h[j].atUS {
		return h[i].atUS < h[j].atUS
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// worker is one simulated barracudad.
type worker struct {
	id      string
	idx     int
	alive   bool
	gen     int // bumped on crash; stale evDone events check it
	slow    float64
	cache   *lruSet
	running map[string]*fleet.Job
	hits    int64
	misses  int64
}

// lruSet models the worker's bounded module-session cache: membership
// plus LRU eviction, nothing else — warm routing only needs "was this
// key still resident".
type lruSet struct {
	cap   int
	order []string
	in    map[string]bool
}

func newLRUSet(cap int) *lruSet {
	return &lruSet{cap: cap, in: make(map[string]bool, cap)}
}

// touch returns whether key was resident, then makes it MRU.
func (l *lruSet) touch(key string) bool {
	hit := l.in[key]
	if hit {
		for i, k := range l.order {
			if k == key {
				l.order = append(l.order[:i], l.order[i+1:]...)
				break
			}
		}
	}
	l.order = append(l.order, key)
	l.in[key] = true
	if len(l.order) > l.cap {
		evict := l.order[0]
		l.order = l.order[1:]
		delete(l.in, evict)
	}
	return hit
}

func (l *lruSet) clear() {
	l.order = l.order[:0]
	l.in = make(map[string]bool, l.cap)
}

type sim struct {
	cfg   Config
	coord *fleet.Coordinator
	gen   *generator
	svc   *rand.Rand // service-time jitter
	flt   *rand.Rand // fault injection (heartbeat loss)

	events  eventHeap
	evSeq   int64
	nowUS   int64
	workers map[string]*worker
	order   []string // worker IDs by index

	specs    map[string]*spec
	reports  map[string]string
	arrived  int
	done     int
	lostPerm int
	lastDone int64

	waitInter []float64
	waitBatch []float64

	excludedViolations int

	digest hashWriter
}

// hashWriter accumulates the schedule digest.
type hashWriter struct{ h []byte }

func (w *hashWriter) init() { w.h = make([]byte, 0, 1<<16) }
func (w *hashWriter) addf(f string, a ...any) {
	w.h = append(w.h, fmt.Sprintf(f, a...)...)
	w.h = append(w.h, '\n')
	if len(w.h) >= 1<<16 {
		w.fold()
	}
}
func (w *hashWriter) fold() {
	sum := sha256.Sum256(w.h)
	w.h = append(w.h[:0], sum[:]...)
}
func (w *hashWriter) hex() string {
	w.fold()
	return hex.EncodeToString(w.h)
}

// Run executes one scenario to completion and returns its measurements.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	gen, err := newGenerator(cfg)
	if err != nil {
		return Result{}, err
	}
	if len(cfg.Crashes) >= cfg.Nodes {
		return Result{}, fmt.Errorf("sim: %d crashes would kill all %d nodes", len(cfg.Crashes), cfg.Nodes)
	}
	s := &sim{
		cfg: cfg,
		gen: gen,
		svc: rand.New(rand.NewSource(cfg.Seed + 2)),
		flt: rand.New(rand.NewSource(cfg.Seed + 3)),
		coord: fleet.NewCoordinator(fleet.Options{
			Replicas:     cfg.Replicas,
			MaxAttempts:  cfg.MaxAttempts,
			SuspectAfter: msDur(cfg.SuspectAfterMS),
			DeadAfter:    msDur(cfg.DeadAfterMS),
			NoSpill:      cfg.NoSpill,
		}),
		workers: make(map[string]*worker, cfg.Nodes),
		specs:   make(map[string]*spec, cfg.Jobs),
		reports: make(map[string]string, cfg.Jobs),
	}
	s.digest.init()
	start := time.Now()

	for i := 0; i < cfg.Nodes; i++ {
		id := fmt.Sprintf("node-%02d", i)
		w := &worker{
			id: id, idx: i, alive: true, slow: 1,
			cache:   newLRUSet(cfg.CacheSlots),
			running: make(map[string]*fleet.Job),
		}
		if f, ok := cfg.SlowFactor[i]; ok && f > 0 {
			w.slow = f
		}
		s.workers[id] = w
		s.order = append(s.order, id)
		s.perform(s.coord.Join(id, "sim://"+id, cfg.Capacity, s.vnow()))
		s.schedule(int64(cfg.HeartbeatMS*1000), evBeat, id, "", 0)
	}
	for _, cr := range cfg.Crashes {
		if cr.Node < 0 || cr.Node >= cfg.Nodes {
			return Result{}, fmt.Errorf("sim: crash node %d out of range", cr.Node)
		}
		s.schedule(int64(cr.AtMS*1000), evCrash, s.order[cr.Node], "", 0)
	}
	s.schedule(int64(cfg.HeartbeatMS*500), evTick, "", "", 0)
	s.schedule(0, evArrival, "", "", 0)

	// Hard ceiling so a mis-scripted scenario (every node dead, queue
	// stranded) terminates instead of ticking forever.
	horizonUS := int64(float64(cfg.Jobs)/cfg.ArrivalRate*1e6) * 20
	if min := int64(120 * 1e6); horizonUS < min {
		horizonUS = min
	}

	for len(s.events) > 0 && s.done+s.lostPerm < cfg.Jobs {
		e := heap.Pop(&s.events).(*event)
		if e.atUS > horizonUS {
			break
		}
		s.nowUS = e.atUS
		s.step(e)
	}

	res := Result{
		Nodes: cfg.Nodes, Jobs: cfg.Jobs, Traffic: cfg.Traffic, Seed: cfg.Seed,
		Submitted:          s.arrived,
		Completed:          s.done,
		Lost:               s.arrived - s.done,
		ExcludedViolations: s.excludedViolations,
		WallMS:             float64(time.Since(start).Microseconds()) / 1000,
	}
	st := s.coord.Stats()
	res.Retries = st.Retries
	res.Requeued = st.Requeued
	res.QueueJumps = st.QueueJumps
	res.Spills = st.Spills
	res.Dispatched = st.Dispatched
	res.WarmHits = st.WarmHits
	if res.Completed > 0 {
		res.HitRate = float64(st.WarmHits) / float64(res.Completed)
		res.MakespanMS = float64(s.lastDone) / 1000
		res.JobsPerSec = float64(res.Completed) / (res.MakespanMS / 1000)
	}
	if st.Dispatched > 0 {
		res.PrimaryFrac = float64(st.PrimaryHits) / float64(st.Dispatched)
	}
	res.InteractiveP99WaitMS = percentile(s.waitInter, 0.99)
	res.InteractiveMaxWaitMS = percentile(s.waitInter, 1)
	res.BatchP99WaitMS = percentile(s.waitBatch, 0.99)
	res.ScheduleDigest = s.digest.hex()
	res.ReportDigest = aggregateReports(s.reports)
	return res, nil
}

func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

func (s *sim) vnow() time.Time { return time.Unix(0, s.nowUS*1000) }

func (s *sim) schedule(atUS int64, kind int, node, job string, gen int) {
	if atUS < s.nowUS {
		atUS = s.nowUS
	}
	s.evSeq++
	heap.Push(&s.events, &event{atUS: atUS, seq: s.evSeq, kind: kind, node: node, job: job, gen: gen})
}

func (s *sim) step(e *event) {
	switch e.kind {
	case evArrival:
		s.arrive()
	case evDone:
		s.finish(e)
	case evConnFail:
		s.connFail(e)
	case evBeat:
		s.beat(e.node)
	case evTick:
		s.perform(s.coord.Tick(s.vnow()))
		s.schedule(s.nowUS+int64(s.cfg.HeartbeatMS*500), evTick, "", "", 0)
	case evCrash:
		s.crash(e.node)
	}
}

func (s *sim) arrive() {
	if s.arrived >= s.cfg.Jobs {
		return
	}
	id, key, class, payload, gapUS := s.gen.next()
	s.arrived++
	s.specs[id] = &spec{payload: payload, submitUS: s.nowUS, dispatchUS: -1}
	s.digest.addf("S|%d|%s|%s|%s", s.nowUS, id, key, class)
	job := &fleet.Job{ID: id, Key: key, Class: class, Payload: payload}
	asgs, err := s.coord.Submit(job, s.vnow())
	if err != nil {
		// No nodes at all: the job is lost (counted via arrived-done).
		s.lostPerm++
		s.digest.addf("L|%d|%s|%v", s.nowUS, id, err)
	} else {
		s.perform(asgs)
	}
	if s.arrived < s.cfg.Jobs {
		s.schedule(s.nowUS+gapUS, evArrival, "", "", 0)
	}
}

// perform executes coordinator assignments against the fake workers.
func (s *sim) perform(asgs []fleet.Assignment) {
	for _, a := range asgs {
		sp := s.specs[a.Job.ID]
		for _, ex := range a.Job.Excluded() {
			if ex == a.Node {
				s.excludedViolations++
			}
		}
		if sp.dispatchUS < 0 {
			sp.dispatchUS = s.nowUS
			wait := float64(s.nowUS-sp.submitUS) / 1000
			if a.Job.Class == server.ClassInteractive {
				s.waitInter = append(s.waitInter, wait)
			} else {
				s.waitBatch = append(s.waitBatch, wait)
			}
		}
		w := s.workers[a.Node]
		if w == nil || !w.alive {
			// Connection refused: the coordinator hasn't noticed this
			// node is gone yet. Small RTT, then a retryable failure —
			// exactly what the HTTP forwarder sees.
			s.digest.addf("R|%d|%s|%s", s.nowUS, a.Job.ID, a.Node)
			s.schedule(s.nowUS+1000, evConnFail, a.Node, a.Job.ID, 0)
			continue
		}
		hit := w.cache.touch(a.Job.Key)
		if hit {
			w.hits++
		} else {
			w.misses++
		}
		sp.warm = hit
		w.running[a.Job.ID] = a.Job
		durUS := s.serviceUS(a.Job.Class, w, hit)
		s.digest.addf("D|%d|%s|%s|%t", s.nowUS, a.Job.ID, a.Node, hit)
		s.schedule(s.nowUS+durUS, evDone, a.Node, a.Job.ID, w.gen)
	}
}

func (s *sim) serviceUS(class string, w *worker, warm bool) int64 {
	base := s.cfg.BatchServiceMS
	if class == server.ClassInteractive {
		base = s.cfg.InteractiveServiceMS
	}
	if warm {
		base *= s.cfg.WarmFactor
	}
	base *= w.slow
	j := s.cfg.JitterFrac
	base *= 1 - j + 2*j*s.svc.Float64()
	us := int64(base * 1000)
	if us < 1 {
		us = 1
	}
	return us
}

func (s *sim) finish(e *event) {
	w := s.workers[e.node]
	if w == nil || w.gen != e.gen {
		return // stale completion from a pre-crash incarnation
	}
	job, ok := w.running[e.job]
	if !ok {
		return
	}
	delete(w.running, e.job)
	sp := s.specs[e.job]
	s.done++
	s.lastDone = s.nowUS
	s.digest.addf("C|%d|%s|%s", s.nowUS, e.job, e.node)
	// The job's "race report" depends only on its content — never on
	// which node ran it or how often it was retried. That is what makes
	// the aggregate report digest routing-invariant.
	s.reports[e.job] = jobReport(job.Key, sp.payload)
	asgs, _ := s.coord.Complete(e.node, e.job, sp.warm)
	s.perform(asgs)
}

func (s *sim) connFail(e *event) {
	s.digest.addf("F|%d|%s|%s", s.nowUS, e.job, e.node)
	asgs, outcome := s.coord.Fail(e.node, e.job, true)
	if outcome == fleet.FailTerminal {
		s.lostPerm++
		s.digest.addf("P|%d|%s", s.nowUS, e.job)
	}
	// FailStale: the coordinator already evicted this node and requeued
	// the job before the connection failure surfaced — the live attempt
	// carries it, nothing was lost.
	s.perform(asgs)
}

func (s *sim) beat(id string) {
	w := s.workers[id]
	if w == nil || !w.alive {
		return // crashed workers stop beating (and never reschedule)
	}
	drop := s.flt.Float64() < s.cfg.HeartbeatLossP
	if !drop {
		stats := server.HeartbeatStats{
			QueueDepth: 0, QueueCap: s.cfg.Capacity,
			InFlight: len(w.running), Workers: s.cfg.Capacity,
			CacheHits: w.hits, CacheMisses: w.misses,
		}
		known, asgs := s.coord.Heartbeat(id, stats, s.vnow())
		if !known {
			// Declared dead (e.g. a heartbeat-loss streak): re-join,
			// like a live worker's join loop on a 404.
			s.digest.addf("J|%d|%s", s.nowUS, id)
			asgs = s.coord.Join(id, "sim://"+id, s.cfg.Capacity, s.vnow())
		}
		s.perform(asgs)
	}
	s.schedule(s.nowUS+int64(s.cfg.HeartbeatMS*1000), evBeat, id, "", 0)
}

func (s *sim) crash(id string) {
	w := s.workers[id]
	if w == nil || !w.alive {
		return
	}
	w.alive = false
	w.gen++
	w.cache.clear()
	s.digest.addf("X|%d|%s", s.nowUS, id)
	// In-flight connections break promptly; fail them in submission
	// order for a deterministic schedule.
	ids := make([]string, 0, len(w.running))
	for jid := range w.running {
		ids = append(ids, jid)
	}
	sort.Strings(ids)
	w.running = make(map[string]*fleet.Job)
	for _, jid := range ids {
		s.schedule(s.nowUS+1000, evConnFail, id, jid, 0)
	}
}

// jobReport is the deterministic stand-in for a detection report: a
// pure function of the job's module key and payload.
func jobReport(key string, payload uint64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("report|%s|%d", key, payload)))
	return hex.EncodeToString(sum[:8])
}

// aggregateReports folds per-job reports in job-ID order, so the result
// is independent of completion order and node placement.
func aggregateReports(reports map[string]string) string {
	ids := make([]string, 0, len(reports))
	for id := range reports {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s=%s\n", id, reports[id])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(p*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
