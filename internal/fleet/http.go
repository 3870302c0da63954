package fleet

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"barracuda/internal/server"
	"barracuda/internal/wire"
)

// Wire types of the fleet control API.

// JoinRequest registers a worker with the coordinator.
type JoinRequest struct {
	// ID is the worker's stable identity (survives re-joins).
	ID string `json:"id"`
	// Addr is the worker's base URL, e.g. "http://10.0.0.5:8321".
	Addr string `json:"addr"`
	// Capacity is the worker's concurrent job slots (its -workers).
	Capacity int `json:"capacity"`
}

// HeartbeatRequest is one worker beat.
type HeartbeatRequest struct {
	ID    string                `json:"id"`
	Stats server.HeartbeatStats `json:"stats"`
}

// LeaveRequest deregisters a worker gracefully.
type LeaveRequest struct {
	ID string `json:"id"`
}

// DrainRequest asks the coordinator to begin (or poll) a graceful
// drain of a worker: no new work, in-flight jobs run to completion.
type DrainRequest struct {
	ID string `json:"id"`
}

// DrainResponse reports drain progress. Removed=true (or a 404 on a
// later poll) means the node is fully drained and deregistered.
type DrainResponse struct {
	InFlight int  `json:"in_flight"`
	Removed  bool `json:"removed"`
}

// NodeJSON is the coordinator's view of one worker. IdleSessions counts
// the standing /v1/stream sessions to the node's address that no forward
// is using right now.
type NodeJSON struct {
	ID           string                `json:"id"`
	Addr         string                `json:"addr"`
	Capacity     int                   `json:"capacity"`
	State        string                `json:"state"`
	BeatAgeMS    float64               `json:"beat_age_ms"`
	IdleSessions int                   `json:"idle_sessions"`
	Stats        server.HeartbeatStats `json:"stats"`
}

// FleetJobInfo is the coordinator-side job envelope: where the job is,
// how often it was retried, and — once terminal — the worker's JobInfo as
// server.JobInfoFromSummary rebuilds it from the SUMMARY frame: the
// worker's own builder, so Worker.Result is what the worker's GET
// /jobs/{id} returns minus its four extras (README "What a fleet result
// carries").
type FleetJobInfo struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Node     string          `json:"node,omitempty"`
	Attempts int             `json:"attempts"`
	Error    string          `json:"error,omitempty"`
	Code     string          `json:"code,omitempty"`
	Worker   *server.JobInfo `json:"worker,omitempty"`
}

// FleetMetricsJSON is the /fleet/metrics body. StreamDials, StreamReuses
// and StreamRedials say how stream forwards got their session: a fresh
// connection, one off the idle list, or a fresh one after an idle session
// proved stale. JSONForwards is always 0: there is no JSON forward; the
// field stays only because benchmarks/e2e reads it (ROADMAP item 1).
type FleetMetricsJSON struct {
	UptimeMS       float64    `json:"uptime_ms"`
	Stats          Stats      `json:"stats"`
	Queued         int        `json:"queued"`
	InFlight       int        `json:"in_flight"`
	StreamForwards int64      `json:"stream_forwards"`
	JSONForwards   int64      `json:"json_forwards"`
	StreamDials    int64      `json:"stream_dials"`
	StreamReuses   int64      `json:"stream_reuses"`
	StreamRedials  int64      `json:"stream_redials"`
	Nodes          []NodeJSON `json:"nodes"`
}

// HTTPCoordinator is the fleet front-end: it speaks the same job API as
// a single barracudad (POST /jobs, GET /jobs/{id}) so clients point at
// the coordinator unchanged, plus the /fleet/* control surface workers
// register against. Every job is forwarded over a standing /v1/stream
// session, one pool per worker address (streamfwd.go); worker failures
// are classified by the machine-readable code of the REJECT frame
// (retryable queue_full/unavailable vs permanent invalid_argument) and
// retryable ones re-route to the next ring successor with the failed
// node excluded.
type HTTPCoordinator struct {
	core  *Coordinator
	mux   *http.ServeMux
	start time.Time

	streamFwds atomic.Int64 // assignments forwarded
	sessions   sessionPool

	jobs *server.History[*proxyJob] // bounded by Options.MaxJobs

	quit chan struct{}
	wg   sync.WaitGroup
}

type proxyJob struct {
	id   string
	fj   *Job
	hash [32]byte // HashSrc of the job's PTX, declared to the worker on each forward

	mu      sync.Mutex
	reqCopy server.JobRequest // the resolved submission, re-sent on each forward; dropped once terminal
	status  string
	node    string
	errMsg  string
	errCode string
	worker  *server.JobInfo
	done    chan struct{}
}

func (p *proxyJob) info() FleetJobInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return FleetJobInfo{
		ID: p.id, Status: p.status, Node: p.node,
		Attempts: p.fj.Attempts(), Error: p.errMsg, Code: p.errCode,
		Worker: p.worker,
	}
}

func (p *proxyJob) finish(status, errMsg, errCode string, worker *server.JobInfo) {
	p.mu.Lock()
	terminal := p.status == server.StatusDone || p.status == server.StatusFailed
	if !terminal {
		p.status = status
		p.errMsg = errMsg
		p.errCode = errCode
		p.worker = worker
		// Terminal jobs are never forwarded again: free the retained
		// request (it carries the full PTX source).
		p.reqCopy = server.JobRequest{}
		close(p.done)
	}
	p.mu.Unlock()
}

func (p *proxyJob) terminal() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.status == server.StatusDone || p.status == server.StatusFailed
}

// NewHTTPCoordinator builds the front-end and starts its health ticker.
func NewHTTPCoordinator(opt Options) *HTTPCoordinator {
	opt = opt.withDefaults()
	h := &HTTPCoordinator{
		core:  NewCoordinator(opt),
		mux:   http.NewServeMux(),
		start: time.Now(),
		jobs:  server.NewHistory("fjob-", opt.MaxJobs, (*proxyJob).terminal),
		quit:  make(chan struct{}),
	}
	h.mux.HandleFunc("POST /fleet/join", h.handleJoin)
	h.mux.HandleFunc("POST /fleet/heartbeat", h.handleHeartbeat)
	h.mux.HandleFunc("POST /fleet/leave", h.handleLeave)
	h.mux.HandleFunc("POST /fleet/drain", h.handleDrain)
	h.mux.HandleFunc("GET /fleet/nodes", h.handleNodes)
	h.mux.HandleFunc("GET /fleet/metrics", h.handleMetrics)
	h.mux.HandleFunc("POST /jobs", h.handleSubmit)
	h.mux.HandleFunc("GET /jobs", h.handleList)
	h.mux.HandleFunc("GET /jobs/{id}", h.handleJob)
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)

	h.wg.Add(1)
	go h.tickLoop(opt.SuspectAfter / 2)
	return h
}

// Handler returns the HTTP handler.
func (h *HTTPCoordinator) Handler() http.Handler { return h.mux }

// Core exposes the scheduling brain (tests, metrics).
func (h *HTTPCoordinator) Core() *Coordinator { return h.core }

// Close stops the health ticker and closes every idle session. In-flight
// forwards drain on their own and close theirs when they finish.
func (h *HTTPCoordinator) Close() {
	close(h.quit)
	h.wg.Wait()
	h.sessions.close()
}

func (h *HTTPCoordinator) tickLoop(every time.Duration) {
	defer h.wg.Done()
	if every < 100*time.Millisecond {
		every = 100 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-h.quit:
			return
		case now := <-t.C:
			h.perform(h.core.Tick(now))
			// Sessions to an address no registered node has (left, drained,
			// declared dead, re-joined elsewhere) have no next job.
			registered := make(map[string]bool)
			for _, n := range h.core.Nodes() {
				registered[n.Addr] = true
			}
			h.sessions.retain(func(addr string) bool { return registered[addr] })
		}
	}
}

// perform launches one forwarding goroutine per assignment, and fails the
// jobs an assignment with no node ends.
func (h *HTTPCoordinator) perform(asgs []Assignment) {
	for _, a := range asgs {
		if a.Node == "" {
			a.Job.Payload.(*proxyJob).finish(server.StatusFailed,
				"every worker left on the ring has refused or lost the job", wire.CodeUnavailable, nil)
			continue
		}
		go h.forward(a)
	}
}

func (h *HTTPCoordinator) failAssignment(a Assignment, pj *proxyJob, retryable bool, msg, code string) {
	asgs, outcome := h.core.Fail(a.Node, a.Job.ID, retryable)
	switch outcome {
	case FailStale:
		// This attempt was superseded: the node was declared dead while
		// the forward was stuck (a launch can outlive DeadAfter) and the
		// job already requeued. The live attempt owns pj — touching it
		// here would fail a job that is still running, or even done,
		// elsewhere.
	case FailTerminal:
		if code == "" {
			code = wire.CodeUnavailable
		}
		pj.finish(server.StatusFailed, msg, code, nil)
	case FailRequeued:
		pj.mu.Lock()
		pj.status = server.StatusQueued
		pj.node = ""
		pj.mu.Unlock()
	}
	h.perform(asgs)
}

func (h *HTTPCoordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !server.DecodeBody(w, r, &req, false) {
		return
	}
	if req.ID == "" || req.Addr == "" {
		server.WriteError(w, http.StatusBadRequest, wire.CodeInvalidArgument, `join: fields "id" and "addr" are required`)
		return
	}
	h.perform(h.core.Join(req.ID, req.Addr, req.Capacity, time.Now()))
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h *HTTPCoordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !server.DecodeBody(w, r, &req, false) {
		return
	}
	known, asgs := h.core.Heartbeat(req.ID, req.Stats, time.Now())
	if !known {
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound, "heartbeat: unknown node "+req.ID+" (re-join)")
		return
	}
	h.perform(asgs)
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h *HTTPCoordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if !server.DecodeBody(w, r, &req, false) {
		return
	}
	h.perform(h.core.Leave(req.ID))
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleDrain starts or polls a graceful drain. The first call marks
// the node draining and reports its in-flight count; the worker polls
// until in_flight reaches zero. Each poll refreshes the node's beat, so
// a draining worker needs no separate heartbeat loop. A 404 means the
// node is unknown — for a poll that follows an accepted drain this is
// the success signal (the coordinator already removed the node).
func (h *HTTPCoordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if !server.DecodeBody(w, r, &req, false) {
		return
	}
	asgs, inflight, known := h.core.Drain(req.ID, time.Now())
	h.perform(asgs)
	if !known {
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound, "drain: unknown node "+req.ID)
		return
	}
	server.WriteJSON(w, http.StatusOK, DrainResponse{InFlight: inflight, Removed: inflight == 0})
}

func (h *HTTPCoordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, h.nodesJSON())
}

func (h *HTTPCoordinator) nodesJSON() []NodeJSON {
	nodes := h.core.Nodes()
	out := make([]NodeJSON, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, NodeJSON{
			ID: n.ID, Addr: n.Addr, Capacity: n.Capacity,
			State:        n.State.String(),
			BeatAgeMS:    float64(time.Since(n.LastBeat).Microseconds()) / 1000,
			IdleSessions: h.sessions.idleCount(n.Addr),
			Stats:        n.Stats,
		})
	}
	return out
}

func (h *HTTPCoordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, FleetMetricsJSON{
		UptimeMS:       float64(time.Since(h.start).Microseconds()) / 1000,
		Stats:          h.core.Stats(),
		Queued:         h.core.QueueDepth(),
		InFlight:       h.core.InFlight(),
		StreamForwards: h.streamFwds.Load(),
		StreamDials:    h.sessions.dials.Load(),
		StreamReuses:   h.sessions.reuses.Load(),
		StreamRedials:  h.sessions.redials.Load(),
		Nodes:          h.nodesJSON(),
	})
}

func (h *HTTPCoordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": float64(time.Since(h.start).Microseconds()) / 1000,
		"nodes":     h.core.Routable(),
	})
}

func (h *HTTPCoordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req server.JobRequest
	if !server.DecodeBody(w, r, &req, true) {
		return
	}
	// Shape-validate here so permanent 400s never consume a dispatch;
	// each worker still enforces its own buffer cap.
	if err := req.Validate(0); err != nil {
		server.WriteError(w, http.StatusBadRequest, wire.CodeInvalidArgument, err.Error())
		return
	}
	// A bench job is keyed, stored and forwarded as the PTX job it names.
	req = req.Resolved()
	hash := server.HashSrc(req.PTX)

	id := h.jobs.Reserve()
	pj := &proxyJob{id: id, status: server.StatusQueued, done: make(chan struct{}), reqCopy: req, hash: hash}
	fj := &Job{ID: id, Key: server.CacheKey(hash), Payload: pj}
	pj.fj = fj
	h.jobs.Put(id, pj)

	asgs, err := h.core.Submit(fj, time.Now())
	if err != nil { // ErrNoNodes, the one error Submit returns
		h.jobs.Drop(id)
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, wire.CodeUnavailable, err.Error())
		return
	}
	h.perform(asgs)
	server.WriteJSON(w, http.StatusAccepted, pj.info())
}

func (h *HTTPCoordinator) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := h.jobs.List()
	out := make([]FleetJobInfo, 0, len(jobs))
	for _, pj := range jobs {
		out = append(out, pj.info())
	}
	server.WriteJSON(w, http.StatusOK, out)
}

func (h *HTTPCoordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	pj, ok := h.jobs.Get(r.PathValue("id"))
	if !ok {
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound, "no such job")
		return
	}
	server.WaitDone(r, pj.done)
	server.WriteJSON(w, http.StatusOK, pj.info())
}
