package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"barracuda/internal/bench"
	"barracuda/internal/server"
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
// how often it was retried, and — once terminal — the worker's own
// JobInfo including the detection result.
type FleetJobInfo struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Class    string          `json:"class"`
	Node     string          `json:"node,omitempty"`
	Attempts int             `json:"attempts"`
	Error    string          `json:"error,omitempty"`
	Code     string          `json:"code,omitempty"`
	Worker   *server.JobInfo `json:"worker,omitempty"`
}

// FleetMetricsJSON is the /fleet/metrics body. StreamDials, StreamReuses
// and StreamRedials say how stream forwards got their session: a fresh
// connection, one off the idle list, or a fresh one after an idle session
// proved stale.
type FleetMetricsJSON struct {
	UptimeMS          float64    `json:"uptime_ms"`
	Stats             Stats      `json:"stats"`
	QueuedInteractive int        `json:"queued_interactive"`
	QueuedBatch       int        `json:"queued_batch"`
	InFlight          int        `json:"in_flight"`
	StreamForwards    int64      `json:"stream_forwards"`
	JSONForwards      int64      `json:"json_forwards"`
	StreamDials       int64      `json:"stream_dials"`
	StreamReuses      int64      `json:"stream_reuses"`
	StreamRedials     int64      `json:"stream_redials"`
	Nodes             []NodeJSON `json:"nodes"`
}

// HTTPCoordinator is the fleet front-end: it speaks the same job API as
// a single barracudad (POST /jobs, GET /jobs/{id}) so clients point at
// the coordinator unchanged, plus the /fleet/* control surface workers
// register against. Jobs are forwarded over standing /v1/stream sessions,
// one pool per worker address (streamfwd.go), and over the worker's JSON
// /jobs API when the worker refuses the upgrade or the job's shape needs
// it; worker failures are classified by the machine-readable code of the
// REJECT frame or ErrorJSON body (retryable 429/503 vs permanent 400) and
// retryable ones re-route to the next ring successor with the failed
// node excluded.
type HTTPCoordinator struct {
	core    *Coordinator
	mux     *http.ServeMux
	client  *http.Client
	start   time.Time
	maxJobs int

	// Forward-path census: how many assignments rode each transport.
	streamFwds atomic.Int64
	jsonFwds   atomic.Int64
	sessions   sessionPool

	mu     sync.Mutex
	jobs   map[string]*proxyJob
	order  []string
	nextID int64

	quit chan struct{}
	wg   sync.WaitGroup
}

type proxyJob struct {
	id string
	fj *Job

	mu      sync.Mutex
	reqCopy server.JobRequest // the original submission, re-sent on each forward; dropped once terminal
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
		ID: p.id, Status: p.status, Class: p.fj.Class, Node: p.node,
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
		core:    NewCoordinator(opt),
		mux:     http.NewServeMux(),
		client:  &http.Client{Timeout: 30 * time.Second},
		start:   time.Now(),
		maxJobs: opt.MaxJobs,
		jobs:    make(map[string]*proxyJob),
		quit:    make(chan struct{}),
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

// perform launches one forwarding goroutine per assignment.
func (h *HTTPCoordinator) perform(asgs []Assignment) {
	for _, a := range asgs {
		go h.forward(a)
	}
}

// forward pushes one assignment to its worker and sees it through to a
// terminal state, reporting the outcome back to the scheduling core.
func (h *HTTPCoordinator) forward(a Assignment) {
	pj := a.Job.Payload.(*proxyJob)
	node, ok := h.core.Node(a.Node)
	if !ok {
		// Node vanished between dispatch and forward (declared dead):
		// fail retryable so the job re-routes.
		h.failAssignment(a, pj, true, "node "+a.Node+" disappeared", server.CodeUnavailable)
		return
	}
	pj.mu.Lock()
	pj.status = server.StatusRunning
	pj.node = a.Node
	pj.mu.Unlock()

	req := pj.fjRequest()
	if h.streamForward(a, pj, node, req) {
		h.streamFwds.Add(1)
		return
	}
	h.jsonFwds.Add(1)
	body, _ := json.Marshal(req)
	resp, err := h.client.Post(node.Addr+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		h.failAssignment(a, pj, true, "forward to "+a.Node+": "+err.Error(), server.CodeUnavailable)
		return
	}
	var accepted server.JobInfo
	if code, errJSON := decodeOrError(resp, &accepted); errJSON != nil {
		retryable := server.RetryableCode(errJSON.Code) || code >= 500
		h.failAssignment(a, pj, retryable, errJSON.Error, errJSON.Code)
		return
	}

	// Long-poll the worker until the job is terminal.
	for {
		resp, err := h.client.Get(node.Addr + "/jobs/" + accepted.ID + "?wait_ms=2000")
		if err != nil {
			h.failAssignment(a, pj, true, "poll "+a.Node+": "+err.Error(), server.CodeUnavailable)
			return
		}
		var info server.JobInfo
		if _, errJSON := decodeOrError(resp, &info); errJSON != nil {
			// The worker forgot the job (restart): retry elsewhere.
			h.failAssignment(a, pj, true, errJSON.Error, errJSON.Code)
			return
		}
		switch info.Status {
		case server.StatusDone:
			asgs, live := h.core.Complete(a.Node, a.Job.ID, info.CacheHit)
			if live {
				pj.finish(server.StatusDone, "", "", &info)
			}
			h.perform(asgs)
			return
		case server.StatusFailed, server.StatusTimeout:
			// The job itself failed on a healthy worker — a property of
			// the job, not the node. Free the slot without re-routing.
			asgs, live := h.core.Complete(a.Node, a.Job.ID, info.CacheHit)
			if live {
				pj.finish(server.StatusFailed, info.Error, "", &info)
			}
			h.perform(asgs)
			return
		}
	}
}

func (h *HTTPCoordinator) failAssignment(a Assignment, pj *proxyJob, retryable bool, msg, code string) {
	asgs, outcome := h.core.Fail(a.Node, a.Job.ID, retryable)
	switch outcome {
	case FailStale:
		// This attempt was superseded: the node was declared dead while
		// the forward was stuck (a poll can outlive DeadAfter) and the
		// job already requeued. The live attempt owns pj — touching it
		// here would fail a job that is still running, or even done,
		// elsewhere.
	case FailTerminal:
		if code == "" {
			code = server.CodeUnavailable
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

// fjRequest returns the original JobRequest for forwarding.
func (p *proxyJob) fjRequest() server.JobRequest {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reqCopy
}

func decodeOrError(resp *http.Response, into any) (int, *server.ErrorJSON) {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e server.ErrorJSON
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			e.Error = resp.Status
		}
		if e.Code == "" {
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				e.Code = server.CodeQueueFull
			case http.StatusNotFound:
				e.Code = server.CodeNotFound
			case http.StatusBadRequest:
				e.Code = server.CodeInvalidArgument
			default:
				e.Code = server.CodeUnavailable
			}
		}
		return resp.StatusCode, &e
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return resp.StatusCode, &server.ErrorJSON{Error: "bad response body: " + err.Error(), Code: server.CodeUnavailable}
	}
	return resp.StatusCode, nil
}

const maxBodyBytes = 16 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, server.ErrorJSON{Error: msg, Code: code})
}

func (h *HTTPCoordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, server.CodeInvalidArgument, "bad request body: "+err.Error())
		return
	}
	if req.ID == "" || req.Addr == "" {
		writeError(w, http.StatusBadRequest, server.CodeInvalidArgument, `join: fields "id" and "addr" are required`)
		return
	}
	h.perform(h.core.Join(req.ID, req.Addr, req.Capacity, time.Now()))
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h *HTTPCoordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, server.CodeInvalidArgument, "bad request body: "+err.Error())
		return
	}
	known, asgs := h.core.Heartbeat(req.ID, req.Stats, time.Now())
	if !known {
		writeError(w, http.StatusNotFound, server.CodeNotFound, "heartbeat: unknown node "+req.ID+" (re-join)")
		return
	}
	h.perform(asgs)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h *HTTPCoordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, server.CodeInvalidArgument, "bad request body: "+err.Error())
		return
	}
	h.perform(h.core.Leave(req.ID))
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleDrain starts or polls a graceful drain. The first call marks
// the node draining and reports its in-flight count; the worker polls
// until in_flight reaches zero. Each poll refreshes the node's beat, so
// a draining worker needs no separate heartbeat loop. A 404 means the
// node is unknown — for a poll that follows an accepted drain this is
// the success signal (the coordinator already removed the node).
func (h *HTTPCoordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, server.CodeInvalidArgument, "bad request body: "+err.Error())
		return
	}
	asgs, inflight, known := h.core.Drain(req.ID, time.Now())
	h.perform(asgs)
	if !known {
		writeError(w, http.StatusNotFound, server.CodeNotFound, "drain: unknown node "+req.ID)
		return
	}
	writeJSON(w, http.StatusOK, DrainResponse{InFlight: inflight, Removed: inflight == 0})
}

func (h *HTTPCoordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.nodesJSON())
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
	qi, qb := h.core.QueueDepths()
	writeJSON(w, http.StatusOK, FleetMetricsJSON{
		UptimeMS:          float64(time.Since(h.start).Microseconds()) / 1000,
		Stats:             h.core.Stats(),
		QueuedInteractive: qi,
		QueuedBatch:       qb,
		InFlight:          h.core.InFlight(),
		StreamForwards:    h.streamFwds.Load(),
		JSONForwards:      h.jsonFwds.Load(),
		StreamDials:       h.sessions.dials.Load(),
		StreamReuses:      h.sessions.reuses.Load(),
		StreamRedials:     h.sessions.redials.Load(),
		Nodes:             h.nodesJSON(),
	})
}

func (h *HTTPCoordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": float64(time.Since(h.start).Microseconds()) / 1000,
		"nodes":     h.core.Routable(),
	})
}

func (h *HTTPCoordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req server.JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, server.CodeInvalidArgument, "bad request body: "+err.Error())
		return
	}
	// Shape-validate here so permanent 400s never consume a dispatch;
	// each worker still enforces its own buffer cap.
	if err := req.Validate(0); err != nil {
		writeError(w, http.StatusBadRequest, server.CodeInvalidArgument, err.Error())
		return
	}
	// Repair jobs run many verification launches: always batch-class,
	// so one cannot occupy the interactive fast path.
	if req.Kind == server.KindRepair {
		req.Class = server.ClassBatch
	}
	src := req.PTX
	if req.Bench != "" {
		src = bench.ByName(req.Bench).PTX()
	}
	key := server.CacheKey(src, req.Config)

	h.mu.Lock()
	h.nextID++
	id := fmt.Sprintf("fjob-%d", h.nextID)
	pj := &proxyJob{id: id, status: server.StatusQueued, done: make(chan struct{}), reqCopy: req}
	fj := &Job{ID: id, Key: key, Class: req.Class, Payload: pj}
	pj.fj = fj
	h.jobs[id] = pj
	h.order = append(h.order, id)
	h.trimJobsLocked()
	h.mu.Unlock()

	asgs, err := h.core.Submit(fj, time.Now())
	if errors.Is(err, ErrNoNodes) {
		h.dropJob(id)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, server.CodeUnavailable, err.Error())
		return
	}
	if err != nil {
		h.dropJob(id)
		writeError(w, http.StatusBadRequest, server.CodeInvalidArgument, err.Error())
		return
	}
	h.perform(asgs)
	writeJSON(w, http.StatusAccepted, pj.info())
}

// dropJob rolls a failed submission back out of the job table. It must
// remove the specific id — a concurrent submit may have appended to
// h.order since we released h.mu, so truncating the tail would orphan
// the other request's job.
func (h *HTTPCoordinator) dropJob(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.jobs, id)
	for i := len(h.order) - 1; i >= 0; i-- {
		if h.order[i] == id {
			h.order = append(h.order[:i], h.order[i+1:]...)
			return
		}
	}
}

// trimJobsLocked forgets the oldest terminal jobs past the retention
// cap, mirroring server.Scheduler's bounded job history so a
// long-running coordinator does not accumulate every job (and its PTX
// payload) forever.
func (h *HTTPCoordinator) trimJobsLocked() {
	for len(h.order) > h.maxJobs {
		id := h.order[0]
		if pj, ok := h.jobs[id]; ok {
			if !pj.terminal() {
				return // oldest still live: keep history until it finishes
			}
			delete(h.jobs, id)
		}
		h.order = h.order[1:]
	}
}

func (h *HTTPCoordinator) handleList(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	out := make([]FleetJobInfo, 0, len(h.order))
	for _, id := range h.order {
		if pj, ok := h.jobs[id]; ok {
			out = append(out, pj.info())
		}
	}
	h.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (h *HTTPCoordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	pj, ok := h.jobs[r.PathValue("id")]
	h.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, server.CodeNotFound, "no such job")
		return
	}
	if ms, _ := strconv.Atoi(r.URL.Query().Get("wait_ms")); ms > 0 {
		select {
		case <-pj.done:
		case <-time.After(time.Duration(ms) * time.Millisecond):
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, pj.info())
}
