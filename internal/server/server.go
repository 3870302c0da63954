package server

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"barracuda/internal/wire"
)

// maxBodyBytes bounds a job submission body (PTX sources are text; 16
// MiB is far beyond any real module).
const maxBodyBytes = 16 << 20

// Server is the barracudad HTTP front end.
//
// API:
//
//	POST /jobs          submit a JobRequest  → 202 JobInfo | 400 | 429
//	                    (kind "repair" runs the verified repair loop)
//	GET  /jobs          list retained jobs   → 200 []JobInfo
//	GET  /jobs/{id}     fetch one job        → 200 JobInfo | 404
//	                    ?wait_ms=N long-polls until terminal or N ms
//	GET  /v1/stream     upgrade to the binary streaming protocol
//	                    (internal/wire): chunked PTX upload, pipelined
//	                    launches, incremental race frames → 101 | 426
//	GET  /healthz       liveness             → 200 {"status":"ok",...}
//	GET  /metrics       counters             → 200 MetricsJSON
//	GET  /v1/metrics    alias of /metrics (the versioned surface; a
//	                    fleet worker's heartbeat is built apart from
//	                    it, by Scheduler.HeartbeatStats)
//
// Non-2xx responses carry ErrorJSON with a stable machine-readable
// code so the coordinator can tell retryable from permanent failures.
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
	start time.Time

	// Open /v1/stream connections. net/http forgets a connection once it
	// is hijacked, and a peer that keeps its session open between jobs
	// (the fleet coordinator) leaves its handler blocked in ReadFrame, so
	// Close has to end them itself.
	streamMu   sync.Mutex
	streams    map[net.Conn]struct{}
	closed     bool
	streamsEnd sync.WaitGroup
}

// New builds a server (and its scheduler/worker pool) from options.
func New(opts SchedulerOptions) *Server {
	s := &Server{
		sched:   NewScheduler(opts),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		streams: make(map[net.Conn]struct{}),
	}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Scheduler exposes the service core (tests, benchmarks).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Close stops the worker pool, then closes every open stream and waits
// for its handler to return. The scheduler goes first: once it has
// stopped every launch is terminal, so no handler waits on a job.
func (s *Server) Close() {
	s.sched.Stop()
	s.streamMu.Lock()
	s.closed = true
	for c := range s.streams {
		c.Close()
	}
	s.streamMu.Unlock()
	s.streamsEnd.Wait()
}

// trackStream registers a hijacked connection until the returned func is
// called; ok is false once the server is closing.
func (s *Server) trackStream(c net.Conn) (done func(), ok bool) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.closed {
		return nil, false
	}
	s.streams[c] = struct{}{}
	s.streamsEnd.Add(1)
	return func() {
		s.streamMu.Lock()
		delete(s.streams, c)
		s.streamMu.Unlock()
		s.streamsEnd.Done()
	}, true
}

func (s *Server) streamsOpen() int {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	return len(s.streams)
}

// WriteJSON, WriteError, DecodeBody and WaitDone are the HTTP plumbing of
// both front ends: the daemon's and the fleet coordinator's.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes the ErrorJSON envelope.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorJSON{Error: msg, Code: code})
}

// DecodeBody reads a JSON request body of at most maxBodyBytes into
// into; strict refuses fields the type does not have. On failure it has
// answered 400 invalid_argument and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, into any, strict bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(into); err != nil {
		WriteError(w, http.StatusBadRequest, wire.CodeInvalidArgument, "bad request body: "+err.Error())
		return false
	}
	return true
}

// WaitDone is ?wait_ms=N: it returns when done closes, after N ms, or
// when the client goes away, whichever is first. N is clamped to
// maxTimeoutMS, past which the wait would wrap negative and end at once.
// Its timer stops when it returns: under the module's go 1.22 timer
// semantics an unstopped one stays live until it fires.
func WaitDone(r *http.Request, done <-chan struct{}) {
	if ms, _ := strconv.ParseInt(r.URL.Query().Get("wait_ms"), 10, 64); ms > 0 {
		t := time.NewTimer(time.Duration(min(ms, maxTimeoutMS)) * time.Millisecond)
		defer t.Stop()
		select {
		case <-done:
		case <-t.C:
		case <-r.Context().Done():
		}
	}
}

// bearerToken extracts the API key from an Authorization: Bearer
// header; jobs submitted without one share the anonymous fair-share
// bucket.
func bearerToken(r *http.Request) string {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) {
		return h[len(prefix):]
	}
	return ""
}

// handleSubmit queues a job; on refusal it answers 429 queue_full with
// Retry-After, or 400 invalid_argument.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !DecodeBody(w, r, &req, true) {
		return
	}
	job, err := s.sched.submit(req, nil, bearerToken(r), nil)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, wire.CodeQueueFull, err.Error())
	case err != nil:
		WriteError(w, http.StatusBadRequest, wire.CodeInvalidArgument, err.Error())
	default:
		WriteJSON(w, http.StatusAccepted, job.Info())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.jobs.List()
	out := make([]JobInfo, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Info())
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.jobs.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	}
	WaitDone(r, job.Done())
	WriteJSON(w, http.StatusOK, job.Info())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"uptime_ms":   float64(time.Since(s.start).Microseconds()) / 1000,
		"queue_depth": s.sched.QueueDepth(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.sched.Metrics()
	WriteJSON(w, http.StatusOK, MetricsJSON{
		UptimeMS:      float64(time.Since(s.start).Microseconds()) / 1000,
		Workers:       s.sched.Options().Workers,
		QueueDepth:    s.sched.QueueDepth(),
		QueueCapacity: s.sched.Options().QueueCap,
		InFlight:      s.sched.InFlight(),
		StreamsOpen:   s.streamsOpen(),
		Jobs:          m.Counters(),
		Cache:         s.sched.Cache().Stats(),
		Srcs:          s.sched.Srcs().Stats(),
		Tenants:       s.sched.Tenants().Snapshot(),
		Shadow:        m.Shadow(),
		DetectLatency: m.Latency.Snapshot(),
	})
}
