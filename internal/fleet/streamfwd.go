package fleet

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"barracuda/internal/server"
	"barracuda/internal/wire"
)

// Stream forwarding: the coordinator pushes every assignment — detect,
// bench (resolved to its PTX at submit) and repair — to its worker over
// the binary streaming protocol (internal/wire). The module travels once
// as framed chunks and is declared by content hash on every later
// forward, so a retry — or any job ring-routed to a worker that already
// holds the module in its source store — skips the PTX transfer; the
// terminal summary is a pushed frame; and the connect, the HTTP upgrade
// and the handshake are paid once per connection: sessions stand.
//
// Session lifecycle (diagram in DESIGN.md "Fleet forwarding"): a forward
// checks a session out of its worker address's idle list, dialing only
// when the list is empty, and runs one job on it. A SUMMARY or a launch
// REJECT puts the session back; any other outcome closes it for good.
// Idle sessions are closed when their address leaves the registry (tick
// loop), when one of them proves stale, and by HTTPCoordinator.Close.
//
// One job per checked-out session: the coordinator never has more
// forwards in flight on a node than its capacity, and a session goes back
// on the list before core.Complete/core.Fail frees the slot, so an
// address's sessions never outnumber its slots and the pool gives a job
// the latency a multiplexed connection would, without a demultiplexer.
//
// A stale idle session is not a node failure: the worker may have
// restarted, or the connection been cut, since it last carried a job.
// When a reused session fails before the job's ACCEPT was read, every
// idle session of that address is dropped, one fresh connection is dialed
// and the exchange runs again; only that second failure is a failed
// assignment. After ACCEPT a dead stream is a dead job, as it always was.
//
// A worker that refuses the upgrade is a failed node: the dial error is
// retryable like any other, and the job walks the ring without it.

// wireFailure classifies a dial or mid-stream error: rejects carry their
// own machine code, everything else (dead connection, refused upgrade,
// protocol violation) is a node problem worth retrying elsewhere.
func wireFailure(err error) (retryable bool, code string) {
	var rej *wire.RejectError
	if errors.As(err, &rej) {
		return server.RetryableCode(rej.Reject.Code), rej.Reject.Code
	}
	return true, wire.CodeUnavailable
}

// session is one standing /v1/stream connection to a worker.
type session struct {
	*wire.Client
	seq    uint64 // Seq of the last launch; the next one uses seq+1
	reused bool   // checked out of the idle list, so possibly stale
}

// sessionPool holds, per worker address, the sessions no forward is
// using. The zero value is ready.
type sessionPool struct {
	mu     sync.Mutex
	idle   map[string][]*session
	closed bool

	dials, reuses, redials atomic.Int64
}

// checkout takes the most recently used idle session of addr, dialing
// only when there is none.
func (p *sessionPool) checkout(addr, apiKey string) (*session, error) {
	p.mu.Lock()
	if l := p.idle[addr]; len(l) > 0 {
		s := l[len(l)-1]
		p.idle[addr] = l[:len(l)-1]
		p.mu.Unlock()
		s.reused = true
		p.reuses.Add(1)
		return s, nil
	}
	p.mu.Unlock()
	c, err := wire.Dial(addr, apiKey, 10*time.Second)
	if err != nil {
		return nil, err
	}
	p.dials.Add(1)
	return &session{Client: c}, nil
}

// checkin returns a clean session to the idle list.
func (p *sessionPool) checkin(addr string, s *session) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		s.Close()
		return
	}
	if p.idle == nil {
		p.idle = make(map[string][]*session)
	}
	p.idle[addr] = append(p.idle[addr], s)
	p.mu.Unlock()
}

// retain closes the idle sessions of every address keep rejects.
func (p *sessionPool) retain(keep func(addr string) bool) {
	p.mu.Lock()
	var drop []*session
	for addr, l := range p.idle {
		if !keep(addr) {
			drop = append(drop, l...)
			delete(p.idle, addr)
		}
	}
	p.mu.Unlock()
	for _, s := range drop {
		s.Close()
	}
}

// close empties the pool for good: later checkins close their session.
func (p *sessionPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.retain(func(string) bool { return false })
}

func (p *sessionPool) idleCount(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[addr])
}

// exchange is what one job's trip over a session came to.
type exchange struct {
	workerID string
	sum      wire.Summary
	rej      *wire.Reject // the launch was refused; the session is still clean
	accepted bool         // ACCEPT was read: the worker holds the job
	err      error        // the session is unusable
}

// run uploads (or declares) the job's module, launches it under the
// session's next Seq and reads events until that launch's SUMMARY or
// REJECT. Hash-declared upload: a worker that already holds the module
// (earlier attempt, or ring affinity) answers "have" and the source bytes
// never leave the coordinator.
func (s *session) run(req server.JobRequest) (x exchange) {
	if _, _, x.err = s.UploadModule([]byte(req.PTX)); x.err != nil {
		x.err = fmt.Errorf("upload: %w", x.err)
		return x
	}
	s.seq++
	if x.err = s.Launch(req.LaunchSpec(s.seq)); x.err != nil {
		x.err = fmt.Errorf("launch: %w", x.err)
		return x
	}
	for {
		ev, err := s.Next()
		if err != nil {
			// The stream died under a live job (worker crash, cut
			// connection).
			x.err = err
			return x
		}
		var seq uint64
		switch ev.Type {
		case wire.FAccept:
			seq, x.workerID, x.accepted = ev.Accept.Seq, ev.Accept.JobID, true
		case wire.FRace:
			// Low-latency preview frames; the summary's race table is
			// authoritative and is what lands in the job result.
			seq = ev.Race.Seq
		case wire.FReject:
			seq, x.rej = ev.Reject.Seq, &ev.Reject
		case wire.FSummary:
			seq, x.sum = ev.Summary.Seq, ev.Summary
		}
		// One job per checked-out session: a frame of any other launch
		// means the two ends disagree about the session's state.
		if seq != s.seq {
			x.err = fmt.Errorf("%w: frame %#x of launch %d while running launch %d", wire.ErrMalformed, ev.Type, seq, s.seq)
			return x
		}
		if x.rej != nil || ev.Type == wire.FSummary {
			return x
		}
	}
}

// forward pushes one assignment to its worker over a pooled session and
// sees it through to a terminal state — completed, permanently failed, or
// requeued for retry — reporting the outcome back to the scheduling core.
func (h *HTTPCoordinator) forward(a Assignment) {
	pj := a.Job.Payload.(*proxyJob)
	node, ok := h.core.Node(a.Node)
	if !ok {
		// Node vanished between dispatch and forward (declared dead):
		// fail retryable so the job re-routes.
		h.failAssignment(a, pj, true, "node "+a.Node+" disappeared", wire.CodeUnavailable)
		return
	}
	pj.mu.Lock()
	pj.status = server.StatusRunning
	pj.node = a.Node
	req := pj.reqCopy
	pj.mu.Unlock()
	h.streamFwds.Add(1)

	apiKey := "fleet:" + a.Node
	var x exchange
	s, err := h.sessions.checkout(node.Addr, apiKey)
	if err == nil {
		x = s.run(req)
		if x.err != nil && s.reused && !x.accepted {
			// Stale, not failed: see the header. The idle siblings are as
			// old as this one, so they go too, and the checkout dials.
			log.Printf("fleet: idle session to %s (%s) was stale (%v), redialing", a.Node, node.Addr, x.err)
			h.sessions.redials.Add(1)
			s.Close()
			h.sessions.retain(func(addr string) bool { return addr != node.Addr })
			if s, err = h.sessions.checkout(node.Addr, apiKey); err == nil {
				x = s.run(req)
			}
		}
	}
	switch {
	case err != nil:
		retryable, code := wireFailure(err)
		h.failAssignment(a, pj, retryable, "stream to "+a.Node+": "+err.Error(), code)
	case x.err != nil:
		s.Close()
		retryable, code := wireFailure(x.err)
		h.failAssignment(a, pj, retryable, "stream "+a.Node+": "+x.err.Error(), code)
	case x.rej != nil:
		h.sessions.checkin(node.Addr, s)
		h.failAssignment(a, pj, server.RetryableCode(x.rej.Code),
			"stream "+a.Node+": "+x.rej.Msg, x.rej.Code)
	default:
		// Back on the list before Complete frees the node's slot: the next
		// forward to this node starts inside Complete and must find it.
		h.sessions.checkin(node.Addr, s)
		info := server.JobInfoFromSummary(x.workerID, x.sum)
		asgs, live := h.core.Complete(a.Node, a.Job.ID, x.sum.CacheHit)
		if live {
			if x.sum.Status == server.StatusDone {
				pj.finish(server.StatusDone, "", "", info)
			} else {
				// Failed/timeout on a healthy worker: a property of
				// the job, not the node — no re-route.
				pj.finish(server.StatusFailed, x.sum.Error, "", info)
			}
		}
		h.perform(asgs)
	}
}
