package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"barracuda/internal/server"
)

// WorkerLink is the worker side of the fleet protocol: it registers an
// otherwise-unmodified barracudad with a coordinator (-join) and keeps
// it registered with periodic heartbeats carrying the scheduler's queue
// depth and cache figures. If the coordinator forgets the node (its
// restart, or a dead-declaration after missed beats), the next beat's
// 404 triggers an automatic re-join. Job traffic itself arrives through
// the daemon's /v1/stream, on sessions the coordinator keeps open between
// jobs — the coordinator is just another client with routing smarts.
type WorkerLink struct {
	coord    string // coordinator base URL
	id       string
	addr     string // this worker's advertised base URL
	sched    *server.Scheduler
	interval time.Duration
	client   *http.Client
	logf     func(format string, args ...any)

	quit chan struct{}
	done chan struct{}
	stop sync.Once // Close and Drain both stop the loop; only one closes quit

	// holdUntil pauses join/beat attempts while a backpressured
	// coordinator's Retry-After (or the bounded-backoff fallback) runs
	// out; attempts counts consecutive failures for the fallback curve.
	holdUntil time.Time
	attempts  int
}

// StartWorkerLink registers with the coordinator and starts the
// heartbeat loop. Registration failures are retried from the loop, so
// a worker can come up before its coordinator. logf may be nil
// (defaults to log.Printf).
func StartWorkerLink(coordURL, id, advertiseAddr string, sched *server.Scheduler, interval time.Duration, logf func(string, ...any)) *WorkerLink {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if logf == nil {
		logf = log.Printf
	}
	l := &WorkerLink{
		coord:    coordURL,
		id:       id,
		addr:     advertiseAddr,
		sched:    sched,
		interval: interval,
		client:   &http.Client{Timeout: 10 * time.Second},
		logf:     logf,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go l.loop()
	return l
}

// Close stops the loop and sends a best-effort leave so the coordinator
// re-routes immediately instead of waiting out the dead timer. In-flight
// jobs forwarded to this worker are requeued; use Drain for a clean
// departure that lets them finish.
func (l *WorkerLink) Close() {
	l.stopLoop()
	body, _ := json.Marshal(LeaveRequest{ID: l.id})
	resp, err := l.client.Post(l.coord+"/fleet/leave", "application/json", bytes.NewReader(body))
	if err == nil {
		resp.Body.Close()
	}
}

func (l *WorkerLink) stopLoop() {
	l.stop.Do(func() { close(l.quit) })
	<-l.done
}

// Drain departs gracefully: the heartbeat loop stops (so a beat can't
// race the removal and re-join), then /fleet/drain is polled until the
// coordinator reports every job this node was running as finished and
// removes it. Each poll refreshes the node's beat server-side, so the
// dead timer never fires during a slow drain. On timeout (or if the
// coordinator never accepted the drain) it falls back to a plain leave,
// which requeues whatever is still in flight. Returns true on a clean
// drain.
func (l *WorkerLink) Drain(timeout time.Duration) bool {
	l.stopLoop()
	interval := l.interval
	if interval > time.Second {
		interval = time.Second
	}
	deadline := time.Now().Add(timeout)
	accepted := false
	for time.Now().Before(deadline) {
		body, _ := json.Marshal(DrainRequest{ID: l.id})
		resp, err := l.client.Post(l.coord+"/fleet/drain", "application/json", bytes.NewReader(body))
		if err != nil {
			l.logf("fleet: drain: %v (will retry)", err)
			time.Sleep(interval)
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			if accepted {
				// The coordinator finished the drain between polls.
				l.logf("fleet: drained %s cleanly", l.id)
				return true
			}
			// Unknown node: nothing to drain, nothing to requeue.
			l.logf("fleet: drain: coordinator does not know %s", l.id)
			return true
		}
		var dr DrainResponse
		derr := json.NewDecoder(resp.Body).Decode(&dr)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 || derr != nil {
			l.logf("fleet: drain: %s (will retry)", resp.Status)
			time.Sleep(interval)
			continue
		}
		accepted = true
		if dr.Removed {
			l.logf("fleet: drained %s cleanly", l.id)
			return true
		}
		l.logf("fleet: draining %s: %d job(s) in flight", l.id, dr.InFlight)
		time.Sleep(interval)
	}
	l.logf("fleet: drain of %s timed out, leaving (in-flight jobs requeue)", l.id)
	body, _ := json.Marshal(LeaveRequest{ID: l.id})
	if resp, err := l.client.Post(l.coord+"/fleet/leave", "application/json", bytes.NewReader(body)); err == nil {
		resp.Body.Close()
	}
	return false
}

func (l *WorkerLink) loop() {
	defer close(l.done)
	joined := l.join()
	t := time.NewTicker(l.interval)
	defer t.Stop()
	for {
		select {
		case <-l.quit:
			return
		case now := <-t.C:
			if now.Before(l.holdUntil) {
				continue // coordinator said Retry-After: respect it
			}
			if !joined {
				joined = l.join()
				continue
			}
			joined = l.beat()
		}
	}
}

// hold records a backpressure response: the link stays silent for the
// server's Retry-After (or the bounded exponential fallback).
func (l *WorkerLink) hold(resp *http.Response) {
	d := RetryDelay(resp, l.attempts)
	l.attempts++
	l.holdUntil = time.Now().Add(d)
	l.logf("fleet: coordinator backpressure (%s), holding %v", resp.Status, d)
}

func (l *WorkerLink) join() bool {
	body, _ := json.Marshal(JoinRequest{
		ID: l.id, Addr: l.addr, Capacity: l.sched.Options().Workers,
	})
	resp, err := l.client.Post(l.coord+"/fleet/join", "application/json", bytes.NewReader(body))
	if err != nil {
		l.logf("fleet: join %s: %v (will retry)", l.coord, err)
		return false
	}
	defer resp.Body.Close()
	if RetryableStatus(resp.StatusCode) {
		l.hold(resp)
		return false
	}
	if resp.StatusCode/100 != 2 {
		l.logf("fleet: join %s: %s (will retry)", l.coord, resp.Status)
		return false
	}
	l.attempts = 0
	l.logf("fleet: joined coordinator %s as %s (%s)", l.coord, l.id, l.addr)
	return true
}

// beat sends one heartbeat; false demotes the link to re-join mode.
func (l *WorkerLink) beat() bool {
	body, _ := json.Marshal(HeartbeatRequest{ID: l.id, Stats: l.sched.HeartbeatStats()})
	resp, err := l.client.Post(l.coord+"/fleet/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		l.logf("fleet: heartbeat: %v", err)
		return true // transient: keep beating, the dead timer is the judge
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		l.logf("fleet: coordinator forgot %s, re-joining", l.id)
		return false
	}
	if RetryableStatus(resp.StatusCode) {
		l.hold(resp)
		return true // stay joined; just back off
	}
	if resp.StatusCode/100 != 2 {
		l.logf("fleet: heartbeat: %s", resp.Status)
		return true
	}
	l.attempts = 0
	return true
}

// DefaultNodeID derives a stable-enough worker identity from the
// advertised address when the operator doesn't name one.
func DefaultNodeID(advertiseAddr string) string {
	return fmt.Sprintf("worker-%x", ringHash(advertiseAddr)&0xffffff)
}
