package fleet

import (
	"errors"
	"time"

	"barracuda/internal/server"
	"barracuda/internal/wire"
)

// Stream forwarding: the coordinator pushes assignments to workers over
// the binary streaming protocol (internal/wire) instead of JSON POST +
// long-poll. Two things get cheaper:
//
//   - Bytes on the wire. The module travels once as framed chunks and
//     is declared by content hash on every later forward, so a retry —
//     or any job ring-routed to a worker that already holds the module
//     in its source store — skips the PTX transfer entirely and
//     re-streams from the worker's cache. The JSON path re-sends the
//     full base64-free but still verbatim source on every attempt.
//
//   - Latency. The terminal summary arrives as a pushed frame the
//     moment the job finishes, instead of at the next long-poll
//     boundary.
//
// The JSON path remains the automatic fallback for workers that refuse
// the upgrade and for job shapes only the JSON surface expresses
// (benchmark modules, repair loops, oversize modules).

// streamable reports whether a job can travel the wire protocol at all.
// Bench jobs resolve their module worker-side and repair jobs return a
// RepairReport; neither fits a LaunchSpec, so they ride the JSON path.
func streamable(req server.JobRequest) bool {
	return req.Bench == "" && req.Kind != server.KindRepair &&
		len(req.PTX) <= wire.MaxModule
}

// launchSpec maps the JSON job shape onto the wire launch shape.
func launchSpec(req server.JobRequest) wire.LaunchSpec {
	return wire.LaunchSpec{
		Seq:       1,
		Kernel:    req.Kernel,
		Grid:      req.Grid,
		Block:     req.Block,
		WarpSize:  req.WarpSize,
		TimeoutMS: req.TimeoutMS,
		MaxInstrs: req.MaxInstrs,
		Buffers:   req.Buffers,
		Config:    req.Config,
	}
}

// wireFailure classifies a mid-stream error the way decodeOrError
// classifies a JSON error body: rejects carry their own machine code,
// everything else (dead connection, protocol violation) is a node
// problem worth retrying elsewhere.
func wireFailure(err error) (retryable bool, code string) {
	var rej *wire.RejectError
	if errors.As(err, &rej) {
		return server.RetryableCode(rej.Reject.Code), rej.Reject.Code
	}
	return true, server.CodeUnavailable
}

// streamForward pushes one assignment over the wire protocol and sees
// it through to a terminal outcome. It returns false only when the
// assignment was not attempted at all — an unstreamable job shape or a
// worker that refused the upgrade — and the caller should forward over
// JSON instead. In every other case the assignment's fate is settled
// here (completed, permanently failed, or requeued for retry) and the
// JSON path must not run.
func (h *HTTPCoordinator) streamForward(a Assignment, pj *proxyJob, node NodeInfo, req server.JobRequest) bool {
	if !streamable(req) {
		return false
	}
	c, err := wire.Dial(node.Addr, "fleet:"+a.Node, 10*time.Second)
	if err != nil {
		if errors.Is(err, wire.ErrUpgradeRefused) {
			return false // worker predates the stream endpoint: use JSON
		}
		retryable, code := wireFailure(err)
		h.failAssignment(a, pj, retryable, "stream to "+a.Node+": "+err.Error(), code)
		return true
	}
	defer c.Close()

	// Hash-declared upload: a worker that already holds the module
	// (earlier attempt, or ring affinity) answers "have" and the source
	// bytes never leave the coordinator.
	if _, _, err := c.UploadModule([]byte(req.PTX)); err != nil {
		retryable, code := wireFailure(err)
		h.failAssignment(a, pj, retryable, "stream upload to "+a.Node+": "+err.Error(), code)
		return true
	}
	if err := c.Launch(launchSpec(req)); err != nil {
		h.failAssignment(a, pj, true, "stream launch to "+a.Node+": "+err.Error(), server.CodeUnavailable)
		return true
	}

	var workerID string
	for {
		ev, err := c.Next()
		if err != nil {
			// The stream died under a live job (worker crash, cut
			// connection): same treatment as a failed long-poll.
			h.failAssignment(a, pj, true, "stream "+a.Node+": "+err.Error(), server.CodeUnavailable)
			return true
		}
		switch ev.Type {
		case wire.FAccept:
			workerID = ev.Accept.JobID
		case wire.FRace:
			// Low-latency preview frames; the summary's race table is
			// authoritative and is what lands in the job result.
		case wire.FReject:
			h.failAssignment(a, pj, server.RetryableCode(ev.Reject.Code),
				"stream "+a.Node+": "+ev.Reject.Msg, ev.Reject.Code)
			return true
		case wire.FSummary:
			sum := ev.Summary
			c.Bye()
			info := server.JobInfoFromSummary(workerID, sum)
			asgs, live := h.core.Complete(a.Node, a.Job.ID, sum.CacheHit)
			if live {
				if sum.Status == server.StatusDone {
					pj.finish(server.StatusDone, "", "", info)
				} else {
					// Failed/timeout on a healthy worker: a property of
					// the job, not the node — no re-route.
					pj.finish(server.StatusFailed, sum.Error, "", info)
				}
			}
			h.perform(asgs)
			return true
		}
	}
}
