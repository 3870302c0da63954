package main

// Remote submission. -server points the CLI at a barracudad daemon (or
// a fleet coordinator, which speaks the same job API):
//
//	barracuda -server http://host:8321 -ptx kernel.ptx -kernel k
//	barracuda -server http://host:8321 -stream -ptx kernel.ptx
//	barracuda -server http://host:8321 -stream -bench hybridsort
//
// Plain -server submits over the JSON API and polls, honoring the
// server's Retry-After backpressure hints, and reads a worker's job body
// or a coordinator's envelope around one. Adding -stream (workers only)
// upgrades to the binary streaming protocol (internal/wire): the module
// uploads once into the server's content-addressed cache (repeat runs
// skip the transfer) and races print the moment the detector finds them,
// ahead of the terminal summary. Either way printReport prints the result.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"barracuda/internal/fleet"
	"barracuda/internal/server"
	"barracuda/internal/wire"
)

// jobBody reads either front end's job body: a worker's server.JobInfo,
// or a coordinator's fleet.FleetJobInfo — id, status and error at the top
// level too, the worker's JobInfo with the result under "worker".
type jobBody struct {
	server.JobInfo
	Worker *server.JobInfo `json:"worker"`
}

// pollRun is the JSON client: submit, then long-poll until terminal.
func pollRun(w io.Writer, o runOpts, baseURL, apiKey string) (int, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	body, _ := json.Marshal(o.req)
	var job jobBody
	err := fetchJob(&job, "submit", func() (*http.Response, error) {
		hreq, err := http.NewRequest("POST", baseURL+"/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		if apiKey != "" {
			hreq.Header.Set("Authorization", "Bearer "+apiKey)
		}
		return client.Do(hreq)
	})
	for err == nil && (job.Status == server.StatusQueued || job.Status == server.StatusRunning) {
		err = fetchJob(&job, "poll", func() (*http.Response, error) {
			return client.Get(baseURL + "/jobs/" + job.ID + "?wait_ms=2000")
		})
	}
	if err != nil {
		return 0, err
	}
	if job.Status != server.StatusDone {
		return 0, fmt.Errorf("job %s: %s", job.Status, job.Error)
	}
	info := job.JobInfo
	if job.Worker != nil {
		info = *job.Worker
	}
	if info.Result == nil {
		return 0, fmt.Errorf("job done without result")
	}
	rep, err := info.Result.CoreReport()
	if err != nil {
		return 0, err
	}
	return printReport(w, fmt.Sprintf("kernel %s: %d warp instructions, %d records, %.3fms detect (%.3fms total, cache_hit=%v)",
		info.Result.Kernel, info.Result.WarpInstrs, info.Result.RecordsSeen, info.Result.DetectMS, info.TotalMS, info.CacheHit),
		rep, o.verbose), nil
}

// fetchJob makes one API call, again after the Retry-After of a 429 or 503
// (or the fleet helper's bounded fallback), and decodes the job body.
func fetchJob(into *jobBody, what string, do func() (*http.Response, error)) error {
	for attempt := 0; ; attempt++ {
		resp, err := do()
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if fleet.RetryableStatus(resp.StatusCode) {
			d := fleet.RetryDelay(resp, attempt)
			resp.Body.Close()
			fmt.Fprintf(os.Stderr, "barracuda: server busy (%s), retrying in %v\n", resp.Status, d)
			time.Sleep(d)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			var e server.ErrorJSON
			if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
				return fmt.Errorf("%s: %s (%s)", what, e.Error, e.Code)
			}
			return fmt.Errorf("%s: server: %s", what, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		return nil
	}
}

// streamRun is the wire-protocol client: upload (or hash-skip), launch,
// print each race frame as it arrives and the report when the summary does.
func streamRun(w io.Writer, o runOpts, baseURL, apiKey string) (int, error) {
	c, err := wire.Dial(baseURL, apiKey, 10*time.Second)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	start := time.Now()
	_, warm, err := c.UploadModule([]byte(o.req.PTX))
	if err != nil {
		return 0, fmt.Errorf("upload: %w", err)
	}
	if o.verbose && warm {
		fmt.Fprintln(os.Stderr, "barracuda: module already cached server-side, upload skipped")
	}
	if err := c.Launch(o.req.LaunchSpec(1)); err != nil {
		return 0, fmt.Errorf("launch: %w", err)
	}
	for {
		ev, err := c.Next()
		if err != nil {
			return 0, err
		}
		switch ev.Type {
		case wire.FReject:
			if ev.Reject.RetryAfterMS > 0 {
				return 0, fmt.Errorf("rejected (%s): %s; retry after %dms",
					ev.Reject.Code, ev.Reject.Msg, ev.Reject.RetryAfterMS)
			}
			return 0, fmt.Errorf("rejected (%s): %s", ev.Reject.Code, ev.Reject.Msg)
		case wire.FRace:
			// A preview; the report lists every race again, with final counts.
			fmt.Fprintf(w, "%s\t[+%.3fms]\n", ev.Race.Race.String(),
				float64(time.Since(start).Microseconds())/1000)
		case wire.FSummary:
			c.Bye()
			sum := ev.Summary
			if sum.Status != server.StatusDone {
				return 0, fmt.Errorf("job %s: %s", sum.Status, sum.Error)
			}
			return printReport(w, fmt.Sprintf("kernel %s: %d warp instructions, %d records, %.3fms detect (cache_hit=%v)",
				sum.Kernel, sum.WarpInstrs, sum.RecordsSeen, float64(sum.DetectUS)/1000, sum.CacheHit),
				sum.Report(), o.verbose), nil
		}
	}
}
