package main

// Remote submission. -server points the CLI at a barracudad daemon (or
// a fleet coordinator, which speaks the same job API):
//
//	barracuda -server http://host:8321 -ptx kernel.ptx -kernel k
//	barracuda -server http://host:8321 -stream -ptx kernel.ptx
//	barracuda -server http://host:8321 -stream -bench hybridsort
//
// Plain -server submits over the JSON API and polls, honoring the
// server's Retry-After backpressure hints. Adding -stream upgrades to
// the binary streaming protocol (internal/wire): the module uploads
// once into the server's content-addressed cache (repeat runs skip the
// transfer) and races print the moment the detector finds them, ahead
// of the terminal summary.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"barracuda/internal/fleet"
	"barracuda/internal/server"
	"barracuda/internal/wire"
)

// remoteRun dispatches a job to a remote daemon in either protocol.
func remoteRun(o runOpts, baseURL, apiKey string, stream bool) error {
	if o.profile {
		return fmt.Errorf("-profile runs locally only")
	}
	if o.fatbinPath != "" {
		return fmt.Errorf("-fatbin runs locally only (servers accept PTX or -bench)")
	}
	req := server.JobRequest{
		Bench:     o.benchName,
		Kernel:    o.kernel,
		Grid:      o.grid,
		Block:     o.block,
		MaxInstrs: o.budget,
		WarpSize:  o.warpsize,
		Config:    o.config(),
	}
	if o.ptxPath != "" {
		src, err := os.ReadFile(o.ptxPath)
		if err != nil {
			return err
		}
		req.PTX = string(src)
	}
	if req.PTX == "" && req.Bench == "" {
		return fmt.Errorf("one of -ptx or -bench is required")
	}
	if o.bufs != "" {
		for _, part := range strings.Split(o.bufs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -bufs entry %q", part)
			}
			req.Buffers = append(req.Buffers, n)
		}
	}
	if stream {
		// A bench travels as the PTX it names; resolving needs a known name.
		if err := req.Validate(0); err != nil {
			return err
		}
		return streamRun(req.Resolved(), baseURL, apiKey, o.verbose)
	}
	return pollRun(req, baseURL, apiKey, o.verbose)
}

// pollRun is the JSON client: submit, then long-poll. Both calls honor
// Retry-After on 429/503 with the fleet helper's bounded fallback.
func pollRun(req server.JobRequest, baseURL, apiKey string, verbose bool) error {
	client := &http.Client{Timeout: 30 * time.Second}
	body, _ := json.Marshal(req)

	var info server.JobInfo
	for attempt := 0; ; attempt++ {
		hreq, err := http.NewRequest("POST", baseURL+"/jobs", bytes.NewReader(body))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		if apiKey != "" {
			hreq.Header.Set("Authorization", "Bearer "+apiKey)
		}
		resp, err := client.Do(hreq)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		if fleet.RetryableStatus(resp.StatusCode) {
			d := fleet.RetryDelay(resp, attempt)
			resp.Body.Close()
			fmt.Fprintf(os.Stderr, "barracuda: server busy (%s), retrying in %v\n", resp.Status, d)
			time.Sleep(d)
			continue
		}
		if err := decodeJobResponse(resp, &info); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		break
	}

	for attempt := 0; ; {
		resp, err := client.Get(baseURL + "/jobs/" + info.ID + "?wait_ms=2000")
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		if fleet.RetryableStatus(resp.StatusCode) {
			d := fleet.RetryDelay(resp, attempt)
			attempt++
			resp.Body.Close()
			time.Sleep(d)
			continue
		}
		attempt = 0
		if err := decodeJobResponse(resp, &info); err != nil {
			return fmt.Errorf("poll: %w", err)
		}
		switch info.Status {
		case server.StatusDone:
			return printRemoteResult(info, verbose)
		case server.StatusFailed, server.StatusTimeout:
			return fmt.Errorf("job %s: %s", info.Status, info.Error)
		}
	}
}

func decodeJobResponse(resp *http.Response, into *server.JobInfo) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e server.ErrorJSON
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("%s (%s)", e.Error, e.Code)
		}
		return fmt.Errorf("server: %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func printRemoteResult(info server.JobInfo, verbose bool) error {
	res := info.Result
	if res == nil {
		return fmt.Errorf("job done without result")
	}
	fmt.Printf("kernel %s: %d warp instructions, %d records, %.3fms detect (%.3fms total, cache_hit=%v)\n",
		res.Kernel, res.WarpInstrs, res.RecordsSeen, res.DetectMS, info.TotalMS, info.CacheHit)
	for _, d := range res.Divergences {
		fmt.Printf("BARRIER DIVERGENCE: block %d warp %d at line %d (mask %s)\n",
			d.Block, d.Warp, d.Line, d.Mask)
	}
	if len(res.Races) == 0 {
		fmt.Println("no races detected")
	}
	for _, r := range res.Races {
		fmt.Println(r.Summary)
		if verbose {
			fmt.Printf("  %d dynamic occurrence(s)\n", r.Count)
		}
	}
	if res.SameValueFiltered > 0 {
		fmt.Printf("%d same-value intra-warp write(s) filtered\n", res.SameValueFiltered)
	}
	if res.PrecisionDegraded {
		fmt.Println("PRECISION DEGRADED: the shadow byte cap discarded live state; races may have been missed")
	}
	if len(res.Races) > 0 || len(res.Divergences) > 0 {
		os.Exit(2)
	}
	return nil
}

// streamRun is the wire-protocol client: upload (or hash-skip), launch,
// and print each race frame as it arrives.
func streamRun(req server.JobRequest, baseURL, apiKey string, verbose bool) error {
	c, err := wire.Dial(baseURL, apiKey, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	start := time.Now()
	_, warm, err := c.UploadModule([]byte(req.PTX))
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if verbose && warm {
		fmt.Fprintln(os.Stderr, "barracuda: module already cached server-side, upload skipped")
	}
	if err := c.Launch(req.LaunchSpec(1)); err != nil {
		return fmt.Errorf("launch: %w", err)
	}
	seen := 0
	for {
		ev, err := c.Next()
		if err != nil {
			return err
		}
		switch ev.Type {
		case wire.FReject:
			if ev.Reject.RetryAfterMS > 0 {
				return fmt.Errorf("rejected (%s): %s; retry after %dms",
					ev.Reject.Code, ev.Reject.Msg, ev.Reject.RetryAfterMS)
			}
			return fmt.Errorf("rejected (%s): %s", ev.Reject.Code, ev.Reject.Msg)
		case wire.FRace:
			seen++
			fmt.Printf("%s\t[+%.3fms]\n", ev.Race.Race.String(),
				float64(time.Since(start).Microseconds())/1000)
		case wire.FSummary:
			c.Bye()
			return printStreamSummary(ev.Summary, seen, verbose)
		}
	}
}

func printStreamSummary(sum wire.Summary, streamed int, verbose bool) error {
	if sum.Status != server.StatusDone {
		return fmt.Errorf("job %s: %s", sum.Status, sum.Error)
	}
	fmt.Printf("kernel %s: %d warp instructions, %d records, %.3fms detect (cache_hit=%v)\n",
		sum.Kernel, sum.WarpInstrs, sum.RecordsSeen, float64(sum.DetectUS)/1000, sum.CacheHit)
	for _, d := range sum.Divergences {
		fmt.Printf("BARRIER DIVERGENCE: block %d warp %d at line %d (mask %#x)\n",
			d.Block, d.Warp, d.PC, d.Mask)
	}
	if len(sum.Races) == 0 {
		fmt.Println("no races detected")
	} else if verbose {
		fmt.Printf("%d race(s); %d streamed incrementally\n", len(sum.Races), streamed)
	}
	if sum.SameValueFiltered > 0 {
		fmt.Printf("%d same-value intra-warp write(s) filtered\n", sum.SameValueFiltered)
	}
	if sum.PrecisionDegraded {
		fmt.Println("PRECISION DEGRADED: the shadow byte cap discarded live state; races may have been missed")
	}
	if len(sum.Races) > 0 || len(sum.Divergences) > 0 {
		os.Exit(2)
	}
	return nil
}
