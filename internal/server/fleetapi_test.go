package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/wire"
)

// The satellite contract for the fleet PR: every non-2xx response
// carries a stable machine-readable code, validation errors name the
// offending JSON field, and the observability surface (/healthz,
// /metrics, /v1/metrics, HeartbeatStats) exposes queue depth and cache
// hit/miss counters.

func TestErrorCodesRetryableVsPermanent(t *testing.T) {
	if !RetryableCode(wire.CodeQueueFull) || !RetryableCode(wire.CodeUnavailable) {
		t.Fatal("queue_full and unavailable must be retryable")
	}
	if RetryableCode(wire.CodeInvalidArgument) || RetryableCode(CodeNotFound) {
		t.Fatal("invalid_argument and not_found must be permanent")
	}
	if RetryableCode("") || RetryableCode("something_else") {
		t.Fatal("unknown codes must default to permanent")
	}
}

func TestValidationErrorsCarryCodeAndFieldName(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1, QueueCap: 4})

	for _, tc := range []struct {
		name  string
		req   JobRequest
		field string
	}{
		{"neither source", JobRequest{}, `"ptx"/"bench"`},
		{"both sources", JobRequest{PTX: racySrc, Bench: "bfs"}, `"ptx"/"bench"`},
		{"unknown bench", JobRequest{Bench: "nope"}, `"bench"`},
		{"negative grid", JobRequest{PTX: racySrc, Grid: -1}, `"grid"`},
		{"negative block", JobRequest{PTX: racySrc, Block: -2}, `"block"`},
		{"negative timeout", JobRequest{PTX: racySrc, TimeoutMS: -1}, `"timeout_ms"`},
		{"bad warp size", JobRequest{PTX: racySrc, WarpSize: 64}, `"warp_size"`},
		{"bad class", JobRequest{PTX: racySrc, Class: "urgent"}, `"class"`},
		{"negative buffer", JobRequest{PTX: racySrc, Buffers: []int{8, -4}}, `"buffers[1]"`},
		{"bad config", JobRequest{PTX: racySrc, Config: detector.Config{Queues: -1}}, `"config"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errj := postJob(t, ts, tc.req)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
			if errj.Code != wire.CodeInvalidArgument {
				t.Fatalf("code %q, want %q", errj.Code, wire.CodeInvalidArgument)
			}
			if !strings.Contains(errj.Error, tc.field) {
				t.Fatalf("error %q does not name field %s", errj.Error, tc.field)
			}
		})
	}
}

func TestQueueFullCarriesRetryableCode(t *testing.T) {
	// Single worker, tiny queue, spin jobs that outlive the test window.
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1, QueueCap: 1})
	req := JobRequest{PTX: spinSrc, Kernel: "k", Grid: 1, Block: 32,
		Buffers: []int{4, 4}, TimeoutMS: 3000}
	var sawFull bool
	for i := 0; i < 8; i++ {
		code, _, errj := postJob(t, ts, req)
		if code == http.StatusTooManyRequests {
			if errj.Code != wire.CodeQueueFull {
				t.Fatalf("429 with code %q, want %q", errj.Code, wire.CodeQueueFull)
			}
			if !RetryableCode(errj.Code) {
				t.Fatal("queue_full must classify as retryable")
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("never saw 429 with a 1-deep queue and spinning worker")
	}
}

func TestNotFoundCarriesCode(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	resp, err := http.Get(ts.URL + "/jobs/ghost")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var errj ErrorJSON
	json.NewDecoder(resp.Body).Decode(&errj)
	if resp.StatusCode != http.StatusNotFound || errj.Code != CodeNotFound {
		t.Fatalf("status %d code %q, want 404 %q", resp.StatusCode, errj.Code, CodeNotFound)
	}
}

func TestHealthzReportsQueueDepth(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz map[string]any
	json.NewDecoder(resp.Body).Decode(&hz)
	if hz["status"] != "ok" {
		t.Fatalf("healthz status = %v", hz["status"])
	}
	if _, ok := hz["queue_depth"]; !ok {
		t.Fatal("healthz missing queue_depth gauge")
	}
}

// /v1/metrics is the versioned alias the fleet tooling scrapes; it must
// serve the same body shape as /metrics, including queue and cache
// figures.
func TestV1MetricsAlias(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1, CacheEntries: 4})
	_, info, _ := postJob(t, ts, JobRequest{PTX: racySrc, Kernel: "k", Buffers: []int{4}})
	waitJob(t, ts, info.ID)
	_, info, _ = postJob(t, ts, JobRequest{PTX: racySrc, Kernel: "k", Buffers: []int{4}})
	waitJob(t, ts, info.ID)

	for _, path := range []string{"/metrics", "/v1/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var m MetricsJSON
		json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if m.Jobs.Completed != 2 {
			t.Fatalf("%s: completed = %d, want 2", path, m.Jobs.Completed)
		}
		if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
			t.Fatalf("%s: cache %d/%d, want 1 hit / 1 miss", path, m.Cache.Hits, m.Cache.Misses)
		}
		if m.QueueCapacity == 0 {
			t.Fatalf("%s: missing queue capacity", path)
		}
	}
}

// HeartbeatStats is the snapshot workers embed in fleet heartbeats; it
// must agree with the metrics counters.
func TestHeartbeatStatsSnapshot(t *testing.T) {
	srv, ts := newTestServer(t, SchedulerOptions{Workers: 2, QueueCap: 8, CacheEntries: 4})
	_, info, _ := postJob(t, ts, JobRequest{PTX: racySrc, Kernel: "k", Buffers: []int{4}})
	waitJob(t, ts, info.ID)
	_, info, _ = postJob(t, ts, JobRequest{PTX: racySrc, Kernel: "k", Buffers: []int{4}})
	waitJob(t, ts, info.ID)

	hs := srv.Scheduler().HeartbeatStats()
	if hs.Workers != 2 || hs.QueueCap != 8 {
		t.Fatalf("static fields: %+v", hs)
	}
	if hs.Completed != 2 || hs.Failed != 0 {
		t.Fatalf("completed %d / failed %d, want 2 / 0", hs.Completed, hs.Failed)
	}
	if hs.CacheHits != 1 || hs.CacheMisses != 1 {
		t.Fatalf("cache %d/%d, want 1 hit / 1 miss", hs.CacheHits, hs.CacheMisses)
	}
	if hs.QueueDepth != 0 || hs.InFlight != 0 {
		t.Fatalf("idle server reports queue %d / in-flight %d", hs.QueueDepth, hs.InFlight)
	}
}
