package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"barracuda/internal/wire"
)

const racySrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	st.global.u32 [%rd1], %r1;
	ret;
}`

// spinSrc never terminates under SIMT lockstep: the winning lane cannot
// release while the losers spin, so only a step budget or wall-clock
// timeout stops it — exactly what the timeout tests need.
const spinSrc = `.visible .entry k(.param .u64 lock, .param .u64 ctr)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [lock];
	ld.param.u64 %rd2, [ctr];
SPIN:
	atom.global.cas.b32 %r1, [%rd1], 0, 1;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra SPIN;
	ld.global.u32 %r2, [%rd2];
	add.u32 %r2, %r2, 1;
	st.global.u32 [%rd2], %r2;
	atom.global.exch.b32 %r3, [%rd1], 0;
	ret;
}`

func newTestServer(t *testing.T, opts SchedulerOptions) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (int, JobInfo, ErrorJSON) {
	t.Helper()
	var info JobInfo
	code, errj := post(t, ts.URL+"/jobs", req, &info)
	return code, info, errj
}

// post sends body — a request, or raw JSON bytes — to url and decodes the
// answer: into out on a 2xx, into the returned ErrorJSON otherwise.
func post(t *testing.T, url string, body, out any) (int, ErrorJSON) {
	t.Helper()
	raw, ok := body.([]byte)
	if !ok {
		raw, _ = json.Marshal(body)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var errj ErrorJSON
	if resp.StatusCode/100 == 2 {
		json.NewDecoder(resp.Body).Decode(out)
	} else {
		json.NewDecoder(resp.Body).Decode(&errj)
	}
	return resp.StatusCode, errj
}

// withField is req's body with one more top-level field of raw JSON
// value, as a client of an older daemon sent it: every door refuses it as
// a field the request does not have.
func withField(req any, field, value string) []byte {
	body, _ := json.Marshal(req)
	return append(body[:len(body)-1], fmt.Sprintf(`,%q:%s}`, field, value)...)
}

// withConfig is req's body with a detector configuration: the daemon runs
// one detector.
func withConfig(req any) []byte { return withField(req, "config", `{"full_vc":true}`) }

// refusesField checks a door's answer to a withField body: 400
// invalid_argument, naming the field.
func refusesField(t *testing.T, door, field string, code int, errj ErrorJSON) {
	t.Helper()
	if code != http.StatusBadRequest || errj.Code != wire.CodeInvalidArgument || !strings.Contains(errj.Error, `"`+field+`"`) {
		t.Errorf("%s with a %q: %d %+v, want 400 invalid_argument naming the field", door, field, code, errj)
	}
}

// refusesConfig is refusesField for a withConfig body.
func refusesConfig(t *testing.T, door string, code int, errj ErrorJSON) {
	t.Helper()
	refusesField(t, door, "config", code, errj)
}

func waitJob(t *testing.T, ts *httptest.Server, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%s?wait_ms=2000", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var info JobInfo
		json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		switch info.Status {
		case StatusDone, StatusFailed, StatusTimeout:
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, info.Status)
		}
	}
}

func getMetrics(t *testing.T, ts *httptest.Server) MetricsJSON {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsJSON
	json.NewDecoder(resp.Body).Decode(&m)
	return m
}

// TestRepeatSubmissionHitsCache is the acceptance flow: the same PTX job
// twice, identical reports, and the second served from the module cache.
func TestRepeatSubmissionHitsCache(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 2})

	req := JobRequest{PTX: racySrc, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4}}
	code, first, _ := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", code)
	}
	info1 := waitJob(t, ts, first.ID)
	if info1.Status != StatusDone {
		t.Fatalf("job 1: %s (%s)", info1.Status, info1.Error)
	}
	if info1.CacheHit {
		t.Error("job 1 reported a cache hit on a cold cache")
	}
	if info1.Result == nil || info1.Result.RaceCount == 0 {
		t.Fatalf("job 1 found no races: %+v", info1.Result)
	}

	code, second, _ := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: status %d", code)
	}
	info2 := waitJob(t, ts, second.ID)
	if info2.Status != StatusDone {
		t.Fatalf("job 2: %s (%s)", info2.Status, info2.Error)
	}
	if !info2.CacheHit {
		t.Error("job 2 missed the module cache")
	}
	if !reflect.DeepEqual(info1.Result.Races, info2.Result.Races) {
		t.Errorf("reports differ:\nfirst:  %+v\nsecond: %+v", info1.Result.Races, info2.Result.Races)
	}

	m := getMetrics(t, ts)
	if m.Cache.Hits < 1 || m.Cache.Misses < 1 {
		t.Errorf("cache counters = %+v, want >=1 hit and >=1 miss", m.Cache)
	}
	if m.Jobs.Completed != 2 {
		t.Errorf("completed = %d, want 2", m.Jobs.Completed)
	}
	if m.DetectLatency.Count != 2 {
		t.Errorf("latency observations = %d, want 2", m.DetectLatency.Count)
	}
}

func TestBenchJobDefaults(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	code, info, _ := postJob(t, ts, JobRequest{Bench: "hybridsort"})
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	done := waitJob(t, ts, info.ID)
	if done.Status != StatusDone {
		t.Fatalf("bench job: %s (%s)", done.Status, done.Error)
	}
	// hybridsort's engineered ground truth is 1 shared-memory race.
	if done.Result.RaceCount != 1 {
		t.Errorf("race_count = %d, want 1", done.Result.RaceCount)
	}
}

func TestInvalidPayloadsReturn400(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	cases := []JobRequest{
		{},                                       // neither ptx nor bench
		{PTX: racySrc, Bench: "bfs"},             // both
		{Bench: "no-such-benchmark"},             // unknown bench
		{PTX: racySrc, Grid: -1},                 // negative geometry
		{PTX: racySrc, TimeoutMS: -5},            // negative timeout
		{PTX: racySrc, TimeoutMS: 1 << 62},       // timeout wraps a time.Duration to 0s
		{PTX: racySrc, TimeoutMS: math.MaxInt64}, // timeout wraps a time.Duration to -1ms
		{PTX: racySrc, Buffers: []int{-8}},       // negative buffer
		{PTX: racySrc, WarpSize: 64},             // out-of-range warp
	}
	for i, req := range cases {
		code, _, errj := postJob(t, ts, req)
		if code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, code)
		}
		if errj.Error == "" {
			t.Errorf("case %d: empty error message", i)
		}
	}
	// The longest timeout a time.Duration holds is a valid one.
	code, info, errj := postJob(t, ts, JobRequest{PTX: racySrc, Buffers: []int{4}, TimeoutMS: maxTimeoutMS})
	if code != http.StatusAccepted {
		t.Fatalf("timeout_ms %d: status %d (%s), want 202", maxTimeoutMS, code, errj.Error)
	}
	if done := waitJob(t, ts, info.ID); done.Status != StatusDone {
		t.Errorf("timeout_ms %d: status %s (%s), want done", maxTimeoutMS, done.Status, done.Error)
	}
	// Detector configuration is a field no request has.
	code, errj = post(t, ts.URL+"/jobs", withConfig(JobRequest{PTX: racySrc}), nil)
	refusesConfig(t, "POST /jobs", code, errj)
	// Malformed JSON is also a 400, not a panic.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

// TestQueueFullReturns429 saturates a 1-worker, 1-slot server with spin
// jobs; some submission in the burst must be rejected with backpressure
// and the daemon must keep serving afterwards.
func TestQueueFullReturns429(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1, QueueCap: 1})
	spin := JobRequest{
		PTX: spinSrc, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4, 4},
		TimeoutMS: 400, MaxInstrs: 1 << 20,
	}
	got429 := false
	for i := 0; i < 4; i++ {
		code, _, _ := postJob(t, ts, spin)
		if code == http.StatusTooManyRequests {
			got429 = true
		} else if code != http.StatusAccepted {
			t.Fatalf("submit %d: unexpected status %d", i, code)
		}
	}
	if !got429 {
		t.Error("no submission was rejected with 429")
	}
	m := getMetrics(t, ts)
	if m.Jobs.Rejected < 1 {
		t.Errorf("rejected = %d, want >= 1", m.Jobs.Rejected)
	}
	// The daemon survives the burst.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after burst: %d", resp.StatusCode)
	}
}

func TestWallClockTimeout(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	code, info, _ := postJob(t, ts, JobRequest{
		PTX: spinSrc, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4, 4},
		TimeoutMS: 1, MaxInstrs: 1 << 22,
	})
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	done := waitJob(t, ts, info.ID)
	if done.Status != StatusTimeout {
		t.Fatalf("status = %s (%s), want timeout", done.Status, done.Error)
	}
	if done.Error == "" {
		t.Error("timeout without a structured error message")
	}
	m := getMetrics(t, ts)
	if m.Jobs.TimedOut < 1 {
		t.Errorf("timed_out = %d, want >= 1", m.Jobs.TimedOut)
	}
}

func TestStepBudgetReportsTimeout(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	code, info, _ := postJob(t, ts, JobRequest{
		PTX: spinSrc, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4, 4},
		TimeoutMS: 30000, MaxInstrs: 10000,
	})
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	done := waitJob(t, ts, info.ID)
	if done.Status != StatusTimeout {
		t.Fatalf("status = %s (%s), want timeout", done.Status, done.Error)
	}
}

func TestBadPTXFailsJobNotDaemon(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	code, info, _ := postJob(t, ts, JobRequest{PTX: "this is not ptx"})
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	done := waitJob(t, ts, info.ID)
	if done.Status != StatusFailed || done.Error == "" {
		t.Fatalf("status = %s (%q), want failed with an error", done.Status, done.Error)
	}
}

// TestConcurrentJobsSmallPool drives many concurrent submissions of a
// handful of distinct modules through a small worker pool — the -race
// stress for the scheduler, cache serialization and metrics.
func TestConcurrentJobsSmallPool(t *testing.T) {
	srv, ts := newTestServer(t, SchedulerOptions{Workers: 3, QueueCap: 256, CacheEntries: 2})

	// Three distinct modules (differing comment changes the hash) so
	// jobs contend for a 2-entry cache while sharing sessions.
	srcs := make([]string, 3)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("// variant %d\n%s", i, racySrc)
	}
	const perSrc = 8
	var wg sync.WaitGroup
	ids := make(chan string, len(srcs)*perSrc)
	for _, src := range srcs {
		for j := 0; j < perSrc; j++ {
			wg.Add(1)
			go func(src string) {
				defer wg.Done()
				code, info, errj := postJob(t, ts, JobRequest{
					PTX: src, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4},
				})
				if code != http.StatusAccepted {
					t.Errorf("submit: status %d (%s)", code, errj.Error)
					return
				}
				ids <- info.ID
			}(src)
		}
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		done := waitJob(t, ts, id)
		if done.Status != StatusDone {
			t.Errorf("job %s: %s (%s)", id, done.Status, done.Error)
			continue
		}
		if done.Result.RaceCount == 0 {
			t.Errorf("job %s: no races found", id)
		}
	}
	if d := srv.Scheduler().QueueDepth(); d != 0 {
		t.Errorf("queue depth after drain = %d", d)
	}
}

func TestJobListAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	code, info, _ := postJob(t, ts, JobRequest{PTX: racySrc, Kernel: "k", Buffers: []int{4}})
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	waitJob(t, ts, info.ID)

	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobInfo
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != info.ID {
		t.Errorf("list = %+v, want the one submitted job", list)
	}

	resp, err = http.Get(ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", resp.StatusCode)
	}
}

// TestWaitDoneStopsItsTimer: a long-poll that returns before its wait_ms
// leaves nothing live behind. 20 000 polls of a finished job with a 30 s
// wait used to hold 20 000 timers until each fired.
func TestWaitDoneStopsItsTimer(t *testing.T) {
	done := make(chan struct{})
	close(done)
	r := httptest.NewRequest(http.MethodGet, "/jobs/job-1?wait_ms=30000", nil)
	sample := []metrics.Sample{{Name: "/gc/heap/objects:objects"}}
	objects := func() uint64 {
		runtime.GC()
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	before := objects()
	for range 20000 {
		WaitDone(r, done)
	}
	if after := objects(); after > before+2000 {
		t.Errorf("live heap objects %d before 20000 finished polls, %d after", before, after)
	}
}

// TestWaitDoneClampsWaitMS: a wait_ms too long for a time.Duration waits
// (here, until the client goes away) instead of wrapping negative and
// answering a live job at once.
func TestWaitDoneClampsWaitMS(t *testing.T) {
	const client = 50 * time.Millisecond
	for _, tc := range []struct {
		waitMS string
		waits  bool // until the client leaves
	}{
		{"", false},
		{"-5", false},
		{"1", false},
		{"60000", true},
		{"9300000000000", true},        // ×1 ms wraps to -2 540 762 h
		{"9223372036854775807", true},  // the largest int64
		{"99999999999999999999", true}, // past int64
	} {
		ctx, cancel := context.WithTimeout(context.Background(), client)
		r := httptest.NewRequest(http.MethodGet, "/jobs/job-1?wait_ms="+tc.waitMS, nil).WithContext(ctx)
		start := time.Now()
		WaitDone(r, make(chan struct{}))
		took := time.Since(start)
		cancel()
		if waited := took >= client; waited != tc.waits {
			t.Errorf("wait_ms=%s on a live job returned after %v, want waiting %v", tc.waitMS, took, tc.waits)
		}
	}
}
