package fleet

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"barracuda/internal/server"
)

func respWith(t *testing.T, header string) *http.Response {
	t.Helper()
	h := http.Header{}
	if header != "" {
		h.Set("Retry-After", header)
	}
	return &http.Response{StatusCode: http.StatusTooManyRequests, Header: h}
}

func TestRetryDelayHonorsHeader(t *testing.T) {
	for v, want := range map[string]time.Duration{"3": 3 * time.Second, "0": 0, "007": 7 * time.Second, "9223372036": 9223372036 * time.Second} {
		if d := RetryDelay(respWith(t, v), 0); d != want {
			t.Fatalf("Retry-After: %q → %v, want %v", v, d, want)
		}
	}
	// HTTP-date form.
	date := time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	if d := RetryDelay(respWith(t, date), 0); d <= 0 || d > 2*time.Second {
		t.Fatalf("Retry-After date → %v, want (0, 2s]", d)
	}
	// A date in the past means "retry now", not a negative sleep.
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := RetryDelay(respWith(t, past), 0); d != 0 {
		t.Fatalf("past Retry-After date → %v, want 0", d)
	}
}

func TestRetryDelayFallback(t *testing.T) {
	// No header (and no response at all): bounded exponential.
	want := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second, 5 * time.Second, 5 * time.Second}
	for attempt, w := range want {
		if d := RetryDelay(nil, attempt); d != w {
			t.Fatalf("attempt %d → %v, want %v", attempt, d, w)
		}
	}
	// Only delay-seconds (1*DIGIT) and an HTTP-date are hints: a duration
	// string, a fraction, a sign or a value past a Duration is not one,
	// however time.ParseDuration would read it.
	for _, v := range []string{"junk-value", "2h3m", "5m", "1.5", "+2", "-1", "1e3", " ", "1_000", "9223372037"} {
		if d := RetryDelay(respWith(t, v), 1); d != 500*time.Millisecond {
			t.Fatalf("Retry-After: %q must fall back to 500ms: got %v", v, d)
		}
	}
	// Shift-overflow guard on absurd attempt counts.
	if d := RetryDelay(nil, 63); d != retryCap {
		t.Fatalf("attempt 63 → %v, want cap %v", d, retryCap)
	}
}

// TestWorkerLinkHonorsRetryAfter drives a WorkerLink against a stub
// coordinator that backpressures the join with a Retry-After and
// asserts the link goes quiet for the advertised window instead of
// hammering on every tick.
func TestWorkerLinkHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var released atomic.Bool
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fleet/join" {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		calls.Add(1)
		if !released.Load() {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"starting up","code":"unavailable"}`))
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer stub.Close()

	sched := server.NewScheduler(server.SchedulerOptions{Workers: 1})
	defer sched.Stop()
	link := StartWorkerLink(stub.URL, "w1", "http://127.0.0.1:0", sched, 20*time.Millisecond, t.Logf)
	defer link.Close()

	// Within the 1s Retry-After window a 20ms ticker would have retried
	// ~20 times; an honoring link makes exactly the one initial attempt.
	time.Sleep(500 * time.Millisecond)
	if n := calls.Load(); n != 1 {
		t.Fatalf("join attempts during hold window = %d, want 1", n)
	}
	released.Store(true)
	// After the window ends the link must come back and succeed.
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("link never retried after the Retry-After window")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWorkerLinkBeatBackoff: a 429 on heartbeat holds the link without
// demoting it to re-join.
func TestWorkerLinkBeatBackoff(t *testing.T) {
	var joins, beats atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/fleet/join":
			joins.Add(1)
			w.Write([]byte(`{"status":"ok"}`))
		case "/fleet/heartbeat":
			beats.Add(1)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"busy","code":"queue_full"}`))
		default:
			w.Write([]byte(`{"status":"ok"}`))
		}
	}))
	defer stub.Close()

	sched := server.NewScheduler(server.SchedulerOptions{Workers: 1})
	defer sched.Stop()
	link := StartWorkerLink(stub.URL, "w2", "http://127.0.0.1:0", sched, 20*time.Millisecond, t.Logf)
	defer link.Close()

	time.Sleep(600 * time.Millisecond)
	if j := joins.Load(); j != 1 {
		t.Fatalf("backpressured heartbeat caused %d joins, want 1 (no demotion)", j)
	}
	if b := beats.Load(); b != 1 {
		t.Fatalf("heartbeats during hold window = %d, want 1", b)
	}
}
