package server

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"barracuda/internal/wire"
)

// dialStream upgrades a fresh connection against the test server.
func dialStream(t *testing.T, ts_URL, apiKey string) *wire.Client {
	t.Helper()
	host := strings.TrimPrefix(ts_URL, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wire.Handshake(conn, host, apiKey)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// collect drains events until every launched seq has a summary.
func collect(t *testing.T, c *wire.Client, want int) (map[uint64]wire.Summary, map[uint64][]wire.RaceEvent, []wire.Reject) {
	t.Helper()
	sums := map[uint64]wire.Summary{}
	races := map[uint64][]wire.RaceEvent{}
	var rejects []wire.Reject
	for len(sums)+len(rejects) < want {
		ev, err := c.Next()
		if err != nil {
			t.Fatalf("after %d summaries: %v", len(sums), err)
		}
		switch ev.Type {
		case wire.FAccept:
		case wire.FRace:
			races[ev.Race.Seq] = append(races[ev.Race.Seq], ev.Race)
		case wire.FSummary:
			sums[ev.Summary.Seq] = ev.Summary
		case wire.FReject:
			rejects = append(rejects, ev.Reject)
		}
	}
	return sums, races, rejects
}

func TestStreamDetectFlow(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 2})
	c := dialStream(t, ts.URL, "tenant-a")

	if w := c.Welcome(); w.MaxFrame != wire.MaxFrame || w.MaxModule != wire.MaxModule {
		t.Fatalf("welcome limits = %+v", w)
	}
	_, warm, err := c.UploadModule([]byte(racySrc))
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("first upload reported warm")
	}
	if err := c.Launch(wire.LaunchSpec{Seq: 1, Kernel: "k", Grid: 1, Block: 64, Buffers: []int{256}}); err != nil {
		t.Fatal(err)
	}
	sums, races, rejects := collect(t, c, 1)
	if len(rejects) != 0 {
		t.Fatalf("rejects: %+v", rejects)
	}
	sum := sums[1]
	if sum.Status != StatusDone {
		t.Fatalf("status = %q (%s)", sum.Status, sum.Error)
	}
	if len(sum.Races) == 0 {
		t.Fatal("racy kernel streamed no races in summary")
	}
	// The incremental frames must have previewed every static race.
	if len(races[1]) != len(sum.Races) {
		t.Fatalf("streamed %d incremental races, summary has %d", len(races[1]), len(sum.Races))
	}
	if sum.RecordsSeen == 0 || sum.WarpInstrs == 0 {
		t.Fatalf("stats not populated: %+v", sum)
	}
}

func TestStreamWarmUploadSkipsBytes(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	c1 := dialStream(t, ts.URL, "")
	if _, warm, err := c1.UploadModule([]byte(racySrc)); err != nil || warm {
		t.Fatalf("first upload: warm=%v err=%v", warm, err)
	}
	// A second connection declaring the same hash skips the transfer.
	c2 := dialStream(t, ts.URL, "")
	if _, warm, err := c2.UploadModule([]byte(racySrc)); err != nil || !warm {
		t.Fatalf("second upload: warm=%v err=%v, want warm=true", warm, err)
	}
	// The warm module is actually usable.
	if err := c2.Launch(wire.LaunchSpec{Seq: 7, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{64}}); err != nil {
		t.Fatal(err)
	}
	sums, _, _ := collect(t, c2, 1)
	if sums[7].Status != StatusDone {
		t.Fatalf("warm-module launch: %+v", sums[7])
	}
}

func TestStreamPipelinedLaunches(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 2})
	c := dialStream(t, ts.URL, "tenant-p")
	if _, _, err := c.UploadModule([]byte(racySrc)); err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 1; i <= n; i++ {
		if err := c.Launch(wire.LaunchSpec{Seq: uint64(i), Kernel: "k", Grid: 1, Block: 32, Buffers: []int{64}}); err != nil {
			t.Fatal(err)
		}
	}
	sums, _, rejects := collect(t, c, n)
	if len(rejects) != 0 {
		t.Fatalf("rejects: %+v", rejects)
	}
	for i := 1; i <= n; i++ {
		if s, ok := sums[uint64(i)]; !ok || s.Status != StatusDone {
			t.Fatalf("seq %d: %+v", i, s)
		}
	}
}

func TestStreamLaunchValidationReject(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	c := dialStream(t, ts.URL, "")
	if _, _, err := c.UploadModule([]byte(racySrc)); err != nil {
		t.Fatal(err)
	}
	// Negative grid fails JobRequest validation; connection survives.
	if err := c.Launch(wire.LaunchSpec{Seq: 1, Kernel: "k", Grid: -1, Block: 32}); err != nil {
		t.Fatal(err)
	}
	_, _, rejects := collect(t, c, 1)
	if len(rejects) != 1 || rejects[0].Code != wire.CodeInvalidArgument {
		t.Fatalf("rejects = %+v, want one invalid_argument", rejects)
	}
	// The connection still works after a reject.
	if err := c.Launch(wire.LaunchSpec{Seq: 2, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{64}}); err != nil {
		t.Fatal(err)
	}
	sums, _, _ := collect(t, c, 1)
	if sums[2].Status != StatusDone {
		t.Fatalf("post-reject launch: %+v", sums[2])
	}
}

func TestStreamTenantRateLimit(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{
		Workers: 1,
		// One-token bucket with negligible refill: the handshake spends
		// the only token, the first launch must be rejected with a
		// Retry-After hint.
		Tenants: TenantOptions{RatePerSec: 0.001, Burst: 1},
	})
	c := dialStream(t, ts.URL, "throttled")
	if _, _, err := c.UploadModule([]byte(racySrc)); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(wire.LaunchSpec{Seq: 1, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{64}}); err != nil {
		t.Fatal(err)
	}
	_, _, rejects := collect(t, c, 1)
	if len(rejects) != 1 {
		t.Fatalf("rejects = %+v", rejects)
	}
	rej := rejects[0]
	if rej.Code != wire.CodeQueueFull {
		t.Fatalf("reject code = %q, want %q", rej.Code, wire.CodeQueueFull)
	}
	if rej.RetryAfterMS == 0 {
		t.Fatal("reject carries no Retry-After hint")
	}
}

func TestStreamRateLimitedHandshake(t *testing.T) {
	srv, ts := newTestServer(t, SchedulerOptions{
		Workers: 1,
		Tenants: TenantOptions{RatePerSec: 0.001, Burst: 1},
	})
	// Exhaust the tenant's only token.
	if ok, _ := srv.Scheduler().Tenants().Admit("dos"); !ok {
		t.Fatal("first admit should pass")
	}
	host := strings.TrimPrefix(ts.URL, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = wire.Handshake(conn, host, "dos")
	rej, ok := err.(*wire.RejectError)
	if !ok {
		t.Fatalf("err = %v, want *wire.RejectError", err)
	}
	if rej.Reject.Code != wire.CodeQueueFull || rej.Reject.RetryAfterMS == 0 {
		t.Fatalf("handshake reject = %+v", rej.Reject)
	}
}

// TestStreamTenantAccounting: a session's traffic and races reach its
// tenant's counters when a launch's SUMMARY is written, not when the
// session ends — a coordinator's standing sessions never end — and the
// close path then reports only what came after, nothing twice.
func TestStreamTenantAccounting(t *testing.T) {
	srv, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	c := dialStream(t, ts.URL, "metered")
	if _, _, err := c.UploadModule([]byte(racySrc)); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(wire.LaunchSpec{Seq: 1, Kernel: "k", Grid: 1, Block: 64, Buffers: []int{256}}); err != nil {
		t.Fatal(err)
	}
	collect(t, c, 1)
	// settled polls the tenant's counters until ok: the server accounts
	// just after the frame the client has already read.
	settled := func(what string, ok func(TenantJSON) bool) TenantJSON {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			var got TenantJSON
			for _, tj := range srv.Scheduler().Tenants().Snapshot() {
				if tj.Key == "metered" {
					got = tj
				}
			}
			if ok(got) {
				return got
			}
			if time.Now().After(deadline) {
				t.Fatalf("tenant counters never settled %s: %+v", what, got)
			}
		}
	}
	open := settled("with the session open", func(tj TenantJSON) bool {
		return tj.Jobs == 1 && tj.BytesIn > 0 && tj.BytesOut > 0 && tj.Races > 0
	})
	c.Bye()
	c.Close()
	closed := settled("after BYE", func(tj TenantJSON) bool { return tj.BytesIn > open.BytesIn })
	if closed.Jobs != 1 || closed.Races != open.Races || closed.BytesOut != open.BytesOut {
		t.Errorf("closing the session moved its counters from %+v to %+v: only the BYE frame was left to report", open, closed)
	}
}

func TestStreamModuleHashMismatch(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	host := strings.TrimPrefix(ts.URL, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := wire.Handshake(conn, host, "")
	if err != nil {
		t.Fatal(err)
	}
	// Hand-roll an upload whose declared hash does not match the bytes.
	w := wire.NewWriter(conn)
	badHash := make([]byte, 32)
	w.WriteFrame(wire.FModBegin, wire.EncodeModBegin(wire.ModBegin{TotalLen: 3, Hash: badHash}))
	if _, err := c.Next(); err == nil {
		// ModState(need) arrives as an unexpected-frame error from Next;
		// accept either shape, the point is what follows.
		t.Log("mod state delivered")
	}
	w.WriteFrame(wire.FModChunk, []byte("abc"))
	w.WriteFrame(wire.FModEnd, nil)
	_, err = c.Next()
	if _, ok := err.(*wire.FatalError); !ok {
		t.Fatalf("err = %v, want *wire.FatalError for hash mismatch", err)
	}
}

// cleanSrc is racySrc with the store moved to the thread's own word.
const cleanSrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	mul.wide.u32 %rd2, %r1, 4;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r1;
	ret;
}`

// A LAUNCH between MOD_BEGIN's "need" and MOD_END used to run against the
// previous upload and return its report. It is rejected, the session and the
// upload carry on, and the launch after MOD_END runs the new module.
func TestLaunchDuringUploadIsRejected(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	spec := wire.LaunchSpec{Kernel: "k", Grid: 1, Block: 32, Buffers: []int{128}}
	digestOf := func(c *wire.Client, seq uint64) string {
		t.Helper()
		spec.Seq = seq
		if err := c.Launch(spec); err != nil {
			t.Fatal(err)
		}
		sums, _, rejects := collect(t, c, 1)
		if len(rejects) != 0 || sums[seq].Status != StatusDone {
			t.Fatalf("seq %d: rejects %+v, summary %+v", seq, rejects, sums[seq])
		}
		return sums[seq].Report().CanonicalDigest()
	}

	// What each module reports on a session of its own.
	ref := dialStream(t, ts.URL, "")
	if _, _, err := ref.UploadModule([]byte(cleanSrc)); err != nil {
		t.Fatal(err)
	}
	wantClean := digestOf(ref, 1)

	host := strings.TrimPrefix(ts.URL, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := wire.Handshake(conn, host, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.UploadModule([]byte(racySrc)); err != nil {
		t.Fatal(err)
	}
	if wantRacy := digestOf(c, 1); wantRacy == wantClean {
		t.Fatal("the two modules report alike; the test cannot tell them apart")
	}

	// Open an upload by hand (no hash, so the warm module above is not
	// recognised) and launch before ending it. Next has no event for a
	// MOD_STATE frame and reports it as malformed; it is consumed either way.
	src := cleanSrc + "\n// uploaded by hand"
	w := wire.NewWriter(conn)
	modState := func() {
		t.Helper()
		if _, err := c.Next(); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("Next = %v, want the MOD_STATE frame", err)
		}
	}
	w.WriteFrame(wire.FModBegin, wire.EncodeModBegin(wire.ModBegin{TotalLen: uint64(len(src))}))
	modState()
	spec.Seq = 2
	if err := c.Launch(spec); err != nil {
		t.Fatal(err)
	}
	sums, _, rejects := collect(t, c, 1)
	if len(rejects) != 1 || rejects[0].Seq != 2 || rejects[0].Code != wire.CodeInvalidArgument ||
		!strings.Contains(rejects[0].Msg, "LAUNCH during a module upload") {
		t.Fatalf("launch during an upload: rejects %+v, summaries %+v; want one invalid_argument", rejects, sums)
	}
	w.WriteFrame(wire.FModChunk, []byte(src))
	w.WriteFrame(wire.FModEnd, nil)
	modState()
	if got := digestOf(c, 3); got != wantClean {
		t.Fatalf("launch after MOD_END reports\n%s\nwant the new module's\n%s", got, wantClean)
	}
}

// A peer that keeps its session open between jobs leaves the stream's
// handler blocked in ReadFrame, on a connection net/http no longer
// tracks: Server.Close has to end it, and says so on the gauge.
func TestServerCloseEndsIdleStreams(t *testing.T) {
	srv, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	c := dialStream(t, ts.URL, "standing")
	if _, _, err := c.UploadModule([]byte(racySrc)); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch(wire.LaunchSpec{Seq: 1, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4}}); err != nil {
		t.Fatal(err)
	}
	collect(t, c, 1) // the session has carried a job and is idle again
	if n := getMetrics(t, ts).StreamsOpen; n != 1 {
		t.Fatalf("streams_open = %d with one idle session, want 1", n)
	}

	ended := make(chan error, 1)
	go func() {
		_, err := c.Next()
		ended <- err
	}()
	start := time.Now()
	srv.Close() // returns once the stream's handler has
	select {
	case err := <-ended:
		if err == nil {
			t.Fatal("Next returned an event on a closed stream")
		}
	case <-time.After(time.Second):
		t.Fatal("idle client still blocked in Next a second after Server.Close")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Server.Close took %v with one idle stream", d)
	}
	if n := srv.streamsOpen(); n != 0 {
		t.Errorf("streams_open = %d after Close, want 0", n)
	}

	// A stream that arrives after Close is turned away, not left open.
	host := strings.TrimPrefix(ts.URL, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if late, err := wire.Handshake(conn, host, "late"); err == nil {
		late.Close()
		t.Error("handshake succeeded against a closed server")
	}
}
