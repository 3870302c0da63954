package server

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"barracuda/internal/bench"
	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
	"barracuda/internal/wire"
)

// racyDigest is the canonical digest of racySrc's default job, computed
// on the library directly: what a healthy worker must still report after
// a hostile job.
func racyDigest(t *testing.T) string {
	t.Helper()
	s, err := detector.OpenPTX(racySrc, detector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out := s.Dev.MustAlloc(4)
	res, err := s.Detect("k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(32), Args: []uint64{out}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Report.CanonicalDigest()
}

func jobDigest(t *testing.T, info JobInfo) string {
	t.Helper()
	if info.Status != StatusDone || info.Result == nil {
		t.Fatalf("job %s: status %q, error %q", info.ID, info.Status, info.Error)
	}
	rep, err := info.Result.CoreReport()
	if err != nil {
		t.Fatal(err)
	}
	return rep.CanonicalDigest()
}

// TestMalformedPTXFailsJobNotWorker: the three under-arity kernels that
// used to panic a scheduler worker (and with it the daemon), a register
// declaration that used to cost the worker minutes and gigabytes, a
// negative `.shared` array that used to panic the launch and a 1 TiB one
// that used to run the process out of memory, and a load from an address
// whose bounds check used to wrap past 2^64 and panic, now fail their own
// job with the parser's, the loader's or the launch's error, and the
// single worker goes on to produce the right report for the next job.
func TestMalformedPTXFailsJobNotWorker(t *testing.T) {
	sched := NewScheduler(SchedulerOptions{Workers: 1})
	defer sched.Stop()
	want := racyDigest(t)
	const tidMov = "mov.u32 %r1, %tid.x;"
	for _, tc := range []struct{ line, hostile, err string }{
		{tidMov, "mov.u32 %r1;", "open: gpusim: k line 6: mov:"},
		{tidMov, "add.u32 %r1, %r2;", "open: gpusim: k line 6: add:"},
		{tidMov, "atom.global.add.u32 %r2, [%rd1];", "open: gpusim: k line 6: atom:"},
		{".reg .u32 %r<4>;", ".reg .u32 %r<2000000000>;", "open: gpusim: k: 2000000000 registers declared, limit 65536"},
		{".reg .u32 %r<4>;", ".reg .u32 %r<4>;\n\t.shared .align 4 .b8 sm[-16];", "open: ptx: line 4:26: array size -16 out of range"},
		{".reg .u32 %r<4>;", ".reg .u32 %r<4>;\n\t.shared .align 4 .b8 sm[1099511627776];", "open: gpusim: k: .shared variables take more than 262144 bytes a block"},
		{"ld.param.u64 %rd1, [out];", "mov.u64 %rd1, 0xFFFFFFFFFFFFFFFE;\n\tld.global.u32 %r2, [%rd1];", "gpusim: kernel k: pc 2 (line 6): lane 0: gpusim: global access [0xfffffffffffffffe,+4) out of bounds"},
	} {
		src := strings.Replace(racySrc, tc.line, tc.hostile, 1)
		bad, err := sched.Submit(JobRequest{PTX: src, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4}})
		if err != nil {
			t.Fatal(err)
		}
		<-bad.Done()
		info := bad.Info()
		if info.Status != StatusFailed || !strings.HasPrefix(info.Error, tc.err) {
			t.Fatalf("%s: status %q, error %q; want failed with %q", tc.hostile, info.Status, info.Error, tc.err)
		}
		next, err := sched.Submit(JobRequest{PTX: racySrc, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4}})
		if err != nil {
			t.Fatal(err)
		}
		<-next.Done()
		if got := jobDigest(t, next.Info()); got != want {
			t.Fatalf("job after %s:\n got %s\nwant %s", tc.hostile, got, want)
		}
	}
}

// TestAbortedLaunchThenCachedRerun: a launch aborted mid-run ends its own
// job as a timeout — by the step budget at half of a full run's warp
// instructions, or by a wall-clock deadline far shorter than the run. The
// detector behind it is closed, drained and its shadow released on that
// error path, and the next launch of the same module on the same worker
// takes the cached session, re-zeroes its buffers and reports, byte for
// byte, what a fresh run reports. The same aborts above one queue are
// bench's TestAbortedSessionThenRerun.
func TestAbortedLaunchThenCachedRerun(t *testing.T) {
	sched := NewScheduler(SchedulerOptions{Workers: 1})
	defer sched.Stop()
	for _, tc := range []struct {
		name      string
		timeoutMS int64  // 0: the step budget aborts the launch instead
		err       string // the aborted job's error starts so
	}{
		{"hybridsort", 0, "step budget"},
		{"hotspot", 0, "step budget"},
		{"threadfencereduction", 0, "step budget"},
		{"threadfencereduction", 5, "wall-clock timeout after 5ms"},
	} {
		fresh, err := bench.Detect(bench.ByName(tc.name), detector.Config{})
		if err != nil {
			t.Fatalf("%s: fresh run: %v", tc.name, err)
		}
		abort := JobRequest{Bench: tc.name, TimeoutMS: tc.timeoutMS}
		if tc.timeoutMS == 0 {
			abort.MaxInstrs = fresh.SimStats.WarpInstrs / 2
		}
		aborted, err := sched.Submit(abort)
		if err != nil {
			t.Fatal(err)
		}
		<-aborted.Done()
		if info := aborted.Info(); info.Status != StatusTimeout || !strings.HasPrefix(info.Error, tc.err) {
			t.Fatalf("%s aborted: status %q (%s), want timeout with %q", tc.name, info.Status, info.Error, tc.err)
		}
		rerun, err := sched.Submit(JobRequest{Bench: tc.name})
		if err != nil {
			t.Fatal(err)
		}
		<-rerun.Done()
		info := rerun.Info()
		if !info.CacheHit {
			t.Errorf("%s: rerun missed the module cache", tc.name)
		}
		if got, want := jobDigest(t, info), fresh.Report.CanonicalDigest(); got != want {
			t.Fatalf("%s: rerun after a %q abort:\n got %s\nwant %s", tc.name, tc.err, got, want)
		}
	}
}

// TestTimedOutLaunchFreesItsWorker: a spin job whose step budget would
// outlast the test stops at its wall-clock timeout, so the next job on the
// same module and the one worker runs, and times out, on time; nothing is
// left in flight and the server closes. The launch used to go on running
// on an abandoned goroutine that held the module's lease, so the next job
// waited in ModCache.Acquire and Server.Close never returned.
func TestTimedOutLaunchFreesItsWorker(t *testing.T) {
	srv := New(SchedulerOptions{Workers: 1})
	spin := JobRequest{PTX: spinSrc, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4, 4}, TimeoutMS: 50, MaxInstrs: 1 << 40}
	job, err := srv.Scheduler().Submit(spin)
	if err != nil {
		t.Fatal(err)
	}
	if info := waitTerminal(t, job, 2*time.Second); info.Status != StatusTimeout || info.Error != "wall-clock timeout after 50ms" {
		t.Fatalf("spin job: status %q (%s), want the 50ms wall-clock timeout", info.Status, info.Error)
	}
	spin.MaxInstrs = 0
	next, err := srv.Scheduler().Submit(spin)
	if err != nil {
		t.Fatal(err)
	}
	if info := waitTerminal(t, next, 2*time.Second); info.Status != StatusTimeout {
		t.Fatalf("next job on the module: status %q (%s), want timeout", info.Status, info.Error)
	}
	for deadline := time.Now().Add(2 * time.Second); srv.Scheduler().InFlight() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("in flight = %d after both jobs ended, want 0", srv.Scheduler().InFlight())
		}
	}
	closeWithin(t, srv, 2*time.Second)
}

// waitTerminal waits at most d for job to end, so a job that does not stop
// fails its test instead of hanging it.
func waitTerminal(t *testing.T, job *Job, d time.Duration) JobInfo {
	t.Helper()
	select {
	case <-job.Done():
		return job.Info()
	case <-time.After(d):
		t.Fatalf("job %s still %q after %v", job.ID, job.Info().Status, d)
		return JobInfo{}
	}
}

// closeWithin fails the test if srv.Close has not returned within d.
func closeWithin(t *testing.T, srv *Server, d time.Duration) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(d):
		t.Fatalf("Server.Close has not returned after %v", d)
	}
}

// TestOversizedConfigRejected: launch extents past detector.BoundBlock and
// detector.BoundThreads are refused as invalid_argument, naming the field,
// on every transport (POST /jobs, /v1/stream) and for every kind before they
// size a warp table — a 67108864×1024 launch asked for a 16 GiB one and
// took the process down — and the daemon serves the next job. A block of
// more than 32 warps (128 threads at warp size 2) is refused the same way:
// a barrier's arrival mask has one bit per warp, and the warps past bit 31
// used to drop out of every join, reporting a race the barrier orders.
// No request carries detector
// configuration: a JSON body with a "config" is refused as an unknown
// field (the knobs' own bounds are detector's
// TestConfigValidateRejectsNegatives), and a stream client of protocol
// version 1, which sent one on every LAUNCH, is refused at the prelude.
func TestOversizedConfigRejected(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	want := racyDigest(t)
	c := dialStream(t, ts.URL, "")
	if _, _, err := c.UploadModule([]byte(racySrc)); err != nil {
		t.Fatal(err)
	}
	const huge = 1 << 50
	seq := uint64(0)
	for _, tc := range []struct {
		name              string // also what the error must name
		grid, block, warp int
	}{
		{`field "block"`, 1, detector.BoundBlock + 1, 0},
		{`field "grid"`, 67108864, 1024, 0},
		{`field "grid"`, detector.BoundThreads/32 + 1, 32, 0},
		{`field "grid"`, huge, 0, 0},
		{`field "warp_size"`, 1, 128, 2},
	} {
		name := fmt.Sprintf("%s (%d×%d)", tc.name, tc.grid, tc.block)
		code, _, errj := postJob(t, ts, JobRequest{PTX: racySrc, Kernel: "k", Grid: tc.grid, Block: tc.block, WarpSize: tc.warp})
		if code != http.StatusBadRequest || errj.Code != wire.CodeInvalidArgument || !strings.Contains(errj.Error, tc.name) {
			t.Errorf("POST /jobs with bad %s: %d %+v, want 400 invalid_argument", name, code, errj)
		}
		code, _, errj = postJob(t, ts, JobRequest{PTX: racySrc, Kernel: "k", Grid: tc.grid, Block: tc.block, WarpSize: tc.warp, Kind: KindRepair})
		if code != http.StatusBadRequest || errj.Code != wire.CodeInvalidArgument || !strings.Contains(errj.Error, tc.name) {
			t.Errorf("POST /jobs (repair) with bad %s: %d %+v, want 400 invalid_argument", name, code, errj)
		}
		seq++
		if err := c.Launch(wire.LaunchSpec{Seq: seq, Kernel: "k", Grid: tc.grid, Block: tc.block, WarpSize: tc.warp, Buffers: []int{4}}); err != nil {
			t.Fatal(err)
		}
		_, _, rejects := collect(t, c, 1)
		if len(rejects) != 1 || rejects[0].Seq != seq || rejects[0].Code != wire.CodeInvalidArgument || !strings.Contains(rejects[0].Msg, tc.name) {
			t.Errorf("/v1/stream with bad %s: rejects %+v, want one invalid_argument", name, rejects)
		}
	}
	code, errj := post(t, ts.URL+"/jobs", withConfig(JobRequest{PTX: racySrc, Kernel: "k", Buffers: []int{4}}), nil)
	refusesConfig(t, "POST /jobs", code, errj)
	code, errj = post(t, ts.URL+"/jobs", withConfig(JobRequest{PTX: racySrc, Kernel: "k", Kind: KindRepair}), nil)
	refusesConfig(t, "POST /jobs (repair)", code, errj)
	if fatal := dialV1(t, ts.URL); fatal.Code != wire.CodeVersionMismatch {
		t.Errorf("/v1/stream from a version-1 client: fatal %+v, want %s", fatal, wire.CodeVersionMismatch)
	}

	code, info, errj := postJob(t, ts, JobRequest{PTX: racySrc, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4}})
	if code != http.StatusAccepted {
		t.Fatalf("valid job after the rejects: %d %+v", code, errj)
	}
	if got := jobDigest(t, waitJob(t, ts, info.ID)); got != want {
		t.Fatalf("JSON job after the rejects:\n got %s\nwant %s", got, want)
	}
	seq++
	if err := c.Launch(wire.LaunchSpec{Seq: seq, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4}}); err != nil {
		t.Fatal(err)
	}
	sums, _, _ := collect(t, c, 1)
	if sum := sums[seq]; sum.Status != StatusDone || sum.Report().CanonicalDigest() != want {
		t.Fatalf("streamed job after the rejects: %+v", sum)
	}
}

// dialV1 opens /v1/stream as a client of protocol version 1 and returns
// the FATAL the daemon answers its prelude with.
func dialV1(t *testing.T, url string) wire.Fatal {
	t.Helper()
	host := strings.TrimPrefix(url, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n%s\x01",
		wire.StreamPath, host, wire.UpgradeHeader, wire.Magic)
	br := bufio.NewReader(conn)
	if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v %v", resp, err)
	}
	if _, err := wire.ReadPrelude(br); err != nil {
		t.Fatalf("the daemon's prelude: %v", err)
	}
	f, err := wire.NewReader(br).ReadFrame()
	if err != nil || f.Type != wire.FFatal {
		t.Fatalf("after a version-1 prelude: frame %+v, %v; want FATAL", f, err)
	}
	fatal, err := wire.DecodeFatal(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return fatal
}
