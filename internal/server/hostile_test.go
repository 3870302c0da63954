package server

import (
	"net/http"
	"strings"
	"testing"

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
// used to panic a scheduler worker (and with it the daemon), and a
// register declaration that used to cost the worker minutes and
// gigabytes, now fail their own job with the loader's error, and the
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
	} {
		src := strings.Replace(racySrc, tc.line, tc.hostile, 1)
		bad, err := sched.Submit(JobRequest{PTX: src, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4}})
		if err != nil {
			t.Fatal(err)
		}
		<-bad.Done()
		info := bad.Info()
		if info.Status != StatusFailed || !strings.HasPrefix(info.Error, tc.err) {
			t.Fatalf("%s: status %q, error %q; want failed with the loader's error", tc.hostile, info.Status, info.Error)
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

// TestOversizedConfigRejected: knob values far above detector.Config's
// bounds — and, inside them, a granularity that does not tile the shadow
// page and a queue count and capacity whose product is gigabytes of ring —
// are refused as invalid_argument on both transports before they
// size a queue ring, a race channel or a shadow page — each of these
// used to reach make(), or index past a page's cells, and take the
// process down — and the daemon serves the next job.
func TestOversizedConfigRejected(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	want := racyDigest(t)
	c := dialStream(t, ts.URL, "")
	if _, _, err := c.UploadModule([]byte(racySrc)); err != nil {
		t.Fatal(err)
	}
	const huge = 1 << 50
	seq := uint64(0)
	for name, cfg := range map[string]detector.Config{
		"queues":                           {Queues: huge},
		"queue_cap":                        {QueueCap: huge},
		"max_races":                        {MaxRaces: huge},
		"granularity":                      {Granularity: huge},
		"granularity (not a power of two)": {Granularity: 3},
		// Each inside its own bound, 2.19 GiB of ring between them.
		"queues × queue_cap": {Queues: detector.BoundQueues, QueueCap: detector.BoundQueueCap},
	} {
		code, _, errj := postJob(t, ts, JobRequest{PTX: racySrc, Kernel: "k", Config: cfg})
		if code != http.StatusBadRequest || errj.Code != wire.CodeInvalidArgument {
			t.Errorf("POST /jobs with bad %s: %d %+v, want 400 invalid_argument", name, code, errj)
		}
		seq++
		if err := c.Launch(wire.LaunchSpec{Seq: seq, Kernel: "k", Grid: 1, Block: 32, Buffers: []int{4}, Config: cfg}); err != nil {
			t.Fatal(err)
		}
		_, _, rejects := collect(t, c, 1)
		if len(rejects) != 1 || rejects[0].Seq != seq || rejects[0].Code != wire.CodeInvalidArgument {
			t.Errorf("/v1/stream with bad %s: rejects %+v, want one invalid_argument", name, rejects)
		}
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
