package server

import (
	"net/http"
	"testing"

	"barracuda/internal/detector"
)

// loopReadSrc reads a per-thread global word in a tight barrier-free
// loop — heavy producer-filter traffic — then stores to a word per thread,
// the same words from both blocks of a two-block launch.
const loopReadSrc = `.visible .entry k(.param .u64 in, .param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [in];
	ld.param.u64 %rd2, [out];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	cvt.u64.u32 %rd3, %r2;
	add.u64 %rd4, %rd1, %rd3;
	add.u64 %rd5, %rd2, %rd3;
	mov.u32 %r3, 0;
	mov.u32 %r4, 0;
LOOP:
	ld.global.u32 %r5, [%rd4];
	add.u32 %r3, %r3, %r5;
	add.u32 %r4, %r4, 1;
	setp.lt.u32 %p1, %r4, 32;
	@%p1 bra LOOP;
	st.global.u32 [%rd5], %r3;
	ret;
}`

// TestProducerFilterJob: the producer filter is a library and CLI knob.
// A job that asks the daemon for detector configuration is refused,
// naming the field, and the daemon's own job runs unfiltered — its
// simulator record count is an unfiltered library run's, above a filtered
// one's — and reports what the filtered run reports.
func TestProducerFilterJob(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	req := JobRequest{PTX: loopReadSrc, Kernel: "k", Grid: 2, Block: 64, Buffers: []int{512, 512}}
	code, errj := post(t, ts.URL+"/jobs", withConfig(req), nil)
	refusesConfig(t, "POST /jobs", code, errj)

	code, info, errj := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %+v", code, errj)
	}
	job := waitJob(t, ts, info.ID)
	library := func(cfg detector.Config) *detector.Result {
		s, err := detector.OpenPTX(loopReadSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		args, err := s.AllocArgs(req.Buffers)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Detect("k", detector.Launch1D(req.Grid, req.Block, args, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, filtered := library(detector.Config{}), library(detector.Config{ProducerFilter: true})
	if got, want := jobDigest(t, job), filtered.Report.CanonicalDigest(); got != want {
		t.Errorf("the job reported\n%s\na filtered library run\n%s", got, want)
	}
	if job.Result.Records != plain.SimStats.Records || job.Result.Records <= filtered.SimStats.Records {
		t.Errorf("the job emitted %d records, an unfiltered run %d, a filtered one %d",
			job.Result.Records, plain.SimStats.Records, filtered.SimStats.Records)
	}
}
