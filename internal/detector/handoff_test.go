package detector

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"barracuda/internal/core"
	"barracuda/internal/gpusim"
	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/trace"
)

// countedRings is newRings with its builds counted.
func countedRings(cfg Config, builds *atomic.Int32) *rings {
	r := newRings(cfg)
	build := r.build
	r.build = func() *logging.Set {
		builds.Add(1)
		return build()
	}
	return r
}

// TestRingHandoffBuildsOneSet runs the hand-off with the producer's claim
// first, the detector threads' first, and all of them released at once.
// Every order builds exactly one set, and every queue of the set the
// producer logged to is drained to its end by a detector thread: a thread
// that took another set would never see its end-of-stream record.
func TestRingHandoffBuildsOneSet(t *testing.T) {
	for _, queues := range []int{1, 4} {
		for _, order := range []string{"producer", "threads", "both"} {
			t.Run(fmt.Sprintf("q%d/%s", queues, order), func(t *testing.T) {
				for run := 0; run < 20; run++ {
					handoffRun(t, queues, order)
				}
			})
		}
	}
}

func handoffRun(t *testing.T, queues int, order string) {
	t.Helper()
	cfg := Config{Queues: queues, QueueCap: 16}.WithDefaults()
	var builds atomic.Int32
	r := countedRings(cfg, &builds)
	det := core.New(ptvc.Geometry{WarpSize: 32, BlockSize: 32, Blocks: queues}, 0, cfg.coreOptions())
	defer det.Shadow().Release()
	sink := &routeSink{rings: r}
	produce := func() {
		for b := uint32(0); b < uint32(queues); b++ {
			rec := &logging.Record{Op: trace.OpRead, Space: logging.SpaceGlobal, Size: 4, Warp: b, Block: b, Mask: 1}
			rec.Addrs[0] = 0x10000 + 4*uint64(b)
			sink.Emit(rec)
		}
		sink.closeAll()
	}
	var wg sync.WaitGroup
	start := func() {
		for i := 0; i < queues; i++ {
			wg.Add(1)
			go consumeQueue(det, r, i, &wg)
		}
	}
	switch order {
	case "producer":
		produce()
		start()
	case "threads":
		start()
		<-r.built
		produce()
	case "both":
		gate := make(chan struct{})
		for i := 0; i < queues; i++ {
			wg.Add(1)
			go func(i int) {
				<-gate
				consumeQueue(det, r, i, &wg)
			}(i)
		}
		close(gate)
		produce()
	}
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("%d sets built, want 1", n)
	}
	if sink.set != r.set {
		t.Fatal("the producer logged to a set other than the one built")
	}
	for i, q := range sink.set.Queues {
		if _, commit, read := q.Stats(); read != commit {
			t.Fatalf("queue %d drained to %d of %d bytes", i, read, commit)
		}
	}
	if got, want := sink.set.Counters().Records, uint64(2*queues); got != want {
		t.Fatalf("%d records enqueued, want %d", got, want)
	}
	if order == "producer" && sink.wait != 0 {
		t.Fatalf("RingWait %v after the producer built the set", sink.wait)
	}
}

// firstLogSrc logs from its first instruction: a barrier, then a racy
// global write. silentSrc logs nothing, so its producer meets the rings
// only at the end of the launch.
const firstLogSrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	bar.sync 0;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	st.global.u32 [%rd1], %r1;
	ret;
}`

const silentSrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	mov.u32 %r1, %tid.x;
	add.u32 %r2, %r1, 1;
	ret;
}`

// firstLogDigest is firstLogSrc's report at every queue count. The record
// counts below add one end-of-stream record per queue.
const firstLogDigest = "race inter-block global {8 write | 8 write} sameInstr=false\n" +
	"race intra-block global {8 write | 8 write} sameInstr=false\n" +
	"race intra-warp global {8 write | 8 write} sameInstr=true\n" +
	"records=40\n"

// queueDigest is a digest as far as the queue schedule fixes it: past one
// queue, a global pair's block scope is the schedule's (see scopeFree).
func queueDigest(digest string, queues int) string {
	if queues > 1 {
		return scopeFree(digest)
	}
	return digest
}

// TestRingHandoffKeepsReports holds the canonical digest and the record
// count of both kernels, at 1 and 4 queues under GOMAXPROCS 1 and 4, to
// what the detector reported when the producer built the rings before
// the launch.
func TestRingHandoffKeepsReports(t *testing.T) {
	cases := []struct {
		name, src string
		queues    int
		digest    string
		records   uint64
	}{
		{"first-log/q1", firstLogSrc, 1, firstLogDigest, 41},
		{"first-log/q4", firstLogSrc, 4, firstLogDigest, 44},
		{"silent/q1", silentSrc, 1, "records=0\n", 1},
		{"silent/q4", silentSrc, 4, "records=0\n", 4},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			s := open(t, c.src, Config{Queues: c.queues})
			out := s.Dev.MustAlloc(4)
			for run := 0; run < 5; run++ {
				res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(8), Block: gpusim.D1(64), Args: []uint64{out}})
				if d := queueDigest(res.Report.CanonicalDigest(), c.queues); d != queueDigest(c.digest, c.queues) {
					t.Errorf("%s at GOMAXPROCS %d: digest\n%s\nwant\n%s", c.name, procs, d, c.digest)
				}
				if res.Transport.Records != c.records {
					t.Errorf("%s at GOMAXPROCS %d: %d records, want %d", c.name, procs, res.Transport.Records, c.records)
				}
			}
		}
	}
}

const spinSrc = `.visible .entry spin(.param .u64 out)
{
	.reg .pred %p<2>;
L:
	bra L;
}
` + racyAllWriteSrc

// TestDetectErrorJoinsDetectorThreads fails launches before their first
// record, by step budget and by deadline, on a kernel that logs nothing.
// Each returns its error with every detector thread gone, and the next
// Detect on the same session reports what a fresh session does.
func TestDetectErrorJoinsDetectorThreads(t *testing.T) {
	launch := gpusim.LaunchConfig{Grid: gpusim.D1(2), Block: gpusim.D1(64)}
	for _, queues := range []int{1, 4} {
		fresh := open(t, spinSrc, Config{Queues: queues})
		launch.Args = []uint64{fresh.Dev.MustAlloc(4)}
		want := queueDigest(detect(t, fresh, "k", launch).Report.CanonicalDigest(), queues)
		s := open(t, spinSrc, Config{Queues: queues})
		launch.Args = []uint64{s.Dev.MustAlloc(4)}
		base := runtime.NumGoroutine()
		for _, fail := range []struct {
			name string
			set  func(*gpusim.LaunchConfig)
		}{
			{"budget", func(l *gpusim.LaunchConfig) { l.MaxWarpInstrs = 1000 }},
			{"deadline", func(l *gpusim.LaunchConfig) { l.Deadline = time.Now().Add(5 * time.Millisecond) }},
		} {
			l := launch
			fail.set(&l)
			res, err := s.Detect("spin", l)
			if err == nil || res != nil {
				t.Fatalf("q%d %s: Detect = %v, %v; want an error", queues, fail.name, res, err)
			}
			if fail.name == "deadline" && !errors.Is(err, gpusim.ErrDeadline) {
				t.Fatalf("q%d deadline: err = %v, want ErrDeadline", queues, err)
			}
			// A detector thread is joined before Detect returns, but its
			// goroutine may take a moment more to be reaped.
			for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(end) {
					t.Fatalf("q%d %s: %d goroutines after the failed launch, %d before", queues, fail.name, runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
			if got := queueDigest(detect(t, s, "k", launch).Report.CanonicalDigest(), queues); got != want {
				t.Fatalf("q%d %s: next digest\n%s\nwant\n%s", queues, fail.name, got, want)
			}
		}
	}
}
