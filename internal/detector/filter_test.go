package detector

import (
	"fmt"
	"strings"
	"testing"

	"barracuda/internal/gpusim"
	"barracuda/internal/logging"
)

// loopInvariantReadSrc reads the same per-thread global word 64 times in
// a barrier-free loop, then stores an accumulator once: the canonical
// best case for producer-side filtering. Every iteration after a warp's
// first is a same-generation repeat of a coalesced read, so the dynamic
// cache keeps it off the queue.
const loopInvariantReadSrc = `.visible .entry k(.param .u64 in, .param .u64 out)
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
	setp.lt.u32 %p1, %r4, 64;
	@%p1 bra LOOP;
	st.global.u32 [%rd5], %r3;
	ret;
}`

// TestProducerFilterSuppressesLoopRepeats: a 64-iteration read-only loop
// keeps every warp's repeats off the queue, with the report unchanged and
// the record ledger balanced. In the broadcast kernel every lane reads
// [in + (4*tid & 0)], so only the record — strided, of stride 0 — shows
// the cache that the lanes share one address. These two kernels are the
// only streams in the tree the filter drops anything from, so the whole
// equivalence matrix is checked on them: at Queues 1 and 4 and warp sizes
// 32 and 5, a filtered run gives the canonical digest and RecordsSeen of
// the unfiltered run at Queues 1 and the same warp size.
func TestProducerFilterSuppressesLoopRepeats(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"per-thread", loopInvariantReadSrc},
		{"broadcast", strings.Replace(loopInvariantReadSrc, "add.u64 %rd4, %rd1, %rd3;",
			"and.b64 %rd6, %rd3, 0;\n\tadd.u64 %rd4, %rd1, %rd6;", 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(queues, warp int, filter bool) *Result {
				s := open(t, tc.src, Config{Queues: queues, ProducerFilter: filter})
				in := s.Dev.MustAlloc(4 * 64)
				out := s.Dev.MustAlloc(4 * 64)
				return detect(t, s, "k", gpusim.LaunchConfig{
					Grid: gpusim.D1(1), Block: gpusim.D1(64), WarpSize: warp, Args: []uint64{in, out},
				})
			}
			for _, warp := range []int{32, 5} {
				ref := run(1, warp, false)
				if ref.Report.HasRaces() {
					t.Fatalf("warp %d: race-free kernel reported %d races", warp, ref.Report.RaceCount())
				}
				for _, queues := range []int{1, 4} {
					t.Run(fmt.Sprintf("q%d-w%d", queues, warp), func(t *testing.T) {
						base, filt := run(queues, warp, false), run(queues, warp, true)
						for _, r := range []*Result{base, filt} {
							if d, want := r.Report.CanonicalDigest(), ref.Report.CanonicalDigest(); d != want {
								t.Errorf("filter=%t: digest diverged:\n--- unfiltered, Queues 1 ---\n%s--- got ---\n%s",
									r == filt, want, d)
							}
							if r.Report.RecordsSeen != ref.Report.RecordsSeen {
								t.Errorf("filter=%t: RecordsSeen %d, unfiltered at Queues 1 saw %d",
									r == filt, r.Report.RecordsSeen, ref.Report.RecordsSeen)
							}
						}
						f := filt.SimStats.Filter
						t.Logf("%d records unfiltered, %d filtered: %d cache hits, %d flushes",
							base.SimStats.Records, filt.SimStats.Records, f.Hits, f.Flushes)
						// Each warp's 63 repeats are the ceiling; even the two
						// warps of size 32 leave 126, and the first iteration per
						// warp must emit.
						if f.Suppressed() == 0 || f.Hits < 100 {
							t.Errorf("cache hits %d (suppressed %d), want >= 100 on a 64-iteration loop",
								f.Hits, f.Suppressed())
						}
						if filt.SimStats.Records >= base.SimStats.Records {
							t.Errorf("filtered run emitted %d records, baseline %d: nothing kept off the queue",
								filt.SimStats.Records, base.SimStats.Records)
						}
						if want := base.SimStats.Records - f.Suppressed() + f.Flushes; filt.SimStats.Records != want {
							t.Errorf("record ledger unbalanced: emitted %d, want %d", filt.SimStats.Records, want)
						}
						if bf := base.SimStats.Filter; (gpusim.FilterStats{}) != bf {
							t.Errorf("baseline counted filter activity: %+v", bf)
						}
					})
				}
			}
		})
	}
}

// TestProducerFilterStillDetectsLoopRace guards against over-suppression:
// a loop that races (every thread hammers global word 0) must still be
// reported identically with the filter on.
func TestProducerFilterStillDetectsLoopRace(t *testing.T) {
	const src = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, 0;
LOOP:
	st.global.u32 [%rd1], %r1;
	add.u32 %r1, %r1, 1;
	setp.lt.u32 %p1, %r1, 16;
	@%p1 bra LOOP;
	ret;
}`
	for _, filter := range []bool{false, true} {
		s := open(t, src, Config{ProducerFilter: filter})
		out := s.Dev.MustAlloc(4)
		res := detect(t, s, "k", gpusim.LaunchConfig{
			Grid: gpusim.D1(1), Block: gpusim.D1(64), Args: []uint64{out},
		})
		if !res.Report.HasRaces() {
			t.Errorf("filter=%t: intra-loop write race missed", filter)
		}
	}
}

// countSink counts the records a launch emits.
type countSink struct{ n int }

func (s *countSink) Emit(*logging.Record) { s.n++ }

// TestCaptureIgnoresProducerFilter: a sink attached with LaunchInto sees
// the unfiltered stream whatever the session's configuration — attaching a
// sink does not turn the producer filter on, only DetectObserved does.
func TestCaptureIgnoresProducerFilter(t *testing.T) {
	records := func(filter bool) int {
		s := open(t, loopInvariantReadSrc, Config{ProducerFilter: filter})
		args := []uint64{s.Dev.MustAlloc(4 * 64), s.Dev.MustAlloc(4 * 64)}
		sink := &countSink{}
		if _, err := s.LaunchInto("k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(64), Args: args}, sink); err != nil {
			t.Fatal(err)
		}
		return sink.n
	}
	if plain, filtered := records(false), records(true); plain != filtered || plain == 0 {
		t.Errorf("captured %d records on a ProducerFilter session, %d on a plain one", filtered, plain)
	}
}

func TestProducerFilterFullVCMutuallyExclusive(t *testing.T) {
	_, err := OpenPTX(racyAllWriteSrc, Config{ProducerFilter: true, FullVC: true})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("ProducerFilter+FullVC accepted, want validation error; got %v", err)
	}
}
