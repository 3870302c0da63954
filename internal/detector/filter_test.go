package detector

import (
	"strings"
	"testing"

	"barracuda/internal/gpusim"
	"barracuda/internal/logging"
)

// loopInvariantReadSrc reads the same per-thread global word 64 times in
// a barrier-free loop, then stores an accumulator once: the canonical
// best case for producer-side filtering. The read site is unguarded,
// global, and its address is affine in (param, tid), so the static tier
// should mark it log-once; iterations 2..64 of every warp are then
// elided without even building a record.
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
// [in + (4*tid & 0)]: `and` is opaque to the affine analysis, so the static
// log-once tier leaves the site alone, and only the record — strided, of
// stride 0 — shows the dynamic cache that the lanes share one address.
func TestProducerFilterSuppressesLoopRepeats(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		static    bool // the static log-once tier marks the read site
	}{
		{"per-thread", loopInvariantReadSrc, true},
		{"broadcast", strings.Replace(loopInvariantReadSrc, "add.u64 %rd4, %rd1, %rd3;",
			"and.b64 %rd6, %rd3, 0;\n\tadd.u64 %rd4, %rd1, %rd6;", 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(filter bool) *Result {
				s := open(t, tc.src, Config{ProducerFilter: filter})
				in := s.Dev.MustAlloc(4 * 64)
				out := s.Dev.MustAlloc(4 * 64)
				return detect(t, s, "k", gpusim.LaunchConfig{
					Grid: gpusim.D1(1), Block: gpusim.D1(64), Args: []uint64{in, out},
				})
			}
			base := run(false)
			filt := run(true)
			if base.Report.HasRaces() || filt.Report.HasRaces() {
				t.Fatalf("race-free kernel reported races: base=%d filtered=%d",
					base.Report.RaceCount(), filt.Report.RaceCount())
			}
			if bd, fd := base.Report.CanonicalDigest(), filt.Report.CanonicalDigest(); bd != fd {
				t.Errorf("digest diverged:\n--- baseline ---\n%s--- filtered ---\n%s", bd, fd)
			}
			f := filt.SimStats.Filter
			if f.Suppressed() == 0 {
				t.Fatal("filter suppressed nothing on a loop-invariant read kernel")
			}
			if tc.static && f.StaticElides == 0 {
				t.Error("static log-once tier never fired; loop-invariant site not marked or not hit")
			}
			if !tc.static && (f.StaticElides != 0 || f.Hits == 0) {
				t.Errorf("broadcast site: %d static elides, %d cache hits; want 0 and > 0", f.StaticElides, f.Hits)
			}
			// 2 warps x 63 redundant loop iterations is the ceiling; the filter
			// should get most of them (the first iteration per warp must emit).
			if f.Suppressed() < 100 {
				t.Errorf("suppressed only %d records, want >= 100 (64-iteration loop, 2 warps)", f.Suppressed())
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
