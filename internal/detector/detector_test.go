package detector

import (
	"sort"
	"strings"
	"testing"

	"barracuda/internal/core"
	"barracuda/internal/fatbin"
	"barracuda/internal/gpusim"
	"barracuda/internal/logging"
)

func open(t *testing.T, src string, cfg Config) *Session {
	t.Helper()
	s, err := OpenPTX(src, cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

func detect(t *testing.T, s *Session, kernel string, launch gpusim.LaunchConfig) *Result {
	t.Helper()
	res, err := s.Detect(kernel, launch)
	if err != nil {
		t.Fatalf("detect: %v", err)
	}
	return res
}

const racyAllWriteSrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	st.global.u32 [%rd1], %r1;
	ret;
}`

func TestEndToEndRacyKernel(t *testing.T) {
	s := open(t, racyAllWriteSrc, Config{})
	out := s.Dev.MustAlloc(4)
	res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(2), Block: gpusim.D1(64), Args: []uint64{out}})
	if !res.Report.HasRaces() {
		t.Fatal("no races on an obviously racy kernel")
	}
	kinds := map[core.RaceKind]bool{}
	for _, r := range res.Report.Races {
		kinds[r.Kind] = true
		if r.Space != logging.SpaceGlobal {
			t.Errorf("race space = %v", r.Space)
		}
	}
	if !kinds[core.IntraWarp] {
		t.Errorf("expected an intra-warp race: %v", res.Report.Races)
	}
	if !kinds[core.InterBlock] && !kinds[core.IntraBlock] {
		t.Errorf("expected cross-warp races too: %v", res.Report.Races)
	}
}

func TestEndToEndSameValueWritesFiltered(t *testing.T) {
	src := `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	st.global.u32 [%rd1], 7;
	ret;
}`
	s := open(t, src, Config{})
	out := s.Dev.MustAlloc(4)
	res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(32), Args: []uint64{out}})
	for _, r := range res.Report.Races {
		if r.Kind == core.IntraWarp && r.SameInstr {
			t.Errorf("same-value intra-warp write reported: %v", r)
		}
	}
	if res.Report.SameValueGag == 0 {
		t.Error("same-value filter inactive")
	}
}

const cleanPerThreadSrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mad.lo.u32 %r4, %r2, %r3, %r1;
	cvt.u64.u32 %rd2, %r4;
	shl.b64 %rd3, %rd2, 2;
	add.u64 %rd4, %rd1, %rd3;
	st.global.u32 [%rd4], %r4;
	ld.global.u32 %r5, [%rd4];
	ret;
}`

// TestEndToEndCleanKernel: every access is thread-private, so Config{}
// logs none of them, and unpruned the detector sees them all and reports
// no race.
func TestEndToEndCleanKernel(t *testing.T) {
	for _, cfg := range []Config{{}, {NoPrune: true}} {
		s := open(t, cleanPerThreadSrc, cfg)
		out := s.Dev.MustAlloc(4 * 256)
		res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(4), Block: gpusim.D1(64), Args: []uint64{out}})
		if res.Report.HasRaces() {
			t.Fatalf("%+v: false races: %v", cfg, res.Report.Races)
		}
		if got := res.SimStats.Records > 0; got != cfg.NoPrune {
			t.Errorf("%+v: %d records emitted", cfg, res.SimStats.Records)
		}
	}
}

// TestLoopWriteRace: every thread stores to global word 0 on each of 16
// iterations of a barrier-free loop; the write race is reported.
func TestLoopWriteRace(t *testing.T) {
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
	s := open(t, src, Config{})
	out := s.Dev.MustAlloc(4)
	res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(64), Args: []uint64{out}})
	if !res.Report.HasRaces() {
		t.Error("intra-loop write race missed")
	}
}

const sharedBarrierSrc = `.visible .entry k(.param .u64 out, .param .u32 dobar)
{
	.reg .u32 %r<10>;
	.reg .u64 %rd<10>;
	.reg .pred %p<2>;
	.shared .align 4 .b8 buf[256];
	ld.param.u64 %rd1, [out];
	ld.param.u32 %r9, [dobar];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	cvt.u64.u32 %rd2, %r2;
	mov.u64 %rd3, buf;
	add.u64 %rd4, %rd3, %rd2;
	st.shared.u32 [%rd4], %r1;
	setp.eq.u32 %p1, %r9, 0;
	@%p1 bra NOBAR;
	bar.sync 0;
NOBAR:
	mov.u32 %r3, 63;
	sub.u32 %r4, %r3, %r1;
	shl.b32 %r5, %r4, 2;
	cvt.u64.u32 %rd5, %r5;
	add.u64 %rd6, %rd3, %rd5;
	ld.shared.u32 %r6, [%rd6];
	cvt.u64.u32 %rd7, %r2;
	add.u64 %rd8, %rd1, %rd7;
	st.global.u32 [%rd8], %r6;
	ret;
}`

func TestSharedMemoryBarrierSync(t *testing.T) {
	s := open(t, sharedBarrierSrc, Config{})
	out := s.Dev.MustAlloc(4 * 64)
	// With the barrier: race free.
	res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(64), Args: []uint64{out, 1}})
	for _, r := range res.Report.Races {
		if r.Space == logging.SpaceShared {
			t.Errorf("false shared race with barrier: %v", r)
		}
	}
	// Without the barrier: the cross-warp shared accesses race.
	s2 := open(t, sharedBarrierSrc, Config{})
	out2 := s2.Dev.MustAlloc(4 * 64)
	res2 := detect(t, s2, "k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(64), Args: []uint64{out2, 0}})
	found := false
	for _, r := range res2.Report.Races {
		if r.Space == logging.SpaceShared && r.Kind == core.IntraBlock {
			found = true
		}
	}
	if !found {
		t.Errorf("missing shared-memory race without barrier: %v", res2.Report.Races)
	}
}

// spinlock with configurable fences; one thread per block.
const spinlockSrc = `.visible .entry k(.param .u64 lock, .param .u64 ctr)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [lock];
	ld.param.u64 %rd2, [ctr];
SPIN:
	atom.global.cas.b32 %r1, [%rd1], 0, 1;
	membar.gl;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra SPIN;
	ld.global.u32 %r2, [%rd2];
	add.u32 %r2, %r2, 1;
	st.global.u32 [%rd2], %r2;
	membar.gl;
	atom.global.exch.b32 %r3, [%rd1], 0;
	ret;
}`

func TestSpinlockWithGlobalFencesIsClean(t *testing.T) {
	s := open(t, spinlockSrc, Config{})
	lock := s.Dev.MustAlloc(4)
	ctr := s.Dev.MustAlloc(4)
	cfg := gpusim.LaunchConfig{Grid: gpusim.D1(8), Block: gpusim.D1(1), Args: []uint64{lock, ctr}, MaxWarpInstrs: 1 << 22}
	res := detect(t, s, "k", cfg)
	if res.Report.HasRaces() {
		t.Fatalf("fenced spinlock produced races: %v", res.Report.Races)
	}
	// The counter must also be exact (simulator sanity).
	v, _ := s.Dev.ReadU32(ctr)
	if v != 8 {
		t.Errorf("counter = %d, want 8", v)
	}
}

const unfencedLockSrc = `.visible .entry k(.param .u64 lock, .param .u64 ctr)
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

func TestSpinlockWithoutFencesRaces(t *testing.T) {
	// The §6.3 hashtable bug pattern: CAS without fences does not
	// synchronize, so the critical-section accesses race.
	s := open(t, unfencedLockSrc, Config{})
	lock := s.Dev.MustAlloc(4)
	ctr := s.Dev.MustAlloc(4)
	cfg := gpusim.LaunchConfig{Grid: gpusim.D1(4), Block: gpusim.D1(1), Args: []uint64{lock, ctr}, MaxWarpInstrs: 1 << 22}
	res := detect(t, s, "k", cfg)
	if !res.Report.HasRaces() {
		t.Fatal("unfenced lock reported clean")
	}
}

// Message passing with block-scoped fences across blocks: insufficient.
const mpCtaSrc = `.visible .entry k(.param .u64 data, .param .u64 flag)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [data];
	ld.param.u64 %rd2, [flag];
	mov.u32 %r1, %ctaid.x;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra READER;
	st.global.u32 [%rd1], 42;
	membar.cta;
	st.global.u32 [%rd2], 1;
	ret;
READER:
WAIT:
	ld.global.u32 %r2, [%rd2];
	membar.cta;
	setp.eq.u32 %p1, %r2, 0;
	@%p1 bra WAIT;
	ld.global.u32 %r3, [%rd1];
	ret;
}`

func TestMessagePassingCtaFenceRaces(t *testing.T) {
	s := open(t, mpCtaSrc, Config{})
	data := s.Dev.MustAlloc(4)
	flag := s.Dev.MustAlloc(4)
	cfg := gpusim.LaunchConfig{Grid: gpusim.D1(2), Block: gpusim.D1(1), Args: []uint64{data, flag}, MaxWarpInstrs: 1 << 22}
	res := detect(t, s, "k", cfg)
	found := false
	for _, r := range res.Report.Races {
		if r.Kind == core.InterBlock {
			found = true
		}
	}
	if !found {
		t.Fatalf("cta-fenced message passing across blocks must race: %v", res.Report.Races)
	}
}

const mpGlSrc = `.visible .entry k(.param .u64 data, .param .u64 flag)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [data];
	ld.param.u64 %rd2, [flag];
	mov.u32 %r1, %ctaid.x;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra READER;
	st.global.u32 [%rd1], 42;
	membar.gl;
	st.global.u32 [%rd2], 1;
	ret;
READER:
WAIT:
	ld.global.u32 %r2, [%rd2];
	membar.gl;
	setp.eq.u32 %p1, %r2, 0;
	@%p1 bra WAIT;
	ld.global.u32 %r3, [%rd1];
	ret;
}`

func TestMessagePassingGlobalFenceClean(t *testing.T) {
	s := open(t, mpGlSrc, Config{})
	data := s.Dev.MustAlloc(4)
	flag := s.Dev.MustAlloc(4)
	cfg := gpusim.LaunchConfig{Grid: gpusim.D1(2), Block: gpusim.D1(1), Args: []uint64{data, flag}, MaxWarpInstrs: 1 << 22}
	res := detect(t, s, "k", cfg)
	if res.Report.HasRaces() {
		t.Fatalf("gl-fenced message passing reported racy: %v", res.Report.Races)
	}
}

const branchOrderSrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	setp.lt.u32 %p1, %r1, 16;
	@%p1 bra THEN;
	st.global.u32 [%rd1], 1;
	bra.uni FI;
THEN:
	st.global.u32 [%rd1], 2;
FI:
	ret;
}`

func TestBranchOrderingRaceEndToEnd(t *testing.T) {
	s := open(t, branchOrderSrc, Config{})
	out := s.Dev.MustAlloc(4)
	res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(32), Args: []uint64{out}})
	found := false
	for _, r := range res.Report.Races {
		if r.Kind == core.IntraWarp && !r.SameInstr {
			found = true
		}
	}
	if !found {
		t.Fatalf("branch-ordering race missed: %v", res.Report.Races)
	}
}

const barrierDivergenceSrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	setp.ge.u32 %p1, %r1, 16;
	@%p1 bra SKIP;
	bar.sync 0;
SKIP:
	ret;
}`

func TestBarrierDivergenceEndToEnd(t *testing.T) {
	s := open(t, barrierDivergenceSrc, Config{})
	out := s.Dev.MustAlloc(4)
	res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(32), Args: []uint64{out}})
	if len(res.Report.Divergences) == 0 {
		t.Fatal("barrier divergence not detected")
	}
}

func TestFatBinaryPipeline(t *testing.T) {
	bin, err := fatbin.PackWithSASS(cleanPerThreadSrc, 35, 52)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenFatBinary(bin, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := s.Dev.MustAlloc(4 * 64)
	res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(64), Args: []uint64{out}})
	if res.Report.HasRaces() {
		t.Errorf("fat binary run produced false races: %v", res.Report.Races)
	}
}

func TestMultiQueueDetection(t *testing.T) {
	s := open(t, racyAllWriteSrc, Config{Queues: 4, QueueCap: 64})
	out := s.Dev.MustAlloc(4)
	res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(8), Block: gpusim.D1(64), Args: []uint64{out}})
	if !res.Report.HasRaces() {
		t.Fatal("multi-queue detection missed the race")
	}
}

// TestQueueWidthsAgree: one launch detected live at queue widths 1, 2, 4
// and 8 must produce identical canonical reports: racyAllWriteSrc is a
// many-writer global race, the barrier-free shared kernel an intra-block
// shared race. A global write–write pair's block scope is the queue
// schedule's (core.Report.CanonicalDigest), so global lines are compared
// without it.
func TestQueueWidthsAgree(t *testing.T) {
	kernels := []struct {
		name   string
		src    string
		launch func(s *Session) gpusim.LaunchConfig
	}{
		{"global-many-writer", racyAllWriteSrc, func(s *Session) gpusim.LaunchConfig {
			return gpusim.LaunchConfig{Grid: gpusim.D1(8), Block: gpusim.D1(64), Args: []uint64{s.Dev.MustAlloc(4)}}
		}},
		{"shared-no-barrier", sharedBarrierSrc, func(s *Session) gpusim.LaunchConfig {
			return gpusim.LaunchConfig{Grid: gpusim.D1(2), Block: gpusim.D1(64), Args: []uint64{s.Dev.MustAlloc(4 * 64), 0}}
		}},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			var base string
			for _, q := range []int{1, 2, 4, 8} {
				s := open(t, k.src, Config{Queues: q})
				rep := detect(t, s, "k", k.launch(s)).Report
				if !rep.HasRaces() {
					t.Fatalf("queues=%d: race missed", q)
				}
				dig := scopeFree(rep.CanonicalDigest())
				if q == 1 {
					base = dig
					continue
				}
				if dig != base {
					t.Errorf("report changed at queues=%d:\n--- queues=1 ---\n%s--- queues=%d ---\n%s", q, base, q, dig)
				}
			}
		})
	}
}

// scopeFree drops the intra-/inter-block word of a digest's global race
// lines and collapses repeats.
func scopeFree(digest string) string {
	seen := map[string]bool{}
	var out []string
	for _, line := range strings.SplitAfter(digest, "\n") {
		for _, scope := range []string{"intra-block", "inter-block"} {
			line = strings.Replace(line, "race "+scope+" global ", "race global ", 1)
		}
		if !seen[line] {
			seen[line] = true
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "")
}

// twoReadsSrc: block 0's thread reads a global word at line 10 and again
// at line 15, through an address the instrumentation cannot prove equal,
// so both reads are logged; every other block stores to the word at line
// 18, unordered.
const twoReadsSrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %ctaid.x;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra WRITER;
	ld.global.u32 %r2, [%rd1];
	add.u32 %r4, %r2, 1;
	add.u32 %r4, %r4, 1;
	mul.wide.u32 %rd2, %r1, 4;
	add.u64 %rd3, %rd1, %rd2;
	ld.global.u32 %r3, [%rd3];
	ret;
WRITER:
	st.global.u32 [%rd1], %r1;
	ret;
}`

// TestGlobalReaderLinesAcrossQueues pins the reader-PC dependence on the
// queue schedule that core.Report.CanonicalDigest names: a global word
// keeps each thread's latest read only. At one queue the simulator's order
// puts the stores between the two reads, so both read lines race; above
// one queue a store handled after both reads races with line 15 alone.
// Every run names line 15, and no read line the thread did not run.
func TestGlobalReaderLinesAcrossQueues(t *testing.T) {
	for _, q := range []int{1, 2, 4} {
		for range 50 {
			s := open(t, twoReadsSrc, Config{Queues: q})
			rep := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(4), Block: gpusim.D1(1), Args: []uint64{s.Dev.MustAlloc(4)}}).Report
			read := map[uint32]bool{}
			for _, rc := range rep.Races {
				for _, a := range []core.Access{rc.Prev, rc.Cur} {
					switch {
					case !a.Write && (a.TID != 0 || a.PC != 10 && a.PC != 15):
						t.Fatalf("queues=%d: reported a read at line %d by thread %d:\n%s", q, a.PC, a.TID, rep.CanonicalDigest())
					case !a.Write:
						read[a.PC] = true
					}
				}
			}
			if !read[15] || q == 1 && !read[10] {
				t.Fatalf("queues=%d: read lines %v race:\n%s", q, read, rep.CanonicalDigest())
			}
		}
	}
}

func TestFullVCPipelineAgrees(t *testing.T) {
	for _, fullvc := range []bool{false, true} {
		s := open(t, branchOrderSrc, Config{FullVC: fullvc})
		out := s.Dev.MustAlloc(4)
		res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(32), Args: []uint64{out}})
		if !res.Report.HasRaces() {
			t.Errorf("fullvc=%v: race missed", fullvc)
		}
	}
}

func TestRunNative(t *testing.T) {
	s := open(t, cleanPerThreadSrc, Config{})
	out := s.Dev.MustAlloc(4 * 64)
	stats, dur, err := s.RunNative("k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(64), Args: []uint64{out}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 {
		t.Errorf("native run emitted %d records", stats.Records)
	}
	if dur <= 0 {
		t.Error("no duration measured")
	}
}

func TestDetectUnknownKernel(t *testing.T) {
	s := open(t, cleanPerThreadSrc, Config{})
	if _, err := s.Detect("nope", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(1)}); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestInstrumentationStatsExposed(t *testing.T) {
	s := open(t, cleanPerThreadSrc, Config{})
	st := s.Stats["k"]
	if st == nil || st.Static == 0 || st.Instrumented == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Instrumented > st.InstrumentedNo {
		t.Error("pruned count exceeds unpruned")
	}
}

func TestFormatStatsExposed(t *testing.T) {
	s := open(t, cleanPerThreadSrc, Config{NoPrune: true})
	out := s.Dev.MustAlloc(4 * 64)
	res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(64), Args: []uint64{out}})
	total := 0
	for _, n := range res.Formats {
		total += n
	}
	if total == 0 {
		t.Error("no PTVC format stats")
	}
}
