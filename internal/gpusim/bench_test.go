package gpusim

import (
	"testing"

	"barracuda/internal/logging"
	"barracuda/internal/ptx"
)

// discardSink drops records; used so benchmarks measure the interpreter and
// log-emission path, not a consumer.
type discardSink struct{ n uint64 }

func (s *discardSink) Emit(r *logging.Record) { s.n++ }

func benchModule(b *testing.B, src string) (*Device, *Module) {
	b.Helper()
	m, err := ptx.Parse(src)
	if err != nil {
		b.Fatalf("parse: %v", err)
	}
	d := NewDevice(0)
	mod, err := d.LoadModule(m)
	if err != nil {
		b.Fatalf("load: %v", err)
	}
	return d, mod
}

// stepSrc is a compute loop: a uniform trip count with tid-varying
// arithmetic in the body, so it exercises both the scalarized (counter,
// compare, branch) and vectorized (body) warp paths.
const stepSrc = `.visible .entry k(.param .u64 out, .param .u32 n)
{
	.reg .u32 %r<10>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	ld.param.u32 %r1, [n];
	mov.u32 %r2, %tid.x;
	mov.u32 %r3, 0;
	mov.u32 %r4, 0;
L:
	add.u32 %r5, %r3, %r2;
	mul.lo.u32 %r6, %r5, 2654435761;
	xor.b32 %r4, %r4, %r6;
	add.u32 %r3, %r3, 1;
	setp.lt.u32 %p1, %r3, %r1;
	@%p1 bra L;
	cvt.u64.u32 %rd2, %r2;
	shl.b64 %rd3, %rd2, 2;
	add.u64 %rd4, %rd1, %rd3;
	st.global.u32 [%rd4], %r4;
	ret;
}`

// logSrc hammers the `_log.*` emission path: one strided store plus its
// log record per loop iteration.
const logSrc = `.visible .entry k(.param .u64 out, .param .u32 n)
{
	.reg .u32 %r<10>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	ld.param.u32 %r1, [n];
	mov.u32 %r2, %tid.x;
	cvt.u64.u32 %rd2, %r2;
	shl.b64 %rd3, %rd2, 2;
	add.u64 %rd4, %rd1, %rd3;
	mov.u32 %r3, 0;
L:
	_log.wr.global.sz4 [%rd4];
	st.global.u32 [%rd4], %r3;
	add.u32 %r3, %r3, 1;
	setp.lt.u32 %p1, %r3, %r1;
	@%p1 bra L;
	ret;
}`

// wideSrc has the shape of the 26-program suite: 74 declared registers
// and the generator's arithmetic filler (internal/bench fillerOps, its
// eleven integer ops) over registers spread across the file, so a warp's
// working set is a few rows far apart in a 19 KB register file, and a
// launch wide enough (benchLaunch's caller) that the resident warps'
// files do not fit the L2 together.
const wideSrc = `.visible .entry k(.param .u64 out, .param .u32 n)
{
	.reg .u32 %r<50>;
	.reg .u64 %rd<24>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	ld.param.u32 %r1, [n];
	mov.u32 %r2, %tid.x;
	add.u32 %r12, %r2, 1;
	xor.b32 %r24, %r2, 0x5bd1;
	add.u32 %r36, %r2, 7;
	mov.u32 %r48, 0x9e37;
	mov.u32 %r3, 0;
L:
	add.u32 %r12, %r12, %r24;
	xor.b32 %r24, %r24, %r12;
	mul.lo.u32 %r36, %r36, %r48;
	shl.b32 %r48, %r12, 3;
	add.u32 %r24, %r24, %r36;
	sub.u32 %r36, %r36, %r12;
	and.b32 %r48, %r48, 0xffff;
	or.b32 %r12, %r12, 1;
	min.u32 %r24, %r24, %r36;
	mad.lo.u32 %r36, %r12, 3, %r24;
	max.u32 %r48, %r48, %r12;
	shr.u32 %r12, %r12, 1;
	add.u32 %r3, %r3, 1;
	setp.lt.u32 %p1, %r3, %r1;
	@%p1 bra L;
	cvt.u64.u32 %rd2, %r2;
	shl.b64 %rd3, %rd2, 2;
	add.u64 %rd4, %rd1, %rd3;
	st.global.u32 [%rd4], %r12;
	ret;
}`

func benchLaunch(b *testing.B, src string, grid, block int, cfg LaunchConfig) {
	b.Helper()
	d, mod := benchModule(b, src)
	out := d.MustAlloc(4 * 1024)
	cfg.Grid, cfg.Block = D1(grid), D1(block)
	cfg.Args = []uint64{out, 64}
	// Warm launch: compile the kernel and populate the arena so the loop
	// measures steady-state per-launch cost.
	if _, err := mod.Launch("k", cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var warpInstrs uint64
	for i := 0; i < b.N; i++ {
		st, err := mod.Launch("k", cfg)
		if err != nil {
			b.Fatal(err)
		}
		warpInstrs += st.WarpInstrs
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(warpInstrs)/float64(b.N), "warp-instrs/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(warpInstrs), "ns/warp-instr")
	}
}

// BenchmarkWarpStep measures pure interpreter stepping (no sink attached).
func BenchmarkWarpStep(b *testing.B) {
	benchLaunch(b, stepSrc, 8, 128, LaunchConfig{})
}

// BenchmarkWarpStepWide is BenchmarkWarpStep at the suite's shape: 74
// registers and 96 resident warps, where BenchmarkWarpStep's 18 registers
// and 32 warps fit the L1/L2 and cannot see the register file's layout.
func BenchmarkWarpStepWide(b *testing.B) {
	benchLaunch(b, wideSrc, 48, 64, LaunchConfig{})
}

// BenchmarkLogEmission measures record emission through a discarding sink,
// including the If/Else/Fi divergence events the detector consumes.
func BenchmarkLogEmission(b *testing.B) {
	benchLaunch(b, logSrc, 8, 128, LaunchConfig{Sink: &discardSink{}, EmitBranchEvents: true})
}
