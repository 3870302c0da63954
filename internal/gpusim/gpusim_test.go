package gpusim

import (
	"errors"
	"testing"

	"barracuda/internal/logging"
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

// collector is a Sink that retains all records.
type collector struct {
	recs []logging.Record
}

func (c *collector) Emit(r *logging.Record) { c.recs = append(c.recs, *r) }

func loadKernel(t *testing.T, src string) (*Device, *Module) {
	t.Helper()
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d := NewDevice(0)
	mod, err := d.LoadModule(m)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return d, mod
}

func TestStoreTIDs(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 out)
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
	ret;
}`)
	const n = 200
	out := d.MustAlloc(4 * n)
	_, err := mod.Launch("k", LaunchConfig{Grid: D1(4), Block: D1(50), Args: []uint64{out}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, err := d.ReadU32(out + uint64(4*i))
		if err != nil {
			t.Fatal(err)
		}
		if v != uint32(i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestBranchDivergence(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	cvt.u64.u32 %rd2, %r1;
	shl.b64 %rd3, %rd2, 2;
	add.u64 %rd4, %rd1, %rd3;
	setp.lt.u32 %p1, %r1, 16;
	@%p1 bra SMALL;
	st.global.u32 [%rd4], 200;
	bra.uni JOIN;
SMALL:
	st.global.u32 [%rd4], 100;
JOIN:
	ld.global.u32 %r2, [%rd4];
	add.u32 %r2, %r2, 1;
	st.global.u32 [%rd4], %r2;
	ret;
}`)
	out := d.MustAlloc(4 * 32)
	if _, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(32), Args: []uint64{out}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		v, _ := d.ReadU32(out + uint64(4*i))
		want := uint32(201)
		if i < 16 {
			want = 101
		}
		if v != want {
			t.Errorf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestLoopSum(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 out, .param .u32 n)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	ld.param.u32 %r5, [n];
	mov.u32 %r1, 0;
	mov.u32 %r2, 0;
LOOP:
	add.u32 %r2, %r2, %r1;
	add.u32 %r1, %r1, 1;
	setp.lt.u32 %p1, %r1, %r5;
	@%p1 bra LOOP;
	st.global.u32 [%rd1], %r2;
	ret;
}`)
	out := d.MustAlloc(4)
	if _, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(1), Args: []uint64{out, 10}}); err != nil {
		t.Fatal(err)
	}
	v, _ := d.ReadU32(out)
	if v != 45 { // 0+1+...+9
		t.Errorf("sum = %d, want 45", v)
	}
}

func TestBarrierSharedReverse(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.shared .align 4 .b8 buf[256];
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	cvt.u64.u32 %rd2, %r2;
	mov.u64 %rd3, buf;
	add.u64 %rd4, %rd3, %rd2;
	st.shared.u32 [%rd4], %r1;
	bar.sync 0;
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
}`)
	out := d.MustAlloc(4 * 64)
	stats, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(64), Args: []uint64{out}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		v, _ := d.ReadU32(out + uint64(4*i))
		if v != uint32(63-i) {
			t.Errorf("out[%d] = %d, want %d", i, v, 63-i)
		}
	}
	if stats.Barriers != 1 {
		t.Errorf("barriers = %d, want 1", stats.Barriers)
	}
}

func TestAtomicAddCounter(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 ctr)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [ctr];
	atom.global.add.u32 %r1, [%rd1], 1;
	ret;
}`)
	ctr := d.MustAlloc(4)
	if _, err := mod.Launch("k", LaunchConfig{Grid: D1(8), Block: D1(96), Args: []uint64{ctr}}); err != nil {
		t.Fatal(err)
	}
	v, _ := d.ReadU32(ctr)
	if v != 8*96 {
		t.Errorf("counter = %d, want %d", v, 8*96)
	}
}

func TestAtomicCasExchSpinlock(t *testing.T) {
	// Sequentially consistent simulator: a spinlock-protected increment
	// must produce an exact count across blocks. One thread per block:
	// an *intra-warp* spinlock starves on the SIMT stack (see
	// TestIntraWarpSpinlockStarves), exactly as on pre-Volta hardware.
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 lock, .param .u64 ctr)
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
	membar.gl;
	ld.global.u32 %r2, [%rd2];
	add.u32 %r2, %r2, 1;
	st.global.u32 [%rd2], %r2;
	membar.gl;
	atom.global.exch.b32 %r3, [%rd1], 0;
	ret;
}`)
	lock := d.MustAlloc(4)
	ctr := d.MustAlloc(4)
	cfg := LaunchConfig{Grid: D1(16), Block: D1(1), Args: []uint64{lock, ctr}, MaxWarpInstrs: 1 << 20}
	if _, err := mod.Launch("k", cfg); err != nil {
		t.Fatal(err)
	}
	v, _ := d.ReadU32(ctr)
	if v != 16 {
		t.Errorf("counter = %d, want 16", v)
	}
}

func TestIntraWarpSpinlockStarves(t *testing.T) {
	// All 32 lanes of one warp compete for a lock: the winning lane is
	// parked on the reconvergence entry while the losers spin, so the
	// warp starves — faithful to the SIMT-stack behaviour of pre-Volta
	// GPUs. The step budget turns the hang into ErrStepBudget.
	d, mod := loadKernel(t, warpSpinSrc)
	lock := d.MustAlloc(4)
	ctr := d.MustAlloc(4)
	cfg := LaunchConfig{Grid: D1(1), Block: D1(32), Args: []uint64{lock, ctr}, MaxWarpInstrs: 100000}
	_, err := mod.Launch("k", cfg)
	if err == nil {
		t.Fatal("intra-warp spinlock completed; expected SIMT starvation")
	}
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("error = %v, want ErrStepBudget", err)
	}
}

func TestPartialWarpMask(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 ctr)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [ctr];
	atom.global.add.u32 %r1, [%rd1], 1;
	ret;
}`)
	ctr := d.MustAlloc(4)
	// 20 threads: one partial warp.
	if _, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(20), Args: []uint64{ctr}}); err != nil {
		t.Fatal(err)
	}
	v, _ := d.ReadU32(ctr)
	if v != 20 {
		t.Errorf("counter = %d, want 20", v)
	}
}

func TestGuardedEarlyReturn(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 ctr, .param .u32 n)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [ctr];
	ld.param.u32 %r2, [n];
	mov.u32 %r1, %tid.x;
	setp.ge.u32 %p1, %r1, %r2;
	@%p1 ret;
	atom.global.add.u32 %r3, [%rd1], 1;
	ret;
}`)
	ctr := d.MustAlloc(4)
	if _, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(64), Args: []uint64{ctr, 37}}); err != nil {
		t.Fatal(err)
	}
	v, _ := d.ReadU32(ctr)
	if v != 37 {
		t.Errorf("counter = %d, want 37", v)
	}
}

func TestSignedArithmetic(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<10>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, -8;
	mov.u32 %r2, 3;
	div.s32 %r3, %r1, %r2;
	st.global.u32 [%rd1], %r3;
	rem.s32 %r4, %r1, %r2;
	st.global.u32 [%rd1+4], %r4;
	shr.s32 %r5, %r1, 1;
	st.global.u32 [%rd1+8], %r5;
	min.s32 %r6, %r1, %r2;
	st.global.u32 [%rd1+12], %r6;
	max.u32 %r7, %r1, %r2;
	st.global.u32 [%rd1+16], %r7;
	ret;
}`)
	out := d.MustAlloc(20)
	if _, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(1), Args: []uint64{out}}); err != nil {
		t.Fatal(err)
	}
	check := func(off int, want int32) {
		v, _ := d.ReadU32(out + uint64(off))
		if int32(v) != want {
			t.Errorf("out[+%d] = %d, want %d", off, int32(v), want)
		}
	}
	check(0, -2)  // -8 / 3 truncates toward zero
	check(4, -2)  // -8 % 3
	check(8, -4)  // arithmetic shift
	check(12, -8) // signed min
	// -8 as u32 is huge, so unsigned max picks it.
	if v, _ := d.ReadU32(out + 16); v != 0xfffffff8 {
		t.Errorf("unsigned max = %#x, want 0xfffffff8", v)
	}
}

func TestMulWideAndHi(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, 0x10000;
	mul.wide.u32 %rd2, %r1, %r1;
	st.global.u64 [%rd1], %rd2;
	mul.hi.u32 %r2, %r1, %r1;
	st.global.u32 [%rd1+8], %r2;
	mul.lo.u32 %r3, %r1, %r1;
	st.global.u32 [%rd1+12], %r3;
	ret;
}`)
	out := d.MustAlloc(16)
	if _, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(1), Args: []uint64{out}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.ReadU64(out); v != 1<<32 {
		t.Errorf("mul.wide = %#x, want 1<<32", v)
	}
	if v, _ := d.ReadU32(out + 8); v != 1 {
		t.Errorf("mul.hi = %d, want 1", v)
	}
	if v, _ := d.ReadU32(out + 12); v != 0 {
		t.Errorf("mul.lo = %d, want 0", v)
	}
}

func TestSelpAndFloat(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .f32 %f<8>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	mov.f32 %f1, 1.5;
	mov.f32 %f2, 2.5;
	add.f32 %f3, %f1, %f2;
	st.global.f32 [%rd1], %f3;
	setp.lt.f32 %p1, %f1, %f2;
	selp.u32 %r1, 11, 22, %p1;
	st.global.u32 [%rd1+4], %r1;
	mul.f32 %f4, %f1, %f2;
	st.global.f32 [%rd1+8], %f4;
	ret;
}`)
	out := d.MustAlloc(12)
	if _, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(1), Args: []uint64{out}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.ReadU32(out); v != 0x40800000 { // 4.0f
		t.Errorf("f32 add = %#x, want 4.0f bits", v)
	}
	if v, _ := d.ReadU32(out + 4); v != 11 {
		t.Errorf("selp = %d, want 11", v)
	}
	if v, _ := d.ReadU32(out + 8); v != 0x40700000 { // 3.75f
		t.Errorf("f32 mul = %#x, want 3.75f bits", v)
	}
}

func TestModuleGlobalSymbol(t *testing.T) {
	d, mod := loadKernel(t, `
.global .align 4 .b8 gvar[64];
.visible .entry k()
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	mov.u64 %rd1, gvar;
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	cvt.u64.u32 %rd2, %r2;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], 7;
	ret;
}`)
	if _, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(16), Args: nil}); err != nil {
		t.Fatal(err)
	}
	addr, ok := mod.GlobalAddr("gvar")
	if !ok {
		t.Fatal("gvar not allocated")
	}
	for i := 0; i < 16; i++ {
		v, _ := d.ReadU32(addr + uint64(4*i))
		if v != 7 {
			t.Errorf("gvar[%d] = %d, want 7", i, v)
		}
	}
}

func TestManyBlocksWaves(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 ctr)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [ctr];
	atom.global.add.u32 %r1, [%rd1], 1;
	ret;
}`)
	ctr := d.MustAlloc(4)
	cfg := LaunchConfig{Grid: D1(100), Block: D1(64), Args: []uint64{ctr}, MaxResidentBlocks: 4}
	if _, err := mod.Launch("k", cfg); err != nil {
		t.Fatal(err)
	}
	v, _ := d.ReadU32(ctr)
	if v != 6400 {
		t.Errorf("counter = %d, want 6400", v)
	}
}

func TestRandomSchedulingStillCorrect(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 ctr)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [ctr];
	atom.global.add.u32 %r1, [%rd1], 1;
	bar.sync 0;
	atom.global.add.u32 %r2, [%rd1], 1;
	ret;
}`)
	ctr := d.MustAlloc(4)
	cfg := LaunchConfig{Grid: D1(5), Block: D1(64), Args: []uint64{ctr}, RandomSched: true, Seed: 42}
	if _, err := mod.Launch("k", cfg); err != nil {
		t.Fatal(err)
	}
	v, _ := d.ReadU32(ctr)
	if v != 640 {
		t.Errorf("counter = %d, want 640", v)
	}
}

func TestLogRecordEmission(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	cvt.u64.u32 %rd2, %r1;
	shl.b64 %rd3, %rd2, 2;
	add.u64 %rd4, %rd1, %rd3;
	_log.wr.global.sz4 [%rd4];
	st.global.u32 [%rd4], %r1;
	ret;
}`)
	out := d.MustAlloc(4 * 64)
	sink := &collector{}
	stats, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(64), Args: []uint64{out}, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) != 2 { // one per warp
		t.Fatalf("records = %d, want 2", len(sink.recs))
	}
	if stats.Records != 2 {
		t.Errorf("stats.Records = %d", stats.Records)
	}
	r := sink.recs[0]
	if r.Op != trace.OpWrite || r.Space != logging.SpaceGlobal || r.Size != 4 {
		t.Errorf("record header = %+v", r)
	}
	if r.Mask != ^uint32(0) {
		t.Errorf("mask = %#x, want full", r.Mask)
	}
	for lane := 0; lane < 32; lane++ {
		want := out + uint64(4*lane)
		if r.Addrs[lane] != want {
			t.Errorf("lane %d addr = %#x, want %#x", lane, r.Addrs[lane], want)
		}
	}
	if sink.recs[1].Addrs[0] != out+4*32 {
		t.Errorf("warp 1 lane 0 addr = %#x", sink.recs[1].Addrs[0])
	}
}

func TestBranchEventEmission(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	setp.lt.u32 %p1, %r1, 8;
	@%p1 bra A;
	st.global.u32 [%rd1], 1;
	bra.uni J;
A:
	st.global.u32 [%rd1+4], 2;
J:
	ret;
}`)
	out := d.MustAlloc(8)
	sink := &collector{}
	cfg := LaunchConfig{Grid: D1(1), Block: D1(32), Args: []uint64{out}, Sink: sink, EmitBranchEvents: true}
	stats, err := mod.Launch("k", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Divergences != 1 {
		t.Errorf("divergences = %d, want 1", stats.Divergences)
	}
	var kinds []trace.OpKind
	var masks []uint32
	for _, r := range sink.recs {
		kinds = append(kinds, r.Op)
		masks = append(masks, r.Mask)
	}
	want := []trace.OpKind{trace.OpIf, trace.OpElse, trace.OpFi}
	if len(kinds) != 3 || kinds[0] != want[0] || kinds[1] != want[1] || kinds[2] != want[2] {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	// Fall-through path (tid >= 8) executes first.
	if masks[0] != 0xffffff00 {
		t.Errorf("if mask = %#x, want 0xffffff00", masks[0])
	}
	if masks[1] != 0x000000ff {
		t.Errorf("else mask = %#x, want 0x000000ff", masks[1])
	}
	if masks[2] != 0xffffffff {
		t.Errorf("fi mask = %#x, want full", masks[2])
	}
}

func TestNestedDivergenceEvents(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<8>;
	.reg .pred %p<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	setp.lt.u32 %p1, %r1, 16;
	@%p1 bra OUT;
	setp.lt.u32 %p2, %r1, 24;
	@%p2 bra IN;
	st.global.u32 [%rd1], 1;
IN:
	st.global.u32 [%rd1+4], 2;
OUT:
	ret;
}`)
	out := d.MustAlloc(8)
	sink := &collector{}
	cfg := LaunchConfig{Grid: D1(1), Block: D1(32), Args: []uint64{out}, Sink: sink, EmitBranchEvents: true}
	stats, err := mod.Launch("k", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Divergences != 2 {
		t.Errorf("divergences = %d, want 2", stats.Divergences)
	}
	// Outer if, inner if/else/fi nested inside the first path, then the
	// outer else and fi.
	var kinds []trace.OpKind
	for _, r := range sink.recs {
		kinds = append(kinds, r.Op)
	}
	want := []trace.OpKind{trace.OpIf, trace.OpIf, trace.OpElse, trace.OpFi, trace.OpElse, trace.OpFi}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
}

func TestOOBGlobalAccessError(t *testing.T) {
	_, mod := loadKernel(t, `
.visible .entry k()
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	mov.u64 %rd1, 64;
	st.global.u32 [%rd1], 1;
	ret;
}`)
	if _, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(1)}); err == nil {
		t.Error("store below GlobalBase succeeded")
	}
}

func TestOOBSharedAccessError(t *testing.T) {
	_, mod := loadKernel(t, `
.visible .entry k()
{
	.reg .u64 %rd<4>;
	.shared .align 4 .b8 buf[16];
	mov.u64 %rd1, buf;
	st.shared.u32 [%rd1+16], 1;
	ret;
}`)
	if _, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(1)}); err == nil {
		t.Error("shared OOB store succeeded")
	}
}

func TestLaunchValidation(t *testing.T) {
	_, mod := loadKernel(t, `
.visible .entry k(.param .u64 p) { ret; }`)
	if _, err := mod.Launch("nope", LaunchConfig{Grid: D1(1), Block: D1(1), Args: []uint64{0}}); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(1)}); err == nil {
		t.Error("wrong arg count accepted")
	}
}

func TestDeviceMemoryAPI(t *testing.T) {
	d := NewDevice(1 << 20)
	a := d.MustAlloc(64)
	if a%256 != 0 {
		t.Errorf("allocation not 256-aligned: %#x", a)
	}
	if err := d.WriteU64(a, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := d.ReadU64(a)
	if err != nil || v != 0x1122334455667788 {
		t.Errorf("ReadU64 = %#x, %v", v, err)
	}
	if err := d.Memset(a, 0xab, 8); err != nil {
		t.Fatal(err)
	}
	b, _ := d.ReadBytes(a, 8)
	for _, x := range b {
		if x != 0xab {
			t.Errorf("memset byte = %#x", x)
		}
	}
	if _, err := d.ReadU32(0); err == nil {
		t.Error("null read succeeded")
	}
	if _, err := d.Alloc(2 << 20); err == nil {
		t.Error("over-capacity alloc succeeded")
	}
}

func TestStatsCounts(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, 1;
	st.global.u32 [%rd1], %r1;
	ret;
}`)
	out := d.MustAlloc(4)
	stats, err := mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(32), Args: []uint64{out}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WarpInstrs != 4 {
		t.Errorf("WarpInstrs = %d, want 4", stats.WarpInstrs)
	}
	if stats.ThreadInstrs != 4*32 {
		t.Errorf("ThreadInstrs = %d, want 128", stats.ThreadInstrs)
	}
}

func Test2DGridAndBlock(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 ctr)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [ctr];
	mov.u32 %r1, %tid.y;
	mov.u32 %r2, %ctaid.y;
	add.u32 %r3, %r1, %r2;
	atom.global.add.u32 %r4, [%rd1], %r3;
	ret;
}`)
	ctr := d.MustAlloc(4)
	cfg := LaunchConfig{Grid: Dim3{X: 2, Y: 3}, Block: Dim3{X: 4, Y: 2}, Args: []uint64{ctr}}
	if _, err := mod.Launch("k", cfg); err != nil {
		t.Fatal(err)
	}
	// Sum over all threads of (tid.y + ctaid.y):
	// tid.y: each block has 4 threads with y=0, 4 with y=1 -> sum 4 per block, 6 blocks -> 24.
	// ctaid.y: blocks have y = 0,0,1,1,2,2; each contributes y * 8 threads -> (0+0+1+1+2+2)*8 = 48.
	v, _ := d.ReadU32(ctr)
	if v != 72 {
		t.Errorf("sum = %d, want 72", v)
	}
}
