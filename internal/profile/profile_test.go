package profile

import (
	"strings"
	"testing"

	"barracuda/internal/gpusim"
	"barracuda/internal/instrument"
	"barracuda/internal/logging"
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

func mkRec(op trace.OpKind, pc uint32, mask uint32, addrs func(lane int) uint64) *logging.Record {
	r := &logging.Record{Op: op, PC: pc, Mask: mask, Size: 4}
	for i := range r.Addrs {
		r.Addrs[i] = addrs(i)
	}
	return r
}

func TestCoalescedDetection(t *testing.T) {
	p := New()
	// 32 lanes, consecutive 4-byte addresses starting 128-aligned: one
	// coalesced 128-byte segment.
	p.Handle(mkRec(trace.OpRead, 10, ^uint32(0), func(l int) uint64 { return 0x10000 + uint64(l)*4 }))
	// Strided by 64 bytes: not coalesced.
	p.Handle(mkRec(trace.OpRead, 20, ^uint32(0), func(l int) uint64 { return 0x20000 + uint64(l)*64 }))
	rep := p.Report()
	if len(rep.Sites) != 2 {
		t.Fatalf("sites = %d", len(rep.Sites))
	}
	bySite := map[uint32]Site{}
	for _, s := range rep.Sites {
		bySite[s.PC] = s
	}
	if bySite[10].CoalescingRatio() != 1 {
		t.Errorf("contiguous access ratio = %v, want 1", bySite[10].CoalescingRatio())
	}
	if bySite[20].CoalescingRatio() != 0 {
		t.Errorf("strided access ratio = %v, want 0", bySite[20].CoalescingRatio())
	}
}

func TestUnalignedSegmentNotCoalesced(t *testing.T) {
	p := New()
	// Contiguous but straddling a 128-byte boundary.
	p.Handle(mkRec(trace.OpRead, 10, ^uint32(0), func(l int) uint64 { return 0x10040 + uint64(l)*4 }))
	if got := p.Report().Sites[0].CoalescingRatio(); got != 0 {
		t.Errorf("straddling access ratio = %v, want 0", got)
	}
}

func TestFootprintAndCounters(t *testing.T) {
	p := New()
	p.Handle(mkRec(trace.OpWrite, 10, 0x1, func(l int) uint64 { return 0x10000 }))
	p.Handle(mkRec(trace.OpWrite, 10, 0x1, func(l int) uint64 { return 0x10000 }))
	p.Handle(&logging.Record{Op: trace.OpBar, Mask: 0xF})
	p.Handle(&logging.Record{Op: trace.OpIf, Mask: 0x3})
	rep := p.Report()
	if rep.Barriers != 1 || rep.DivergentBra != 1 {
		t.Errorf("bar=%d bra=%d", rep.Barriers, rep.DivergentBra)
	}
	if rep.FootprintBytes != 64 {
		t.Errorf("footprint = %d, want 64", rep.FootprintBytes)
	}
	if rep.Sites[0].Count != 2 || rep.Sites[0].Lanes != 2 {
		t.Errorf("site = %+v", rep.Sites[0])
	}
	if !strings.Contains(rep.String(), "memory profile") {
		t.Error("report string malformed")
	}
}

// TestProfilerOnInstrumentedKernel runs a real instrumented kernel with
// the profiler as the sink — the framework-extensibility claim end to end.
func TestProfilerOnInstrumentedKernel(t *testing.T) {
	src := `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	cvt.u64.u32 %rd2, %r2;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r1;
	setp.lt.u32 %p1, %r1, 16;
	@%p1 bra SKIP;
	ld.global.u32 %r3, [%rd3];
SKIP:
	bar.sync 0;
	ret;
}`
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Unpruned, as Session.Profile runs it: the pruner drops the
	// thread-private store whose coalescing the profile reports.
	res, err := instrument.Instrument(m, instrument.Options{NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.NewDevice(0)
	mod, err := dev.LoadModule(res.Module)
	if err != nil {
		t.Fatal(err)
	}
	out := dev.MustAlloc(4 * 32)
	p := New()
	launch := gpusim.LaunchConfig{
		Grid: gpusim.D1(1), Block: gpusim.D1(32), Args: []uint64{out},
		Sink: p, EmitBranchEvents: true,
	}
	if _, err := mod.Launch("k", launch); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if len(rep.Sites) < 2 {
		t.Fatalf("sites = %d, want the store and the divergent load", len(rep.Sites))
	}
	if rep.Barriers != 1 {
		t.Errorf("barriers = %d", rep.Barriers)
	}
	if rep.DivergentBra != 1 {
		t.Errorf("divergent branches = %d", rep.DivergentBra)
	}
	// The per-thread store is perfectly coalesced.
	hot := rep.Sites[0]
	if hot.CoalescingRatio() != 1 {
		t.Errorf("hot site coalescing = %v: %+v", hot.CoalescingRatio(), hot)
	}
	if rep.FootprintBytes == 0 {
		t.Error("no footprint recorded")
	}
}
