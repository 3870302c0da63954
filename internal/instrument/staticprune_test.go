package instrument

import (
	"strings"
	"testing"

	"barracuda/internal/ptx"
)

const stridedSrc = `
.version 4.3
.target sm_35
.address_size 64

.visible .entry strided(.param .u64 out, .param .u64 flag) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	ld.param.u64 %rd4, [flag];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mad.lo.u32 %r4, %r2, %r3, %r1;
	mul.lo.u32 %r5, %r4, 16;
	cvt.u64.u32 %rd2, %r5;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r4;
	st.global.u32 [%rd3+4], %r4;
	ld.global.u32 %r6, [%rd3+8];
	st.global.u32 [%rd4], %r4;
	ret;
}
`

// TestStaticPruneStats: by default thread-private strided accesses are
// dropped, the shared flag store is kept, and the static fraction strictly
// decreases.
func TestStaticPruneStats(t *testing.T) {
	m, err := ptx.Parse(stridedSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Instrument(m, Options{})
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	s := res.Stats["strided"]
	if s.ThreadPrivate != 3 {
		t.Errorf("ThreadPrivate = %d, want 3 (the slot-strided accesses)", s.ThreadPrivate)
	}
	if s.InstrumentedStatic >= s.Instrumented {
		t.Errorf("InstrumentedStatic = %d, want < Instrumented = %d",
			s.InstrumentedStatic, s.Instrumented)
	}
	if s.StaticPruned != s.Instrumented-s.InstrumentedStatic {
		t.Errorf("StaticPruned = %d, want %d", s.StaticPruned, s.Instrumented-s.InstrumentedStatic)
	}
	if got := s.FracInstrumentedStatic(); got >= s.FracInstrumented() {
		t.Errorf("static fraction %f not below intra fraction %f", got, s.FracInstrumented())
	}

	// The rewritten body must log the uniform flag store but none of the
	// strided slot accesses.
	var body strings.Builder
	p := ptx.Print(res.Module)
	body.WriteString(p)
	logs := strings.Count(p, "_log.wr") + strings.Count(p, "_log.rd")
	if logs != 1 {
		t.Errorf("memory logs in instrumented body = %d, want 1 (the flag store):\n%s", logs, p)
	}
}

// TestNoPruneLogsEverySite: NoPrune logs every access the pruners drop,
// and the analysis still runs, so the three Figure 9 columns come from
// the one pass.
func TestNoPruneLogsEverySite(t *testing.T) {
	m, err := ptx.Parse(stridedSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Instrument(m, Options{NoPrune: true})
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	s := res.Stats["strided"]
	if s.ThreadPrivate != 3 || s.InstrumentedStatic >= s.Instrumented {
		t.Errorf("NoPrune stats: %+v, want the static columns computed", s)
	}
	p := ptx.Print(res.Module)
	if logs := strings.Count(p, "_log.wr") + strings.Count(p, "_log.rd"); logs != 4 {
		t.Errorf("memory logs in the NoPrune body = %d, want 4:\n%s", logs, p)
	}
}
