package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// divergentSrc has a bar.sync reachable only under a tid-dependent guard.
const divergentSrc = `.visible .entry k()
{
	.reg .u32 %r<4>;
	.reg .pred %p<2>;
	mov.u32 %r1, %tid.x;
	setp.lt.u32 %p1, %r1, 16;
	@!%p1 bra SKIP;
	bar.sync 0;
SKIP:
	ret;
}`

// stridedAnalyzeSrc: every access lands in the thread's own 16-byte slot,
// so the static pruner drops all logging.
const stridedAnalyzeSrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mad.lo.u32 %r4, %r2, %r3, %r1;
	mul.lo.u32 %r5, %r4, 16;
	cvt.u64.u32 %rd2, %r5;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r4;
	ld.global.u32 %r6, [%rd3+4];
	ret;
}`

func postAnalyze(t *testing.T, ts *httptest.Server, req AnalyzeRequest) (int, AnalyzeResponse, ErrorJSON) {
	t.Helper()
	var out AnalyzeResponse
	code, errj := post(t, ts.URL+"/v1/analyze", req, &out)
	return code, out, errj
}

func TestAnalyzeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})

	// A divergent barrier is reported as an error with its position.
	code, res, errj := postAnalyze(t, ts, AnalyzeRequest{PTX: divergentSrc})
	if code != http.StatusOK {
		t.Fatalf("status = %d (%v)", code, errj)
	}
	if res.CacheHit {
		t.Error("first analysis reported a cache hit")
	}
	if res.Errors != 1 || len(res.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %+v, want one error", res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if d.Code != "barrier-divergence" || d.Severity != "error" || d.Line != 8 {
		t.Errorf("diagnostic = %+v, want barrier-divergence error at line 8", d)
	}

	// The same module again is served from the memoized analysis.
	code, res, _ = postAnalyze(t, ts, AnalyzeRequest{PTX: divergentSrc})
	if code != http.StatusOK || !res.CacheHit {
		t.Errorf("repeat analysis: status = %d, cache_hit = %v, want hit", code, res.CacheHit)
	}
}

func TestAnalyzePruningStats(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	code, res, errj := postAnalyze(t, ts, AnalyzeRequest{PTX: stridedAnalyzeSrc})
	if code != http.StatusOK {
		t.Fatalf("status = %d (%v)", code, errj)
	}
	if res.Errors != 0 {
		t.Errorf("clean kernel reported errors: %+v", res.Diagnostics)
	}
	if len(res.Kernels) != 1 {
		t.Fatalf("kernels = %+v, want one", res.Kernels)
	}
	k := res.Kernels[0]
	if k.ThreadPrivate != 2 {
		t.Errorf("thread_private = %d, want 2 (both slot accesses)", k.ThreadPrivate)
	}
	if k.FracStatic >= k.FracIntra {
		t.Errorf("frac_static %f not below frac_intra %f", k.FracStatic, k.FracIntra)
	}
	if res.Totals.InstrumentedStatic != k.InstrumentedStatic {
		t.Errorf("totals %+v disagree with the single kernel %+v", res.Totals, k)
	}
}

func TestAnalyzeRejectsBadPayloads(t *testing.T) {
	_, ts := newTestServer(t, SchedulerOptions{Workers: 1})
	for _, req := range []AnalyzeRequest{
		{}, // neither ptx nor bench
		{PTX: racySrc, Bench: "lockhashtable"},
		{Bench: "no-such-bench"},
		{PTX: "not ptx at all"},
	} {
		code, _, errj := postAnalyze(t, ts, req)
		if code != http.StatusBadRequest || errj.Error == "" {
			t.Errorf("req %+v: status = %d, error = %q, want 400", req, code, errj.Error)
		}
	}
	code, errj := post(t, ts.URL+"/v1/analyze", withConfig(AnalyzeRequest{PTX: racySrc}), nil)
	refusesConfig(t, "POST /v1/analyze", code, errj)
	// The refusal built no session: the next analysis is a cold one.
	if code, res, errj := postAnalyze(t, ts, AnalyzeRequest{PTX: racySrc}); code != http.StatusOK || res.CacheHit {
		t.Errorf("analysis after the refusal: %d %+v %+v, want 200 and a cache miss", code, res, errj)
	}
}
