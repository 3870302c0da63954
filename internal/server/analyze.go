package server

import (
	"fmt"
	"sort"

	"barracuda/internal/instrument"
	"barracuda/internal/staticanalysis"
)

// AnalyzeRequest asks for static analysis only (POST /v1/analyze): lint
// diagnostics plus instrumentation-pruning statistics, with no kernel
// launch. Exactly one of PTX or Bench selects the module, whose warm
// session then serves detection jobs on the same source too.
type AnalyzeRequest struct {
	PTX   string `json:"ptx,omitempty"`
	Bench string `json:"bench,omitempty"`
}

// Validate checks the payload shape; the server maps errors to 400.
// Like JobRequest.Validate, every error names the offending JSON field.
func (r *AnalyzeRequest) Validate() error {
	return checkModule("analyze", r.PTX, r.Bench)
}

// DiagnosticJSON is one lint finding with its PTX source position.
type DiagnosticJSON struct {
	Kernel   string `json:"kernel"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Code     string `json:"code"`
	Severity string `json:"severity"` // warning | error
	Message  string `json:"message"`
}

// KernelStaticJSON is the Figure 9 instrumentation census for one kernel:
// how much of the static instruction stream each pruning tier logs.
type KernelStaticJSON struct {
	Kernel             string  `json:"kernel"`
	Static             int     `json:"static_instrs"`
	Instrumented       int     `json:"instrumented"`
	InstrumentedStatic int     `json:"instrumented_static"`
	StaticPruned       int     `json:"static_pruned"`
	ThreadPrivate      int     `json:"thread_private"`
	FracIntra          float64 `json:"frac_intra"`
	FracStatic         float64 `json:"frac_static"`
}

// AnalyzeResponse is the full static-analysis result.
type AnalyzeResponse struct {
	CacheHit    bool               `json:"cache_hit"`
	Errors      int                `json:"errors"`
	Warnings    int                `json:"warnings"`
	Diagnostics []DiagnosticJSON   `json:"diagnostics"`
	Kernels     []KernelStaticJSON `json:"kernels"`
	Totals      KernelStaticJSON   `json:"totals"`
}

func kernelStaticJSON(name string, s instrument.KernelStats) KernelStaticJSON {
	return KernelStaticJSON{
		Kernel:             name,
		Static:             s.Static,
		Instrumented:       s.Instrumented,
		InstrumentedStatic: s.InstrumentedStatic,
		StaticPruned:       s.StaticPruned,
		ThreadPrivate:      s.ThreadPrivate,
		FracIntra:          s.FracInstrumented(),
		FracStatic:         s.FracInstrumentedStatic(),
	}
}

// Analyze resolves the module, leases its warm session (building one on a
// miss — the same entry then serves detection jobs on this source), and
// returns lint diagnostics plus pruning statistics. The analysis result is
// computed once per cache entry and memoized on it: both it and the lint
// verdicts depend only on the PTX source.
func (s *Scheduler) Analyze(req AnalyzeRequest) (*AnalyzeResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	src := moduleSource(req.PTX, req.Bench)
	lease, _, err := s.cache.Acquire(src, HashSrc(src))
	if err != nil {
		return nil, err
	}
	defer lease.Release()

	// The lease holds the entry mutex, so the memoized analysis is read
	// and written race-free.
	e := lease.e
	if e.analysis != nil {
		out := *e.analysis
		out.CacheHit = true
		return &out, nil
	}

	mod := lease.Session().SrcMod
	diags, err := staticanalysis.LintModule(mod)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	res, err := instrument.Instrument(mod, instrument.Options{StaticPrune: true})
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}

	out := &AnalyzeResponse{Diagnostics: []DiagnosticJSON{}}
	for _, d := range diags {
		out.Diagnostics = append(out.Diagnostics, DiagnosticJSON{
			Kernel:   d.Kernel,
			Line:     d.Line,
			Col:      d.Col,
			Code:     d.Code,
			Severity: d.Severity.String(),
			Message:  d.Message,
		})
		if d.Severity == staticanalysis.SevError {
			out.Errors++
		} else {
			out.Warnings++
		}
	}
	names := make([]string, 0, len(res.Stats))
	for name := range res.Stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out.Kernels = append(out.Kernels, kernelStaticJSON(name, *res.Stats[name]))
	}
	out.Totals = kernelStaticJSON("(total)", res.TotalStats())
	e.analysis = out
	snap := *out
	return &snap, nil
}
