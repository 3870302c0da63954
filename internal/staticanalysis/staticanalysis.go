// Package staticanalysis is a reusable dataflow framework over the
// kernel CFG (worklist solver, reaching definitions, tid/ctaid-affine
// symbolic index analysis) plus the clients built on it:
//
//   - BARRACUDA's redundant-logging rule (§4.1), written once: run from
//     an empty state at each basic block it is the intra-basic-block
//     optimization every instrumentation applies (BlockRedundant); run
//     across basic blocks it is the inter-block pruner, which also drops
//     accesses the affine analysis proves thread-private (run by every
//     instrumentation but a NoPrune one);
//   - a lint pass producing structured diagnostics with PTX source
//     positions: barrier divergence, unreachable code, missing-fence
//     heuristics, and unsynchronized shared-memory reads (consumed by
//     `barracuda vet`);
//   - repair templates for the races a detection run reported (consumed
//     by `barracuda vet -fix`), which find the synchronization idioms of
//     §3.1 with the lint pass's finders (idioms.go).
//
// The conservatism contract: every verdict that removes logging is an
// under-approximation — any access the analysis cannot *prove* safe
// stays instrumented, so detection results are unchanged while dynamic
// log volume drops. Lint verdicts are the opposite trade: advisory
// over-approximations that may flag code a deeper analysis could
// exonerate, which is why they are diagnostics and never prune anything.
package staticanalysis

import (
	"barracuda/internal/kernel"
	"barracuda/internal/trace"
)

// Analysis bundles the static-analysis results for one kernel CFG.
type Analysis struct {
	CFG    *kernel.CFG
	Class  []trace.OpKind // by flat instruction index (trace.Classify)
	Affine *Affine
	Prune  *PruneResult
}

// Analyze runs the full analysis pipeline on a kernel CFG, classifying
// trace operations itself.
func Analyze(c *kernel.CFG) *Analysis { return AnalyzeCFG(c, trace.Classify(c)) }

// AnalyzeCFG runs the pipeline with a caller-provided trace
// classification (the instrumenter already has one).
func AnalyzeCFG(c *kernel.CFG, class []trace.OpKind) *Analysis {
	aff := computeAffine(c)
	return &Analysis{
		CFG:    c,
		Class:  class,
		Affine: aff,
		Prune:  computePrune(c, class, aff),
	}
}
