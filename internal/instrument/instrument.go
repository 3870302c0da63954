// Package instrument implements BARRACUDA's PTX binary instrumentation
// (§4.1). Given a parsed module it:
//
//   - classifies every load/store/atomic/barrier with the acquire/release
//     inference of package trace and inserts the corresponding `_log.*`
//     call before it;
//   - transforms predicated memory instructions into a branch plus a
//     non-predicated instruction, so the logging call is covered by the
//     branch;
//   - inserts branch logging before every conditional branch and at every
//     branch convergence point;
//   - applies the intra-basic-block redundant-logging optimization: an
//     access through a register whose value has not changed since the
//     last logged access to the same address (same basic block, no
//     intervening synchronization) is not logged again. The rule is
//     staticanalysis.BlockRedundant, the one the inter-block pruner
//     runs across blocks;
//   - applies that inter-block pruner (package staticanalysis): an
//     access provably covered by an earlier logged access on every path,
//     or proven thread-private by the affine index analysis, is not
//     logged. Conservative by construction: reports are unchanged.
//
// The instrumented module remains valid PTX for package gpusim, and the
// per-kernel statistics drive the Figure 9 experiment (fraction of static
// instructions instrumented, before and after pruning).
package instrument

import (
	"fmt"

	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
	"barracuda/internal/staticanalysis"
	"barracuda/internal/trace"
)

// Options tunes instrumentation.
type Options struct {
	// NoPrune logs every access: no intra-block or inter-block pruning
	// (the "unoptimized" bars of Figure 9, and the whole stream the
	// happens-before definition and the memory profiler read).
	NoPrune bool
	// StaticPrune is read by nothing: the inter-block pruner runs unless
	// NoPrune is set. It stays only while benchmarks/e2e names it.
	StaticPrune bool
}

// KernelStats reports per-kernel instrumentation counts.
type KernelStats struct {
	Static             int // original static instruction count
	Instrumented       int // original instructions the intra-block pruning alone would log
	InstrumentedNo     int // same, without pruning: what a NoPrune module logs
	InstrumentedStatic int // same, with the inter-block static pruner on top: what the module logs
	Pruned             int // logging sites removed by the intra-block optimization
	StaticPruned       int // additional sites removed only by the inter-block pruner
	ThreadPrivate      int // sites dropped entirely as provably thread-private
	Added              int // instructions added (logs, branches)
}

// FracInstrumented returns Instrumented/Static.
func (s KernelStats) FracInstrumented() float64 {
	if s.Static == 0 {
		return 0
	}
	return float64(s.Instrumented) / float64(s.Static)
}

// FracInstrumentedNoOpt returns the unoptimized fraction.
func (s KernelStats) FracInstrumentedNoOpt() float64 {
	if s.Static == 0 {
		return 0
	}
	return float64(s.InstrumentedNo) / float64(s.Static)
}

// FracInstrumentedStatic returns the fraction with the static pruner.
func (s KernelStats) FracInstrumentedStatic() float64 {
	if s.Static == 0 {
		return 0
	}
	return float64(s.InstrumentedStatic) / float64(s.Static)
}

// Result is an instrumented module plus statistics.
type Result struct {
	Module *ptx.Module
	Stats  map[string]*KernelStats
}

// TotalStats sums the per-kernel statistics.
func (r *Result) TotalStats() KernelStats {
	var t KernelStats
	for _, s := range r.Stats {
		t.Static += s.Static
		t.Instrumented += s.Instrumented
		t.InstrumentedNo += s.InstrumentedNo
		t.InstrumentedStatic += s.InstrumentedStatic
		t.Pruned += s.Pruned
		t.StaticPruned += s.StaticPruned
		t.ThreadPrivate += s.ThreadPrivate
		t.Added += s.Added
	}
	return t
}

// Instrument produces an instrumented copy of m.
func Instrument(m *ptx.Module, opts Options) (*Result, error) {
	out := &ptx.Module{
		Version:     m.Version,
		Target:      m.Target,
		AddressSize: m.AddressSize,
		Globals:     append([]ptx.VarDecl(nil), m.Globals...),
	}
	res := &Result{Module: out, Stats: make(map[string]*KernelStats)}
	for _, k := range m.Kernels {
		ik, stats, err := instrumentKernel(k, opts)
		if err != nil {
			return nil, err
		}
		out.Kernels = append(out.Kernels, ik)
		res.Stats[k.Name] = stats
	}
	return res, nil
}

// site describes the instrumentation decision for one original
// instruction.
type site struct {
	kind    trace.OpKind // memory/sync/bar classification (OpNone if none)
	prune   bool         // redundant under the intra-block optimization
	staticp bool         // prunable per the inter-block static analysis
	branch  bool         // conditional branch (gets _log.if)
	conv    bool         // branch convergence point (gets _log.fi)
}

func instrumentKernel(k *ptx.Kernel, opts Options) (*ptx.Kernel, *KernelStats, error) {
	cfg, err := kernel.Build(k)
	if err != nil {
		return nil, nil, fmt.Errorf("instrument: %w", err)
	}
	class := trace.Classify(cfg)
	sites := make([]site, len(cfg.Instrs)) // by flat instruction index
	for i, in := range cfg.Instrs {
		sites[i].kind = class[i]
		sites[i].branch = in.Op == ptx.OpBra && in.Guard != nil
	}
	for i, cov := range staticanalysis.BlockRedundant(cfg, class) {
		sites[i].prune = cov
	}
	for idx := range cfg.ConvergencePoints() {
		if idx < len(cfg.Instrs) {
			sites[idx].conv = true
		}
	}

	// The analysis runs under NoPrune too: the three columns of Figure 9
	// come from one pass.
	sa := staticanalysis.AnalyzeCFG(cfg, class)
	for i := range cfg.Instrs {
		sites[i].staticp = sa.Prune.Prunable(i)
	}
	stats := &KernelStats{Static: len(cfg.Instrs), ThreadPrivate: sa.Prune.Private}
	for _, s := range sites {
		if s.kind == trace.OpNone && !s.branch && !s.conv {
			continue
		}
		stats.InstrumentedNo++
		intraSkip := s.kind != trace.OpNone && s.prune && !s.branch && !s.conv
		staticSkip := s.kind != trace.OpNone && (s.prune || s.staticp) && !s.branch && !s.conv
		if intraSkip {
			stats.Pruned++
		} else {
			stats.Instrumented++
		}
		if staticSkip {
			if !intraSkip {
				stats.StaticPruned++
			}
		} else {
			stats.InstrumentedStatic++
		}
	}
	ik := *k // k's declarations and register numbering, with a new body
	ik.Body = rewriteBody(k.Body, sites, opts, stats)
	return &ik, stats, nil
}

// rewriteBody inserts the logging calls and predication transforms.
// The output holds the source statements as value copies: their
// instructions, and the operands those hold, are the source's.
func rewriteBody(body []ptx.Stmt, sites []site, opts Options, stats *KernelStats) []ptx.Stmt {
	out := make([]ptx.Stmt, 0, len(body)*2)
	skipCounter := 0
	emitLog := func(in *ptx.Instr, s *site) {
		kind := s.kind
		lg := &ptx.Instr{
			Op:   ptx.OpLog,
			LogK: kind.LogKind(),
			Line: in.Line,
		}
		switch kind {
		case trace.OpBar:
			// no operands
		default:
			lg.Space = in.Space
			lg.AccSz = in.AccessBytes() // vector accesses cover Vec elements
			if a, ok := in.AddrOperand(); ok {
				lg.Args = append(lg.Args, a)
			}
			// Stores carry the stored value for same-value filtering.
			// Vector stores contribute only their first component: two
			// lanes with equal first components but differing later
			// ones would be filtered — a narrow approximation affecting
			// only intra-warp same-instruction vector writes.
			if in.Op == ptx.OpSt && len(in.Args) > 1 {
				lg.Args = append(lg.Args, in.Args[1])
			}
		}
		out = append(out, ptx.Stmt{Instr: lg, Line: in.Line})
		stats.Added++
	}
	next := 0 // flat index of the next instruction
	for _, st := range body {
		if st.Instr == nil {
			out = append(out, st)
			continue
		}
		in, s := st.Instr, &sites[next]
		next++
		if s.conv {
			// Convergence-point logging (a runtime no-op marker; the
			// semantic Fi event comes from the SIMT stack).
			out = append(out, ptx.Stmt{
				Instr: &ptx.Instr{Op: ptx.OpLog, LogK: ptx.LogFi, Line: in.Line},
				Line:  in.Line,
			})
			stats.Added++
		}
		if s.branch {
			out = append(out, ptx.Stmt{
				Instr: &ptx.Instr{Op: ptx.OpLog, LogK: ptx.LogIf, Line: in.Line},
				Line:  in.Line,
			})
			stats.Added++
			out = append(out, st)
			continue
		}
		if s.kind == trace.OpNone {
			out = append(out, st)
			continue
		}
		if !opts.NoPrune && (s.prune || s.staticp) {
			out = append(out, st)
			continue
		}
		if in.Guard != nil && s.kind != trace.OpBar {
			// Predication transform: cover the log and the (now
			// unpredicated) instruction with a branch.
			skipCounter++
			label := fmt.Sprintf("__bar_skip_%d", skipCounter)
			g := *in.Guard
			g.Neg = !g.Neg
			out = append(out, ptx.Stmt{
				Instr: &ptx.Instr{
					Op:    ptx.OpBra,
					Guard: &g,
					Args:  []ptx.Operand{ptx.LabelOp(label)},
					Line:  in.Line,
				},
				Line: in.Line,
			})
			stats.Added++
			emitLog(in, s)
			un := *in
			un.Guard = nil
			out = append(out, ptx.Stmt{Instr: &un, Line: st.Line})
			out = append(out, ptx.Stmt{Label: label, Line: in.Line})
			continue
		}
		emitLog(in, s)
		out = append(out, st)
	}
	return out
}
