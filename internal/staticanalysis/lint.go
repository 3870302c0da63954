package staticanalysis

import (
	"fmt"
	"sort"

	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

// Severity ranks a diagnostic.
type Severity uint8

// Severities. Errors are defects (divergent barriers); warnings are
// heuristics worth a look.
const (
	SevWarning Severity = iota + 1
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diagnostic codes.
const (
	CodeBarrierDivergence = "barrier-divergence"
	CodeUnreachable       = "unreachable-code"
	CodeMissingFence      = "missing-fence"
	CodeUnsyncedShared    = "unsynced-shared"
)

// Diagnostic is one structured lint finding with a PTX source position.
type Diagnostic struct {
	Kernel   string
	Line     int
	Col      int
	Code     string
	Severity Severity
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%d:%d: %s: [%s] %s (kernel %s)",
		d.Line, d.Col, d.Severity, d.Code, d.Message, d.Kernel)
}

// LintModule lints every kernel of a parsed module.
func LintModule(m *ptx.Module) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, k := range m.Kernels {
		c, err := kernel.Build(k)
		if err != nil {
			return nil, err
		}
		out = append(out, LintKernel(Analyze(c))...)
	}
	return out, nil
}

// LintKernel runs all lint checks over one analyzed kernel.
func LintKernel(a *Analysis) []Diagnostic {
	var out []Diagnostic
	out = append(out, lintBarrierDivergence(a)...)
	out = append(out, lintUnreachable(a)...)
	out = append(out, lintMissingFence(a)...)
	out = append(out, lintUnsyncedShared(a)...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Code < out[j].Code
	})
	return out
}

func diagAt(a *Analysis, i int, code string, sev Severity, format string, args ...any) Diagnostic {
	in := a.CFG.Instrs[i]
	return Diagnostic{
		Kernel:   a.CFG.Kernel.Name,
		Line:     in.Line,
		Col:      in.Col,
		Code:     code,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	}
}

// lintBarrierDivergence flags bar.sync instructions reachable under a
// thread-dependent predicate before control reconverges: threads of one
// block may disagree about reaching the barrier, which deadlocks or — per
// §2 of the paper — synchronizes fewer threads than intended. The
// reconvergence block itself (the branch's immediate post-dominator) is
// excluded: a barrier there is executed by all threads again.
func lintBarrierDivergence(a *Analysis) []Diagnostic {
	c := a.CFG
	flagged := map[int]int{} // bar instr index -> branch instr index
	for i, in := range c.Instrs {
		if in.Op != ptx.OpBra || in.Guard == nil || !a.Affine.GuardTainted(i) {
			continue
		}
		// The divergent region: blocks reachable from the branch before
		// its reconvergence point.
		region := make([]bool, len(c.Blocks))
		markInfluence(c, c.BlockOf[i], region)
		for b, in := range region {
			if !in {
				continue
			}
			for j := c.Blocks[b].Start; j < c.Blocks[b].End; j++ {
				if c.Instrs[j].Op == ptx.OpBar {
					if _, dup := flagged[j]; !dup {
						flagged[j] = i
					}
				}
			}
		}
	}
	var out []Diagnostic
	for bar, br := range flagged {
		out = append(out, diagAt(a, bar, CodeBarrierDivergence, SevError,
			"bar.sync under a thread-dependent branch (line %d): not all threads of the block may reach this barrier",
			c.Instrs[br].Line))
	}
	return out
}

// lintUnreachable reports dead code: blocks the dominator solver could
// not reach from the kernel entry.
func lintUnreachable(a *Analysis) []Diagnostic {
	var out []Diagnostic
	for _, b := range a.CFG.UnreachableBlocks() {
		out = append(out, diagAt(a, a.CFG.Blocks[b].Start, CodeUnreachable, SevWarning,
			"unreachable code: no path from the kernel entry reaches this block"))
	}
	return out
}

// lintMissingFence applies two heuristics from the paper's lock-idiom
// acquire/release inference (§3.1): a cas-based spin acquire whose atomic
// is not followed by a fence (so it classifies as a plain atom, not an
// acquire), and a plain store of zero to a lock word (a release that the
// fence inference cannot see).
func lintMissingFence(a *Analysis) []Diagnostic {
	c := a.CFG
	var out []Diagnostic

	// (a) atom.cas feeding a setp that guards a backward branch, with no
	// trailing fence: a spin-lock acquire with no acquire semantics.
	var defs *FlowResult[DefSet]
	for i, in := range c.Instrs {
		if in.Op != ptx.OpBra || in.Guard == nil {
			continue
		}
		t, ok := c.LabelAt[in.Args[0].Sym]
		if !ok || t > i { // only backward (spin) branches
			continue
		}
		if defs == nil {
			defs = ReachingDefs(c)
		}
		for _, sp := range DefsAt(c, defs, i, in.Guard.Reg) {
			spIn := c.Instrs[sp]
			if spIn.Op != ptx.OpSetp {
				continue
			}
			for _, arg := range spIn.Args {
				if arg.Kind != ptx.OpndReg {
					continue
				}
				for _, d := range DefsAt(c, defs, sp, arg.Reg) {
					din := c.Instrs[d]
					if din.Op == ptx.OpAtom && din.Atom == ptx.AtomCas && a.Class[d] == trace.OpAtom {
						out = append(out, diagAt(a, d, CodeMissingFence, SevWarning,
							"atom.cas spin-lock acquire has no trailing memory fence: later reads may see stale data"))
					}
				}
			}
		}
	}

	// (b) a plain store of 0 to a register that elsewhere bases a
	// cas/exch atomic: a lock release with no preceding fence.
	lockBase := map[string]bool{}
	for _, in := range c.Instrs {
		if (in.Op == ptx.OpAtom || in.Op == ptx.OpRed) &&
			(in.Atom == ptx.AtomCas || in.Atom == ptx.AtomExch) {
			if adr, ok := in.AddrOperand(); ok && adr.BaseReg != "" {
				lockBase[adr.BaseReg] = true
			}
		}
	}
	for i, in := range c.Instrs {
		if in.Op != ptx.OpSt || a.Class[i] != trace.OpWrite || in.Guard != nil {
			continue
		}
		adr, ok := in.AddrOperand()
		if !ok || adr.BaseReg == "" || !lockBase[adr.BaseReg] {
			continue
		}
		if len(in.Args) > 1 && in.Args[1].Kind == ptx.OpndImm && in.Args[1].Imm == 0 {
			out = append(out, diagAt(a, i, CodeMissingFence, SevWarning,
				"plain store of 0 releases a lock word without a preceding memory fence"))
		}
	}
	return out
}

// lintUnsyncedShared flags shared-memory reads in kernels that also
// write shared memory, when no bar.sync dominates the read and the
// address is not provably thread-private: a classic missing-barrier
// communication pattern.
func lintUnsyncedShared(a *Analysis) []Diagnostic {
	c := a.CFG
	hasSharedWrite := false
	for i, k := range a.Class {
		if c.Instrs[i].Space == ptx.SpaceShared && k.Writes() {
			hasSharedWrite = true
			break
		}
	}
	if !hasSharedWrite {
		return nil
	}
	var bars []int
	for i, in := range c.Instrs {
		if in.Op == ptx.OpBar {
			bars = append(bars, i)
		}
	}
	var out []Diagnostic
	for i, k := range a.Class {
		if k != trace.OpRead || c.Instrs[i].Space != ptx.SpaceShared {
			continue
		}
		if a.Prune.Reason[i] == PrunePrivate || sharedThreadPrivate(a, i) {
			continue // each thread reads only its own slot
		}
		synced := false
		for _, b := range bars {
			bb, ib := c.BlockOf[b], c.BlockOf[i]
			if (bb == ib && b < i) || (bb != ib && c.Dominates(bb, ib)) {
				synced = true
				break
			}
		}
		if !synced {
			out = append(out, diagAt(a, i, CodeUnsyncedShared, SevWarning,
				"shared-memory read with no dominating bar.sync in a kernel that writes shared memory"))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

// sharedThreadPrivate reports whether shared read i provably stays in
// its own thread's slot AND every shared write anchored to the same
// symbol does too. Unlike the pruner's verdict, this is per-site: a
// shared access with an unknown address elsewhere blocks the pruner's
// whole shared space (it must stay conservative about *removing
// logging*), but it does not make a strided-in-slot read any less
// private — only an unknown *write* could reach into this thread's
// slot, and that case returns false below.
func sharedThreadPrivate(a *Analysis, i int) bool {
	s, ok := siteDecomp(a, i)
	if !ok || s.form != formStrided {
		return false
	}
	if s.delta < 0 || s.delta+int64(s.bytes) > s.stride {
		return false
	}
	sym := s.syms[0]
	for j, k := range a.Class {
		if !k.Writes() || a.CFG.Instrs[j].Space != ptx.SpaceShared {
			continue
		}
		w, ok := siteDecomp(a, j)
		if !ok {
			return false // unknown shared write: could hit any slot
		}
		if w.syms[0] != sym {
			continue // distinct shared arrays do not alias
		}
		if w.form != formStrided || w.stride != s.stride ||
			w.delta < 0 || w.delta+int64(w.bytes) > w.stride {
			return false
		}
	}
	return true
}
