package staticanalysis

import (
	"fmt"
	"slices"
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
// thread-dependent predicate before control reconverges (divergence):
// threads of one block may disagree about reaching the barrier, which
// deadlocks or — per §2 of the paper — synchronizes fewer threads than
// intended. The reconvergence block itself is excluded: a barrier there
// is executed by all threads again.
func lintBarrierDivergence(a *Analysis) []Diagnostic {
	c := a.CFG
	div := divergence(a)
	var out []Diagnostic
	for i, in := range c.Instrs {
		if br := div[c.BlockOf[i]]; in.Op == ptx.OpBar && br >= 0 {
			out = append(out, diagAt(a, i, CodeBarrierDivergence, SevError,
				"bar.sync under a thread-dependent branch (line %d): not all threads of the block may reach this barrier",
				c.Instrs[br].Line))
		}
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

// lintMissingFence flags both sides of the lock idiom of the paper's
// acquire/release inference (§3.1) that the inference cannot see
// (lockSites): a cas-based spin acquire with no trailing fence, and a
// plain store of zero releasing a lock word with no preceding fence. An
// acquire is flagged only where it feeds a spin-wait (spinFeeds), the
// loop the lock idiom spins in; the repair template fences every
// unfenced cas, since verification judges each proposal.
func lintMissingFence(a *Analysis) []Diagnostic {
	var out []Diagnostic
	acquires, releases := lockSites(a)
	spins := spinFeeds(a)
	for _, i := range acquires {
		if slices.Contains(spins, i) {
			out = append(out, diagAt(a, i, CodeMissingFence, SevWarning,
				"atom.cas spin-lock acquire has no trailing memory fence: later reads may see stale data"))
		}
	}
	for _, i := range releases {
		out = append(out, diagAt(a, i, CodeMissingFence, SevWarning,
			"plain store of 0 releases a lock word without a preceding memory fence"))
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
	sym := s.base[0].t.name
	for j, k := range a.Class {
		if !k.Writes() || a.CFG.Instrs[j].Space != ptx.SpaceShared {
			continue
		}
		w, ok := siteDecomp(a, j)
		if !ok {
			return false // unknown shared write: could hit any slot
		}
		if w.base[0].t.name != sym {
			continue // distinct shared arrays do not alias
		}
		if w.form != formStrided || w.stride != s.stride ||
			w.delta < 0 || w.delta+int64(w.bytes) > w.stride {
			return false
		}
	}
	return true
}
