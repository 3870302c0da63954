package staticanalysis

import (
	"maps"
	"sort"
	"strings"

	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

// PruneReason says why an access needs no dynamic logging.
type PruneReason uint8

// Prune verdicts. Anything the analysis cannot prove safe stays
// PruneNone, i.e. instrumented: the pruner is conservative by
// construction.
const (
	PruneNone      PruneReason = iota
	PruneRedundant             // covered by an earlier logged access on every path
	PrunePrivate               // address proven thread-private by the affine analysis
)

// PruneResult holds per-instruction prune verdicts for one kernel.
type PruneResult struct {
	Reason    []PruneReason // indexed by flat instruction index
	Redundant int
	Private   int
}

// Prunable reports whether instruction i's logging can be skipped.
func (r *PruneResult) Prunable(i int) bool {
	return i < len(r.Reason) && r.Reason[i] != PruneNone
}

func computePrune(c *kernel.CFG, class map[int]trace.OpKind, aff *Affine) *PruneResult {
	res := &PruneResult{Reason: make([]PruneReason, len(c.Instrs))}
	markPrivate(c, class, aff, res)
	markRedundant(c, class, res)
	return res
}

// --- thread-privacy (affine index) analysis -------------------------------

// addrForm classifies the affine shape of one access address.
type addrForm uint8

const (
	formOther   addrForm = iota // affine but not in a provable shape
	formUniform                 // no thread-varying terms
	formStrided                 // base + stride*gtid + delta (global) or base + stride*tid + delta (shared)
)

type siteInfo struct {
	idx    int
	kind   trace.OpKind
	form   addrForm
	stride int64
	delta  int64
	bytes  int
	sig    string   // canonical uniform-base signature (group key)
	syms   []string // param/symbol names anchoring the address
}

// markPrivate drops plain reads/writes whose addresses are provably
// disjoint across threads. Assumptions (documented in DESIGN.md): distinct
// pointer parameters do not alias, index arithmetic does not overflow
// 32 bits before widening, launches vary thread ids only along axes the
// kernel actually reads, and verdicts hold per launch. Everything the
// decomposition cannot prove blocks its group, its symbols, or the whole
// state space — in that order of locality.
func markPrivate(c *kernel.CFG, class map[int]trace.OpKind, aff *Affine, res *PruneResult) {
	blockedSpace := map[ptx.Space]bool{}
	sitesBySpace := map[ptx.Space][]siteInfo{}

	idxs := make([]int, 0, len(class))
	for i := range class {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		k := class[i]
		if !k.IsMemory() {
			continue
		}
		in := c.Instrs[i]
		if in.Space != ptx.SpaceGlobal && in.Space != ptx.SpaceShared {
			continue
		}
		v, ok := aff.addr[i]
		if !ok || !v.affine {
			// Unknown address: it could alias anything in this space.
			blockedSpace[in.Space] = true
			continue
		}
		var s siteInfo
		if in.Space == ptx.SpaceGlobal {
			s, ok = globalSite(v)
		} else {
			s, ok = sharedSite(v)
		}
		if !ok || len(s.syms) == 0 {
			// Address not anchored to any parameter or symbol.
			blockedSpace[in.Space] = true
			continue
		}
		s.idx, s.kind, s.bytes = i, k, in.AccessBytes()
		sitesBySpace[in.Space] = append(sitesBySpace[in.Space], s)
	}

	for space, sites := range sitesBySpace {
		if blockedSpace[space] {
			continue
		}
		// Group by uniform-base signature; a symbol appearing under two
		// different signatures defeats disjointness reasoning for both.
		groups := map[string][]siteInfo{}
		symSigs := map[string]map[string]bool{}
		for _, s := range sites {
			groups[s.sig] = append(groups[s.sig], s)
			for _, sym := range s.syms {
				if symSigs[sym] == nil {
					symSigs[sym] = map[string]bool{}
				}
				symSigs[sym][s.sig] = true
			}
		}
		for _, g := range groups {
			if !groupPrivate(g, symSigs) {
				continue
			}
			for _, s := range g {
				// Only plain reads/writes are dropped; atomics and
				// fence-adjacent sync accesses always log.
				if s.kind == trace.OpRead || s.kind == trace.OpWrite {
					res.Reason[s.idx] = PrunePrivate
					res.Private++
				}
			}
		}
	}
}

// groupPrivate reports whether every access in the group provably stays
// inside its own thread's slot.
func groupPrivate(g []siteInfo, symSigs map[string]map[string]bool) bool {
	stride := int64(0)
	for _, s := range g {
		if s.form != formStrided || s.bytes <= 0 {
			return false
		}
		if stride == 0 {
			stride = s.stride
		}
		if s.stride != stride {
			return false
		}
		if s.delta < 0 || s.delta+int64(s.bytes) > stride {
			return false
		}
		for _, sym := range s.syms {
			if len(symSigs[sym]) > 1 {
				return false
			}
		}
	}
	return len(g) > 0
}

// globalSite decomposes a global address into
// uniformBase + stride*(blockbase.x + tid.x) + delta, the global-thread-id
// striding idiom. Any other thread- or block-varying shape is rejected.
func globalSite(v value) (siteInfo, bool) {
	var s siteInfo
	var ct, cb int64
	var sigParts []string
	for t, co := range v.terms {
		switch {
		case t.kind == termTid && t.axis == 0:
			ct = co
		case t.kind == termBlockBase && t.axis == 0:
			cb = co
		case t.gridUniform():
			sigParts = append(sigParts, sigTerm(t, co))
			if t.kind == termParam || t.kind == termSym {
				s.syms = append(s.syms, t.name)
			}
		default:
			return siteInfo{}, false
		}
	}
	sort.Strings(sigParts)
	s.sig = "g|" + strings.Join(sigParts, ",")
	s.delta = v.c
	switch {
	case ct == 0 && cb == 0:
		s.form = formUniform
	case ct == cb && ct > 0:
		s.form = formStrided
		s.stride = ct
	default:
		s.form = formOther
	}
	return s, true
}

// sharedSite decomposes a shared address into sym + stride*tid.x + delta.
// Shared memory is per-block, but block-uniform extra terms are still
// rejected for simplicity: the common tiling patterns do not need them.
func sharedSite(v value) (siteInfo, bool) {
	var s siteInfo
	var ct int64
	nsym := 0
	for t, co := range v.terms {
		switch {
		case t.kind == termSym && co == 1:
			nsym++
			s.syms = append(s.syms, t.name)
			s.sig = "s|" + t.name
		case t.kind == termTid && t.axis == 0:
			ct = co
		default:
			return siteInfo{}, false
		}
	}
	if nsym != 1 {
		return siteInfo{}, false
	}
	s.delta = v.c
	if ct == 0 {
		s.form = formUniform
	} else if ct > 0 {
		s.form = formStrided
		s.stride = ct
	} else {
		s.form = formOther
	}
	return s, true
}

func sigTerm(t term, co int64) string {
	return t.String() + "*" + itoa64(co)
}

func itoa64(v int64) string {
	// strconv-free tiny helper to keep imports minimal.
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// --- inter-block redundancy (must) analysis -------------------------------

// covKey identifies a tracked address: base register + static offset.
type covKey struct {
	reg string
	off int64
}

// covState maps tracked addresses to the strongest access kind logged on
// every path reaching the current point with no intervening
// synchronization or base-register redefinition.
type covState map[covKey]trace.OpKind

// joinCov intersects path facts; a Write on one path and a Read on the
// other still covers later Reads.
func joinCov(a, b covState) covState {
	out := make(covState)
	for k, ka := range a {
		kb, ok := b[k]
		if !ok {
			continue
		}
		if ka == kb {
			out[k] = ka
		} else {
			out[k] = trace.OpRead
		}
	}
	return out
}

// covStep applies one instruction to the coverage state in place and
// reports whether the instruction's own logging is covered (redundant).
// It mirrors the intra-block rules of instrument.markPrunable exactly,
// extended with the thread-private exclusion: dropped sites are not
// logged, so they must not generate coverage facts.
func covStep(st covState, in *ptx.Instr, kind trace.OpKind, private bool) bool {
	covered := false
	switch {
	case in.Op == ptx.OpBar || in.Op == ptx.OpMembar ||
		in.Op == ptx.OpAtom || in.Op == ptx.OpRed:
		// Synchronization changes the epoch structure: drop everything.
		for k := range st {
			delete(st, k)
		}
	case (kind == trace.OpRead || kind == trace.OpWrite) && !private:
		if a, ok := in.AddrOperand(); ok && a.BaseReg != "" && in.Guard == nil {
			k := covKey{a.BaseReg, a.Off}
			prev, seen := st[k]
			if seen && (prev == kind || prev == trace.OpWrite && kind == trace.OpRead) {
				covered = true
			} else if !seen || prev == trace.OpRead && kind == trace.OpWrite {
				st[k] = kind
			}
		}
	}
	if in.HasDst && in.Dst.Kind == ptx.OpndReg {
		for k := range st {
			if k.reg == in.Dst.Reg {
				delete(st, k)
			}
		}
	}
	return covered
}

// markRedundant extends the paper's intra-block redundant-logging
// optimization across basic blocks: an access is redundant when, on every
// CFG path into it, an at-least-as-strong access to the same base
// register + offset was logged with no synchronization or register
// redefinition in between.
func markRedundant(c *kernel.CFG, class map[int]trace.OpKind, res *PruneResult) {
	flow := SolveForward(c, Problem[covState]{
		Entry: func() covState { return covState{} },
		Clone: maps.Clone[covState],
		Join:  joinCov,
		Transfer: func(b *kernel.Block, in covState) covState {
			st := maps.Clone(in)
			for i := b.Start; i < b.End; i++ {
				covStep(st, c.Instrs[i], class[i], res.Reason[i] == PrunePrivate)
			}
			return st
		},
		Equal: maps.Equal[covState, covState],
	})
	for bi, b := range c.Blocks {
		if !flow.Reached[bi] {
			continue
		}
		st := maps.Clone(flow.In[bi])
		for i := b.Start; i < b.End; i++ {
			if covStep(st, c.Instrs[i], class[i], res.Reason[i] == PrunePrivate) &&
				res.Reason[i] == PruneNone {
				res.Reason[i] = PruneRedundant
				res.Redundant++
			}
		}
	}
}
