package staticanalysis

import (
	"cmp"
	"slices"

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

func computePrune(c *kernel.CFG, class []trace.OpKind, aff *Affine) *PruneResult {
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
	shared bool // a shared-memory site; its base is its one symbol
	// base is the uniform base's terms, in a value's order: two sites of
	// one space with equal bases share a group.
	base []termCo
}

// sameBase reports whether two sites have the same uniform base.
func (s *siteInfo) sameBase(o *siteInfo) bool {
	return s.shared == o.shared && slices.Equal(s.base, o.base)
}

// anchored reports whether a parameter or symbol anchors the address.
func (s *siteInfo) anchored() bool {
	return slices.ContainsFunc(s.base, termCo.anchor)
}

// syms returns the param/symbol names anchoring the address.
func (s *siteInfo) syms() []string {
	var out []string
	for _, b := range s.base {
		if b.anchor() {
			out = append(out, b.t.name)
		}
	}
	return out
}

// anchor reports whether the term names a parameter or a symbol.
func (b termCo) anchor() bool { return b.t.kind == termParam || b.t.kind == termSym }

// markPrivate drops plain reads/writes whose addresses are provably
// disjoint across threads. Assumptions (documented in DESIGN.md): distinct
// pointer parameters do not alias, index arithmetic does not overflow
// 32 bits before widening, launches vary thread ids only along axes the
// kernel actually reads, and verdicts hold per launch. Everything the
// decomposition cannot prove blocks its group, its symbols, or the whole
// state space — in that order of locality.
func markPrivate(c *kernel.CFG, class []trace.OpKind, aff *Affine, res *PruneResult) {
	for _, space := range [...]ptx.Space{ptx.SpaceGlobal, ptx.SpaceShared} {
		if sites, ok := spaceSites(c, class, aff, space); ok {
			markPrivateSites(sites, res)
		}
	}
}

// spaceSites decomposes the memory sites of one space, in instruction
// order, or reports the space blocked: a site whose address is unknown or
// anchored to no parameter or symbol could alias anything in it.
func spaceSites(c *kernel.CFG, class []trace.OpKind, aff *Affine, space ptx.Space) ([]siteInfo, bool) {
	var sites []siteInfo
	for i, k := range class {
		in := c.Instrs[i]
		if !k.IsMemory() || in.Space != space {
			continue
		}
		v := aff.addr[i]
		if !v.affine {
			return nil, false
		}
		var s siteInfo
		var ok bool
		if space == ptx.SpaceGlobal {
			s, ok = globalSite(v)
		} else {
			s, ok = sharedSite(v)
		}
		if !ok || !s.anchored() {
			return nil, false
		}
		s.idx, s.kind, s.bytes = i, k, in.AccessBytes()
		sites = append(sites, s)
	}
	return sites, true
}

// markPrivateSites groups one space's sites by uniform base — sorted by
// base, a group is a run — and drops the plain reads and writes of every
// group whose accesses provably stay inside their own thread's slot. A
// symbol appearing under two different bases defeats disjointness
// reasoning for both.
func markPrivateSites(sites []siteInfo, res *PruneResult) {
	order := make([]int, len(sites))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return compareBases(&sites[i], &sites[j]) })
	group := make([]int, len(sites))
	var firsts []int // each group's first site
	for k, i := range order {
		if k == 0 || !sites[i].sameBase(&sites[order[k-1]]) {
			firsts = append(firsts, i)
		}
		group[i] = len(firsts) - 1
	}
	private := make([]bool, len(firsts))
	for g := range private {
		private[g] = true
	}
	symGroup := make(map[string]int) // the first group each symbol anchors
	for i := range sites {
		for _, b := range sites[i].base {
			if !b.anchor() {
				continue
			}
			if g, ok := symGroup[b.t.name]; !ok {
				symGroup[b.t.name] = group[i]
			} else if g != group[i] {
				private[g], private[group[i]] = false, false
			}
		}
	}
	for i := range sites {
		s, f := &sites[i], &sites[firsts[group[i]]]
		if s.form != formStrided || s.bytes <= 0 || s.stride != f.stride ||
			s.delta < 0 || s.delta+int64(s.bytes) > s.stride {
			private[group[i]] = false
		}
	}
	for i, s := range sites {
		// Only plain reads/writes are dropped; atomics and fence-adjacent
		// sync accesses always log.
		if private[group[i]] && (s.kind == trace.OpRead || s.kind == trace.OpWrite) {
			res.Reason[s.idx] = PrunePrivate
			res.Private++
		}
	}
}

// compareBases orders sites by space and then by uniform base, term by
// term: sites of one base sort together.
func compareBases(a, b *siteInfo) int {
	if a.shared != b.shared {
		if a.shared {
			return 1
		}
		return -1
	}
	return slices.CompareFunc(a.base, b.base, func(x, y termCo) int {
		return cmp.Or(compareTerms(x.t, y.t), cmp.Compare(x.co, y.co))
	})
}

// globalSite decomposes a global address into
// uniformBase + stride*(blockbase.x + tid.x) + delta, the global-thread-id
// striding idiom. Any other thread- or block-varying shape is rejected.
func globalSite(v value) (siteInfo, bool) {
	var s siteInfo
	var ct, cb int64
	for _, tc := range v.terms {
		switch t := tc.t; {
		case t.kind == termTid && t.axis == 0:
			ct = tc.co
		case t.kind == termBlockBase && t.axis == 0:
			cb = tc.co
		case t.gridUniform():
			s.base = append(s.base, tc)
		default:
			return siteInfo{}, false
		}
	}
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
	s := siteInfo{shared: true}
	var ct int64
	for _, tc := range v.terms {
		switch t := tc.t; {
		case t.kind == termSym && tc.co == 1 && s.base == nil:
			s.base = []termCo{tc}
		case t.kind == termTid && t.axis == 0:
			ct = tc.co
		default:
			return siteInfo{}, false
		}
	}
	if s.base == nil {
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

// --- inter-block redundancy (must) analysis -------------------------------

// covKey identifies a tracked address: base register (its number) +
// static offset.
type covKey struct {
	reg int32
	off int64
}

// covState holds, for each tracked address by number, the strongest access
// kind logged on every path reaching the current point with no
// intervening synchronization or base-register redefinition; OpNone when
// none is.
type covState []trace.OpKind

// joinCov intersects path facts; a Write on one path and a Read on the
// other still covers later Reads.
func joinCov(a, b covState) covState {
	out := make(covState, len(a))
	for k, ka := range a {
		switch kb := b[k]; {
		case ka == trace.OpNone || kb == trace.OpNone:
		case ka == kb:
			out[k] = ka
		default:
			out[k] = trace.OpRead
		}
	}
	return out
}

// markRedundant extends the paper's intra-basic-block redundant-logging
// optimization across basic blocks: an access is redundant when, on every
// CFG path into it, an at-least-as-strong access to the same base
// register + offset was logged with no synchronization or register
// redefinition in between. It mirrors the intra-block rules of
// instrument.markPrunable exactly, extended with the thread-private
// exclusion: dropped sites are not logged, so they generate no coverage.
// As in computeAffine, each transfer records its block's verdicts and the
// last one, from the fixed-point entry state, stands.
func markRedundant(c *kernel.CFG, class []trace.OpKind, res *PruneResult) {
	// Number the tracked addresses: those of the unguarded, logged plain
	// reads and writes through a base register.
	addr := make([]int32, len(c.Instrs)) // each instruction's, or -1
	byReg := make([][]int32, len(c.Kernel.RegTab))
	ids := make(map[covKey]int32)
	for i, in := range c.Instrs {
		addr[i] = -1
		if k := class[i]; k != trace.OpRead && k != trace.OpWrite || res.Reason[i] == PrunePrivate || in.Guard != nil {
			continue
		}
		a, ok := in.AddrOperand()
		if !ok || a.Reg == "" {
			continue
		}
		id, seen := ids[covKey{a.Num, a.Off}]
		if !seen {
			id = int32(len(ids))
			ids[covKey{a.Num, a.Off}] = id
			byReg[a.Num] = append(byReg[a.Num], id)
		}
		addr[i] = id
	}
	if len(ids) == 0 {
		return
	}
	covered := make([]bool, len(c.Instrs))
	SolveForward(c, Problem[covState]{
		Entry: func() covState { return make(covState, len(ids)) },
		Clone: slices.Clone[covState],
		Join:  joinCov,
		Transfer: func(b *kernel.Block, in covState) covState {
			st := slices.Clone(in)
			for i := b.Start; i < b.End; i++ {
				covered[i] = false
				switch in, a := c.Instrs[i], addr[i]; {
				case in.Op == ptx.OpBar || in.Op == ptx.OpMembar ||
					in.Op == ptx.OpAtom || in.Op == ptx.OpRed:
					// Synchronization changes the epoch structure: drop everything.
					clear(st)
				case a >= 0:
					kind, prev := class[i], st[a]
					if prev == kind || prev == trace.OpWrite && kind == trace.OpRead {
						covered[i] = true
					} else {
						st[a] = kind // first logged, or a write after a logged read
					}
				}
				c.Instrs[i].Defs(func(r int32) {
					for _, a := range byReg[r] {
						st[a] = trace.OpNone
					}
				})
			}
			return st
		},
		Equal: slices.Equal[covState],
	})
	for i, cov := range covered {
		if cov && res.Reason[i] == PruneNone {
			res.Reason[i] = PruneRedundant
			res.Redundant++
		}
	}
}
