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

// siteDecomp decomposes site i's address with the pruner's affine
// decomposition for its space.
func siteDecomp(a *Analysis, i int) (siteInfo, bool) {
	v := a.Affine.addr[i]
	if !v.affine {
		return siteInfo{}, false
	}
	in := a.CFG.Instrs[i]
	var s siteInfo
	var ok bool
	if in.Space == ptx.SpaceGlobal {
		s, ok = globalSite(v)
	} else {
		s, ok = sharedSite(v)
	}
	if !ok || !s.anchored() || s.form == formOther {
		return siteInfo{}, false
	}
	s.idx = i
	s.bytes = in.AccessBytes()
	return s, true
}

// --- redundant logging (§4.1) ----------------------------------------------

// covKey identifies a tracked address: base register (its number) +
// static offset.
type covKey struct {
	reg int32
	off int64
}

// redundancy is the paper's redundant-logging rule over one kernel's
// tracked addresses, those of the unguarded plain reads and writes
// through a base register: such an access is covered — its logging
// redundant — when an at-least-as-strong access to the same base register
// + offset was logged earlier with no bar, membar, atom, red or
// redefinition of the base register in between. Both tiers run its step:
// the default tier from an empty state at each basic block
// (BlockRedundant), the static pruner across blocks (markRedundant).
type redundancy struct {
	c     *kernel.CFG
	class []trace.OpKind
	addr  []int32 // by instruction: its tracked address, or -1
	base  []int32 // by tracked address: its base register's number
}

// newRedundancy numbers the tracked addresses. A site the static pruner
// drops as thread-private (reason, when not nil) is not logged, so it
// generates no coverage and is not tracked.
func newRedundancy(c *kernel.CFG, class []trace.OpKind, reason []PruneReason) *redundancy {
	r := &redundancy{c: c, class: class, addr: make([]int32, len(c.Instrs))}
	ids := make(map[covKey]int32)
	for i, in := range c.Instrs {
		r.addr[i] = -1
		if k := class[i]; k != trace.OpRead && k != trace.OpWrite || in.Guard != nil ||
			reason != nil && reason[i] == PrunePrivate {
			continue
		}
		a, ok := in.AddrOperand()
		if !ok || a.Reg == "" {
			continue
		}
		id, seen := ids[covKey{a.Num, a.Off}]
		if !seen {
			id = int32(len(r.base))
			ids[covKey{a.Num, a.Off}] = id
			r.base = append(r.base, a.Num)
		}
		r.addr[i] = id
	}
	return r
}

// covState is the rule's state: by tracked address, the strongest access
// kind logged since the last synchronization and the last redefinition
// of its base register. A fact holds while the state's epoch and its base
// register's definition count are the ones it was logged under, so a
// synchronization, a redefinition or a fresh start costs one increment,
// not a pass over the addresses.
type covState struct {
	fact  []covFact // by tracked address
	defs  []uint32  // by register number: definitions seen
	epoch uint32
}

type covFact struct {
	kind        trace.OpKind
	epoch, defs uint32
}

// empty returns a state in which no address is covered.
func (r *redundancy) empty() covState {
	return covState{fact: make([]covFact, len(r.base)), defs: make([]uint32, len(r.c.Kernel.RegTab))}
}

// kind is the strongest access kind logged to address a that still holds
// in st, OpNone when none does.
func (r *redundancy) kind(st *covState, a int) trace.OpKind {
	if f := st.fact[a]; f.epoch == st.epoch && f.defs == st.defs[r.base[a]] {
		return f.kind
	}
	return trace.OpNone
}

// step applies instruction i to st and reports whether i's logging is
// covered.
func (r *redundancy) step(st *covState, i int) (covered bool) {
	switch in, a := r.c.Instrs[i], r.addr[i]; {
	case in.Op == ptx.OpBar || in.Op == ptx.OpMembar || in.Op == ptx.OpAtom || in.Op == ptx.OpRed:
		// Synchronization changes the epoch structure: drop everything.
		st.epoch++
	case a >= 0:
		kind, prev := r.class[i], r.kind(st, int(a))
		if prev == kind || prev == trace.OpWrite && kind == trace.OpRead {
			covered = true
		} else { // first logged, or a write after a logged read
			st.fact[a] = covFact{kind, st.epoch, st.defs[r.base[a]]}
		}
	}
	r.c.Instrs[i].Defs(func(reg int32) { st.defs[reg]++ })
	return covered
}

// BlockRedundant runs the redundant-logging rule from an empty state at
// each basic block — the paper's intra-basic-block optimization, the
// default tier's pruning — and marks, by instruction index, the accesses
// it covers.
func BlockRedundant(c *kernel.CFG, class []trace.OpKind) []bool {
	r := newRedundancy(c, class, nil)
	covered := make([]bool, len(c.Instrs))
	st := r.empty()
	for _, b := range c.Blocks {
		st.epoch++
		for i := b.Start; i < b.End; i++ {
			covered[i] = r.step(&st, i)
		}
	}
	return covered
}

// markRedundant runs the redundant-logging rule across basic blocks: an
// access is redundant when the rule covers it on every CFG path into it.
// Path facts meet by intersection, and a Write on one path and a Read on
// the other still cover later Reads. As in computeAffine, each transfer
// records its block's verdicts and the last one, from the fixed-point
// entry state, stands.
func markRedundant(c *kernel.CFG, class []trace.OpKind, res *PruneResult) {
	r := newRedundancy(c, class, res.Reason)
	if len(r.base) == 0 {
		return
	}
	clone := func(s covState) covState {
		return covState{fact: slices.Clone(s.fact), defs: slices.Clone(s.defs), epoch: s.epoch}
	}
	covered := make([]bool, len(c.Instrs))
	SolveForward(c, Problem[covState]{
		Entry: r.empty,
		Clone: clone,
		Join: func(a, b covState) covState {
			out := r.empty()
			for k := range out.fact {
				switch ka, kb := r.kind(&a, k), r.kind(&b, k); {
				case ka == trace.OpNone || kb == trace.OpNone:
				case ka == kb:
					out.fact[k].kind = ka
				default:
					out.fact[k].kind = trace.OpRead
				}
			}
			return out
		},
		Transfer: func(b *kernel.Block, in covState) covState {
			st := clone(in)
			for i := b.Start; i < b.End; i++ {
				covered[i] = r.step(&st, i)
			}
			return st
		},
		Equal: func(a, b covState) bool {
			for k := range a.fact {
				if r.kind(&a, k) != r.kind(&b, k) {
					return false
				}
			}
			return true
		},
	})
	for i, cov := range covered {
		if cov && res.Reason[i] == PruneNone {
			res.Reason[i] = PruneRedundant
			res.Redundant++
		}
	}
}
