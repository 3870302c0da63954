package staticanalysis

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
)

// The affine analysis assigns each register a symbolic value of the form
//
//	c + Σ coeff_i · term_i
//
// over a small basis of launch-structured terms: kernel parameters and
// module symbols (grid-uniform), ntid/nctaid (grid-uniform), ctaid
// (block-uniform), tid (thread-varying), and the product ctaid.a·ntid.a
// ("blockbase") that the ubiquitous global-thread-id idiom
// `mad.lo %r, %ctaid.x, %ntid.x, %tid.x` produces. A value that cannot be
// expressed in this form is "unknown".
//
// Two deliberate approximations, both documented in DESIGN.md:
//
//   - cvt widening is treated as the identity, i.e. index arithmetic is
//     assumed not to overflow 32 bits before widening to 64;
//   - the taint bit is an over-approximation of "derived from tid/laneid"
//     and is used only by the lint pass (advisory diagnostics), never by
//     the pruner's soundness-critical privacy reasoning.

// termKind classifies a symbolic basis term.
type termKind uint8

const (
	termParam     termKind = iota // kernel parameter value (grid-uniform)
	termSym                       // module/shared symbol address (grid-uniform)
	termTid                       // %tid.{x,y,z} (thread-varying)
	termCtaid                     // %ctaid.{x,y,z} (block-uniform)
	termNtid                      // %ntid.{x,y,z} (grid-uniform)
	termNctaid                    // %nctaid.{x,y,z} (grid-uniform)
	termBlockBase                 // %ctaid.a * %ntid.a (block-uniform)
)

// term is one symbolic basis term.
type term struct {
	kind termKind
	axis uint8  // 0/1/2 = x/y/z for the axis-indexed kinds
	name string // param or symbol name (params include the load offset)
}

func (t term) String() string {
	axis := string("xyz"[t.axis])
	switch t.kind {
	case termParam:
		return "param:" + t.name
	case termSym:
		return "sym:" + t.name
	case termTid:
		return "tid." + axis
	case termCtaid:
		return "ctaid." + axis
	case termNtid:
		return "ntid." + axis
	case termNctaid:
		return "nctaid." + axis
	case termBlockBase:
		return "blockbase." + axis
	}
	return "?"
}

// gridUniform reports whether the term has the same value for every
// thread of the launch.
func (t term) gridUniform() bool {
	switch t.kind {
	case termParam, termSym, termNtid, termNctaid:
		return true
	}
	return false
}

// termCo is one term of a value and its coefficient, never zero.
type termCo struct {
	t  term
	co int64
}

// compareTerms orders terms by kind, axis and name: a value's terms are
// sorted so.
func compareTerms(a, b term) int {
	return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.axis, b.axis), strings.Compare(a.name, b.name))
}

// value is the abstract value of one register.
type value struct {
	affine bool
	taint  bool // may be derived from tid/laneid (over-approx)
	held   bool // in a regState: the register has a value on every path so far
	c      int64
	terms  []termCo // sorted by compareTerms, each term once; never changed once built
}

func unknownV(taint bool) value { return value{taint: taint} }
func constV(c int64) value      { return value{affine: true, c: c} }

func termV(t term, taint bool) value {
	return value{affine: true, terms: []termCo{{t, 1}}, taint: taint}
}

// isConst reports a pure constant and its value.
func (v value) isConst() (int64, bool) {
	if v.affine && len(v.terms) == 0 {
		return v.c, true
	}
	return 0, false
}

// singleTerm reports a value that is exactly one basis term (coeff 1,
// no constant).
func (v value) singleTerm() (term, bool) {
	if v.affine && v.c == 0 && len(v.terms) == 1 && v.terms[0].co == 1 {
		return v.terms[0].t, true
	}
	return term{}, false
}

func (v value) String() string {
	if !v.affine {
		if v.taint {
			return "⊤(tid)"
		}
		return "⊤"
	}
	parts := make([]string, 0, len(v.terms)+1)
	for _, tc := range v.terms {
		parts = append(parts, fmt.Sprintf("%d*%s", tc.co, tc.t))
	}
	sort.Strings(parts)
	if v.c != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", v.c))
	}
	return strings.Join(parts, " + ")
}

func addV(a, b value) value {
	taint := a.taint || b.taint
	if !a.affine || !b.affine {
		return unknownV(taint)
	}
	out := value{affine: true, c: a.c + b.c, taint: taint}
	// Terms are never changed once built, so a sum with a constant
	// shares the other side's.
	switch {
	case len(b.terms) == 0:
		out.terms = a.terms
	case len(a.terms) == 0:
		out.terms = b.terms
	default:
		// Merge the two sorted term lists, dropping terms that cancel.
		out.terms = make([]termCo, 0, len(a.terms)+len(b.terms))
		i, j := 0, 0
		for i < len(a.terms) || j < len(b.terms) {
			switch {
			case j == len(b.terms) || i < len(a.terms) && compareTerms(a.terms[i].t, b.terms[j].t) < 0:
				out.terms = append(out.terms, a.terms[i])
				i++
			case i == len(a.terms) || compareTerms(a.terms[i].t, b.terms[j].t) > 0:
				out.terms = append(out.terms, b.terms[j])
				j++
			default:
				if co := a.terms[i].co + b.terms[j].co; co != 0 {
					out.terms = append(out.terms, termCo{a.terms[i].t, co})
				}
				i, j = i+1, j+1
			}
		}
	}
	return out
}

func scaleV(a value, k int64) value {
	if !a.affine {
		return unknownV(a.taint)
	}
	if k == 0 {
		return value{affine: true, taint: a.taint}
	}
	out := value{affine: true, c: a.c * k, taint: a.taint}
	for _, tc := range a.terms {
		if co := tc.co * k; co != 0 {
			out.terms = append(out.terms, termCo{tc.t, co})
		}
	}
	return out
}

func subV(a, b value) value { return addV(a, scaleV(b, -1)) }

func mulV(a, b value) value {
	taint := a.taint || b.taint
	if k, ok := a.isConst(); ok {
		v := scaleV(b, k)
		v.taint = taint
		return v
	}
	if k, ok := b.isConst(); ok {
		v := scaleV(a, k)
		v.taint = taint
		return v
	}
	// The one non-linear product with a basis term: ctaid.a * ntid.a.
	if ta, ok := a.singleTerm(); ok {
		if tb, ok2 := b.singleTerm(); ok2 {
			if ta.kind == termCtaid && tb.kind == termNtid && ta.axis == tb.axis {
				return termV(term{kind: termBlockBase, axis: ta.axis}, taint)
			}
			if ta.kind == termNtid && tb.kind == termCtaid && ta.axis == tb.axis {
				return termV(term{kind: termBlockBase, axis: ta.axis}, taint)
			}
		}
	}
	return unknownV(taint)
}

func equalValue(a, b value) bool {
	if a.affine != b.affine || a.taint != b.taint {
		return false
	}
	if !a.affine {
		return true
	}
	return a.c == b.c && slices.Equal(a.terms, b.terms)
}

// joinValue merges two path values: equal affine values survive, anything
// else degrades to unknown. Taint is or-ed (it is an over-approximation).
func joinValue(a, b value) value {
	taint := a.taint || b.taint
	if a.affine && b.affine {
		a.taint, b.taint = taint, taint
		if equalValue(a, b) {
			return a
		}
	}
	return unknownV(taint)
}

// regState holds the abstract value of each register the solve tracks,
// by its slot (affineSolve.slot). A register that is not held reads as
// unknown and drops out of joins. Values are immutable, so slices.Clone
// is a copy of the state.
type regState []value

func joinRegState(a, b regState) regState {
	out := make(regState, len(a))
	for r, va := range a {
		if vb := b[r]; va.held && vb.held {
			if v := joinValue(va, vb); v.affine || v.taint {
				v.held = true
				out[r] = v
			}
		}
	}
	return out
}

func equalRegState(a, b regState) bool {
	for r := range a {
		if a[r].held != b[r].held || a[r].held && !equalValue(a[r], b[r]) {
			return false
		}
	}
	return true
}

func sregValue(s ptx.Sreg) value {
	switch s {
	case ptx.SregTidX, ptx.SregTidY, ptx.SregTidZ:
		return termV(term{kind: termTid, axis: uint8(s - ptx.SregTidX)}, true)
	case ptx.SregNtidX, ptx.SregNtidY, ptx.SregNtidZ:
		return termV(term{kind: termNtid, axis: uint8(s - ptx.SregNtidX)}, false)
	case ptx.SregCtaidX, ptx.SregCtaidY, ptx.SregCtaidZ:
		return termV(term{kind: termCtaid, axis: uint8(s - ptx.SregCtaidX)}, false)
	case ptx.SregNctaidX, ptx.SregNctaidY, ptx.SregNctaidZ:
		return termV(term{kind: termNctaid, axis: uint8(s - ptx.SregNctaidX)}, false)
	case ptx.SregLaneid, ptx.SregWarpid:
		return unknownV(true)
	}
	return unknownV(false)
}

func (a *affineSolve) operandValue(st regState, o *ptx.Operand) value {
	switch o.Kind {
	case ptx.OpndImm:
		return constV(o.Imm)
	case ptx.OpndReg:
		return st[a.slot[o.Num]]
	case ptx.OpndSreg:
		return sregValue(o.Sreg)
	case ptx.OpndSym:
		return termV(term{kind: termSym, name: o.Sym}, false)
	}
	return unknownV(false)
}

// step applies the instruction to the state: the value it assigns to its
// destination, and unknown to every further register a vector load
// writes, for each of them the solve tracks.
func (a *affineSolve) step(st regState, in *ptx.Instr) {
	if !in.HasDst || in.Dst.Kind != ptx.OpndReg {
		return
	}
	var v value
	dst := a.slot[in.Dst.Num]
	if dst >= 0 {
		v = a.evalInstr(st, in)
	}
	in.Defs(func(r int32) {
		if k := a.slot[r]; r != in.Dst.Num && k >= 0 {
			st[k] = a.guarded(st, in, k, unknownV(false))
			st[k].held = true
		}
	})
	if dst >= 0 {
		v.held = true
		st[dst] = v
	}
}

// guarded is the value the register in slot k holds after a definition
// of v under the instruction's guard: the old value may survive, and the
// selected value depends on the predicate.
func (a *affineSolve) guarded(st regState, in *ptx.Instr, k int32, v value) value {
	if in.Guard == nil {
		return v
	}
	v = joinValue(st[k], v)
	v.taint = v.taint || st[a.slot[in.Guard.Num]].taint
	return v
}

// evalInstr computes the abstract value the instruction assigns to its
// destination register.
func (a *affineSolve) evalInstr(st regState, in *ptx.Instr) value {
	arg := func(i int) value {
		if i < len(in.Args) {
			return a.operandValue(st, &in.Args[i])
		}
		return unknownV(false)
	}
	var v value
	switch in.Op {
	case ptx.OpMov:
		v = arg(0)
	case ptx.OpLd:
		if in.Space == ptx.SpaceParam {
			if o, ok := in.AddrOperand(); ok && o.Sym != "" {
				v = termV(term{kind: termParam, name: fmt.Sprintf("%s+%d", o.Sym, o.Off)}, false)
				break
			}
		}
		v = unknownV(false)
	case ptx.OpAdd:
		v = addV(arg(0), arg(1))
	case ptx.OpSub:
		v = subV(arg(0), arg(1))
	case ptx.OpMul:
		if in.Hi {
			v = unknownV(arg(0).taint || arg(1).taint)
		} else {
			v = mulV(arg(0), arg(1))
		}
	case ptx.OpMad:
		if in.Hi {
			v = unknownV(arg(0).taint || arg(1).taint || arg(2).taint)
		} else {
			v = addV(mulV(arg(0), arg(1)), arg(2))
		}
	case ptx.OpShl:
		if k, ok := arg(1).isConst(); ok && k >= 0 && k < 63 {
			v = scaleV(arg(0), 1<<uint(k))
		} else {
			v = unknownV(arg(0).taint || arg(1).taint)
		}
	case ptx.OpNeg:
		v = scaleV(arg(0), -1)
	case ptx.OpCvt, ptx.OpCvta:
		// Identity under the documented no-32-bit-overflow assumption.
		v = arg(0)
	case ptx.OpSelp:
		v = joinValue(arg(0), arg(1))
		v.taint = v.taint || arg(2).taint
	case ptx.OpAtom:
		// The destination is the old memory value: unknown provenance.
		v = unknownV(false)
	default:
		// Unmodeled op: unknown, but propagate taint from register and
		// special-register inputs so lint sees tid-derived predicates.
		taint := false
		for i := range in.Args {
			if o := &in.Args[i]; o.Kind == ptx.OpndReg || o.Kind == ptx.OpndSreg {
				taint = taint || a.operandValue(st, o).taint
			}
		}
		v = unknownV(taint)
	}
	return a.guarded(st, in, a.slot[in.Dst.Num], v)
}

// Affine holds the per-instruction results of the affine index analysis,
// indexed by flat instruction index.
type Affine struct {
	// addr is the abstract value of a memory instruction's effective
	// address (base register value + static offset); unknown for every
	// other instruction and in unreachable code.
	addr []value
	// guardTaint reports whether a guarded instruction's guard predicate
	// may be tid-derived.
	guardTaint []bool
}

// GuardTainted reports whether instruction i is guarded by a predicate
// that may be derived from tid/laneid.
func (a *Affine) GuardTainted(i int) bool { return a.guardTaint[i] }

// affineSolve is one solve of the affine problem: which instructions it
// evaluates and the registers it tracks.
type affineSolve struct {
	eval []bool  // by instruction: evaluated
	slot []int32 // by register number: its place in a regState, or -1
	n    int     // registers tracked
}

// computeAffine solves the affine problem and records per-instruction
// address values and guard taint. Each transfer records them for its
// block, and a block's last transfer starts from its fixed-point entry
// state (a later change would have queued it again), so what is recorded
// last is the fixed point's: no pass after the solve replays the blocks.
// Unreachable blocks are never transferred and keep unknown addresses.
func computeAffine(c *kernel.CFG) *Affine {
	out := &Affine{addr: make([]value, len(c.Instrs)), guardTaint: make([]bool, len(c.Instrs))}
	a := addressSlice(c)
	SolveForward(c, Problem[regState]{
		Entry: func() regState { return make(regState, a.n) },
		Clone: slices.Clone[regState],
		Join:  joinRegState,
		Transfer: func(b *kernel.Block, in regState) regState {
			st := slices.Clone(in)
			for i := b.Start; i < b.End; i++ {
				a.record(out, st, i, c.Instrs[i])
				if a.eval[i] {
					a.step(st, c.Instrs[i])
				}
			}
			return st
		},
		Equal: equalRegState,
	})
	return out
}

// addressSlice finds what the affine solve evaluates: the instructions
// that define a register an address or a guard depends on. The solve's
// results are addresses and guard taint, and a register's value is read
// only by the definitions of the registers it feeds, so the rest — most
// arithmetic of most kernels — cannot change them, and the registers
// only the rest read need no slot.
func addressSlice(c *kernel.CFG) *affineSolve {
	want := make([]bool, len(c.Kernel.RegTab)) // a result depends on the register
	eval := make([]bool, len(c.Instrs))
	for _, in := range c.Instrs {
		if in.Guard != nil {
			want[in.Guard.Num] = true
		}
		if a, ok := in.AddrOperand(); ok && a.Reg != "" {
			want[a.Num] = true
		}
	}
	// Walking backwards takes a straight-line chain in one pass; a value
	// that flows around a loop takes one more pass per trip.
	for changed := true; changed; {
		changed = false
		for i := len(c.Instrs) - 1; i >= 0; i-- {
			in := c.Instrs[i]
			if eval[i] {
				continue
			}
			in.Defs(func(r int32) { eval[i] = eval[i] || want[r] })
			if !eval[i] {
				continue
			}
			changed = true
			if in.Guard != nil {
				want[in.Guard.Num] = true
			}
			for j := range in.Args {
				if a := &in.Args[j]; a.Reg != "" {
					want[a.Num] = true
				}
			}
		}
	}
	a := &affineSolve{eval: eval, slot: make([]int32, len(want))}
	for r, w := range want {
		a.slot[r] = -1
		if w {
			a.slot[r] = int32(a.n)
			a.n++
		}
	}
	return a
}

// record notes instruction i's guard taint and address value in state st.
func (a *affineSolve) record(out *Affine, st regState, i int, in *ptx.Instr) {
	if in.Guard != nil {
		out.guardTaint[i] = st[a.slot[in.Guard.Num]].taint
	}
	if o, ok := in.AddrOperand(); ok {
		switch {
		case o.Reg != "":
			out.addr[i] = addV(st[a.slot[o.Num]], constV(o.Off))
		case o.Sym != "":
			out.addr[i] = addV(termV(term{kind: termSym, name: o.Sym}, false), constV(o.Off))
		}
	}
}
