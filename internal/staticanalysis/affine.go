package staticanalysis

import (
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

// value is the abstract value of one register.
type value struct {
	affine bool
	taint  bool // may be derived from tid/laneid (over-approx)
	held   bool // in a regState: the register has a value on every path so far
	c      int64
	terms  map[term]int64 // nil or non-empty; coefficients are non-zero
}

func unknownV(taint bool) value { return value{taint: taint} }
func constV(c int64) value      { return value{affine: true, c: c} }

func termV(t term, taint bool) value {
	return value{affine: true, terms: map[term]int64{t: 1}, taint: taint}
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
	if v.affine && v.c == 0 && len(v.terms) == 1 {
		for t, co := range v.terms {
			if co == 1 {
				return t, true
			}
		}
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
	for t, co := range v.terms {
		parts = append(parts, fmt.Sprintf("%d*%s", co, t))
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
	// Term maps are never changed once built, so a sum with a constant
	// shares the other side's.
	switch {
	case len(b.terms) == 0:
		out.terms = a.terms
	case len(a.terms) == 0:
		out.terms = b.terms
	default:
		out.terms = make(map[term]int64, len(a.terms)+len(b.terms))
		for t, co := range a.terms {
			out.terms[t] = co
		}
		for t, co := range b.terms {
			if n := out.terms[t] + co; n != 0 {
				out.terms[t] = n
			} else {
				delete(out.terms, t)
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
	if len(a.terms) > 0 {
		out.terms = make(map[term]int64, len(a.terms))
		for t, co := range a.terms {
			out.terms[t] = co * k
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
	if a.c != b.c || len(a.terms) != len(b.terms) {
		return false
	}
	for t, co := range a.terms {
		if b.terms[t] != co {
			return false
		}
	}
	return true
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

// regState holds each register's abstract value, indexed by its number
// in the kernel's register table. A register that is not held reads as
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

func operandValue(st regState, o *ptx.Operand) value {
	switch o.Kind {
	case ptx.OpndImm:
		return constV(o.Imm)
	case ptx.OpndReg:
		return st[o.Num]
	case ptx.OpndSreg:
		return sregValue(o.Sreg)
	case ptx.OpndSym:
		return termV(term{kind: termSym, name: o.Sym}, false)
	}
	return unknownV(false)
}

// step applies the instruction to the state: the value it assigns to its
// destination, and unknown to every further register a vector load
// writes.
func step(st regState, in *ptx.Instr) {
	if !in.HasDst || in.Dst.Kind != ptx.OpndReg {
		return
	}
	v := evalInstr(st, in)
	in.Defs(func(r int32) {
		if r != in.Dst.Num {
			st[r] = guarded(st, in, r, unknownV(false))
			st[r].held = true
		}
	})
	v.held = true
	st[in.Dst.Num] = v
}

// guarded is the value a register holds after a definition of v under
// the instruction's guard: the old value may survive, and the selected
// value depends on the predicate.
func guarded(st regState, in *ptx.Instr, r int32, v value) value {
	if in.Guard == nil {
		return v
	}
	v = joinValue(st[r], v)
	v.taint = v.taint || st[in.Guard.Num].taint
	return v
}

// evalInstr computes the abstract value the instruction assigns to its
// destination register.
func evalInstr(st regState, in *ptx.Instr) value {
	arg := func(i int) value {
		if i < len(in.Args) {
			return operandValue(st, &in.Args[i])
		}
		return unknownV(false)
	}
	var v value
	switch in.Op {
	case ptx.OpMov:
		v = arg(0)
	case ptx.OpLd:
		if in.Space == ptx.SpaceParam {
			if a, ok := in.AddrOperand(); ok && a.Sym != "" {
				v = termV(term{kind: termParam, name: fmt.Sprintf("%s+%d", a.Sym, a.Off)}, false)
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
		a, b := arg(0), arg(1)
		v = joinValue(a, b)
		v.taint = v.taint || arg(2).taint
	case ptx.OpAtom:
		// The destination is the old memory value: unknown provenance.
		v = unknownV(false)
	default:
		// Unmodeled op: unknown, but propagate taint from register and
		// special-register inputs so lint sees tid-derived predicates.
		taint := false
		for i := range in.Args {
			if a := &in.Args[i]; a.Kind == ptx.OpndReg || a.Kind == ptx.OpndSreg {
				taint = taint || operandValue(st, a).taint
			}
		}
		v = unknownV(taint)
	}
	return guarded(st, in, in.Dst.Num, v)
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

// AddrKnown reports whether the address of memory instruction i has an
// affine symbolic form.
func (a *Affine) AddrKnown(i int) bool { return a.addr[i].affine }

// markInfluence marks the influence region of the conditional branch that
// ends block bi: every block reachable from the branch's successors
// without passing through its reconvergence block (the immediate
// post-dominator, matching the simulator's SIMT stack). Under a varying
// branch only part of the warp runs those blocks.
func markInfluence(c *kernel.CFG, bi int, mark []bool) {
	stop := -1
	if r := c.ReconvergencePC(c.Blocks[bi].End - 1); r < len(c.Instrs) {
		stop = c.BlockOf[r]
	}
	seen := make([]bool, len(c.Blocks))
	var stack []int
	for _, s := range c.Blocks[bi].Succs {
		if s < len(c.Blocks) && s != stop {
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		mark[b] = true
		for _, s := range c.Blocks[b].Succs {
			if s < len(c.Blocks) && s != stop && !seen[s] {
				stack = append(stack, s)
			}
		}
	}
}

// computeAffine solves the affine problem and records per-instruction
// address values and guard taint. Each transfer records them for its
// block, and a block's last transfer starts from its fixed-point entry
// state (a later change would have queued it again), so what is recorded
// last is the fixed point's: no pass after the solve replays the blocks.
// Unreachable blocks are never transferred and keep unknown addresses.
func computeAffine(c *kernel.CFG) *Affine {
	out := &Affine{addr: make([]value, len(c.Instrs)), guardTaint: make([]bool, len(c.Instrs))}
	nregs := len(c.Kernel.RegTab)
	eval := addressSlice(c)
	SolveForward(c, Problem[regState]{
		Entry: func() regState { return make(regState, nregs) },
		Clone: slices.Clone[regState],
		Join:  joinRegState,
		Transfer: func(b *kernel.Block, in regState) regState {
			st := slices.Clone(in)
			for i := b.Start; i < b.End; i++ {
				out.record(st, i, c.Instrs[i])
				if eval[i] {
					step(st, c.Instrs[i])
				}
			}
			return st
		},
		Equal: equalRegState,
	})
	return out
}

// addressSlice reports which instructions the affine solve evaluates:
// those that define a register an address or a guard depends on. The
// solve's results are addresses and guard taint, and a register's value
// is read only by the definitions of the registers it feeds, so the rest
// — most arithmetic of most kernels — cannot change them.
func addressSlice(c *kernel.CFG) []bool {
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
	return eval
}

// record notes instruction i's guard taint and address value in state st.
func (a *Affine) record(st regState, i int, in *ptx.Instr) {
	if in.Guard != nil {
		a.guardTaint[i] = st[in.Guard.Num].taint
	}
	if o, ok := in.AddrOperand(); ok {
		switch {
		case o.Reg != "":
			a.addr[i] = addV(st[o.Num], constV(o.Off))
		case o.Sym != "":
			a.addr[i] = addV(termV(term{kind: termSym, name: o.Sym}, false), constV(o.Off))
		}
	}
}
