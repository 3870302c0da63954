package staticanalysis

import (
	"fmt"
	"maps"
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
	c      int64
	terms  map[term]int64 // nil or non-empty; coefficients are non-zero
	taint  bool           // may be derived from tid/laneid (over-approx)
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
	if len(a.terms)+len(b.terms) > 0 {
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

// regState maps register name to abstract value. Missing = unknown.
// Values are immutable, so maps.Clone is a copy of the state.
type regState map[string]value

func joinRegState(a, b regState) regState {
	out := make(regState, len(a))
	for r, va := range a {
		if vb, ok := b[r]; ok {
			if v := joinValue(va, vb); v.affine || v.taint {
				out[r] = v
			}
		}
	}
	return out
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

func operandValue(st regState, o ptx.Operand) value {
	switch o.Kind {
	case ptx.OpndImm:
		return constV(o.Imm)
	case ptx.OpndReg:
		if v, ok := st[o.Reg]; ok {
			return v
		}
		return unknownV(false)
	case ptx.OpndSreg:
		return sregValue(o.Sreg)
	case ptx.OpndSym:
		return termV(term{kind: termSym, name: o.Sym}, false)
	}
	return unknownV(false)
}

// evalInstr computes the abstract value the instruction assigns to its
// destination register, or ok=false when it defines none.
func evalInstr(st regState, in *ptx.Instr) (value, bool) {
	if !in.HasDst || in.Dst.Kind != ptx.OpndReg {
		return value{}, false
	}
	arg := func(i int) value {
		if i < len(in.Args) {
			return operandValue(st, in.Args[i])
		}
		return unknownV(false)
	}
	var v value
	switch in.Op {
	case ptx.OpMov:
		v = arg(0)
	case ptx.OpLd:
		if in.Space == ptx.SpaceParam {
			if a, ok := in.AddrOperand(); ok && a.BaseSym != "" {
				v = termV(term{kind: termParam, name: fmt.Sprintf("%s+%d", a.BaseSym, a.Off)}, false)
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
		for _, a := range in.Args {
			if a.Kind == ptx.OpndReg || a.Kind == ptx.OpndSreg {
				taint = taint || operandValue(st, a).taint
			}
		}
		v = unknownV(taint)
	}
	if in.Guard != nil {
		// Guarded definition: the old value may survive, and the selected
		// value depends on the predicate.
		old := unknownV(false)
		if o, ok := st[in.Dst.Reg]; ok {
			old = o
		}
		v = joinValue(old, v)
		if g, ok := st[in.Guard.Reg]; ok {
			v.taint = v.taint || g.taint
		}
	}
	return v, true
}

// Affine holds the per-instruction results of the affine index analysis.
type Affine struct {
	// addr maps a memory instruction index to the abstract value of its
	// effective address (base register value + static offset). Missing
	// entries mean unknown (e.g. unreachable code).
	addr map[int]value
	// guardTaint maps a guarded instruction index to whether its guard
	// predicate may be tid-derived.
	guardTaint map[int]bool
}

// GuardTainted reports whether instruction i is guarded by a predicate
// that may be derived from tid/laneid.
func (a *Affine) GuardTainted(i int) bool { return a.guardTaint[i] }

// AddrKnown reports whether the address of memory instruction i has an
// affine symbolic form.
func (a *Affine) AddrKnown(i int) bool {
	v, ok := a.addr[i]
	return ok && v.affine
}

// ---------------------------------------------------------------------------
// Warp-uniformity analysis.
//
// A register is *warp-uniform* at a program point when every populated lane
// of a warp provably holds the same value there. The simulator uses these
// facts to execute an instruction once per warp and broadcast the result
// (scalarization), so the analysis must be sound under divergence:
//
//   - A definition is uniform only if all of its inputs are uniform AND the
//     defining block is not under divergent control. Inside the influence
//     region of a varying branch only a subset of the warp executes, so even
//     a "uniform" right-hand side leaves inactive lanes holding stale
//     values that mix back in at reconvergence.
//   - A guarded definition additionally requires a uniform guard and a
//     uniform old value (lanes whose predicate is false keep the old value).
//   - Joins intersect: a register is uniform at a block entry only if it is
//     uniform on every reached predecessor. For a *uniform* branch this is
//     exact — the whole warp took the same path — and for a varying branch
//     the defs on either path were already demoted by the region rule.
//
// The influence region of a varying branch is every block reachable from
// the branch's successors without passing through its reconvergence block
// (the immediate post-dominator, matching the simulator's SIMT stack).
// Region marking and the dataflow solve are iterated to a joint fixed
// point: demoting registers can make more branch predicates varying, which
// can only grow the marked set, so the iteration terminates.
//
// Loads at a warp-uniform global/shared address are treated as uniform:
// the simulator executes a warp instruction atomically (no store from
// another warp can interleave between the lanes' loads), so all lanes
// observe one value. Local-space loads are lane-private and never uniform;
// atomics serialize lane RMWs and their destination (the pre-op value) is
// never uniform. This load rule is specific to the simulator's
// warp-synchronous execution; clients that need architecture-portable
// facts must not rely on it.

// uniState maps a register/predicate name to "warp-uniform here". Missing
// means varying; a present entry is always true.
type uniState map[string]bool

// uniformSreg classifies special registers: anything that varies across the
// lanes of one warp is non-uniform. %warpid and %ctaid are constant within
// a warp even though they vary across warps.
func uniformSreg(s ptx.Sreg) bool {
	switch s {
	case ptx.SregTidX, ptx.SregTidY, ptx.SregTidZ, ptx.SregLaneid:
		return false
	}
	return true
}

func uniformOperand(st uniState, o ptx.Operand) bool {
	switch o.Kind {
	case ptx.OpndImm, ptx.OpndFImm, ptx.OpndSym, ptx.OpndLabel:
		return true
	case ptx.OpndSreg:
		return uniformSreg(o.Sreg)
	case ptx.OpndReg:
		return st[o.Reg]
	case ptx.OpndMem:
		if o.BaseReg != "" {
			return st[o.BaseReg]
		}
		return true // symbol-based address: one location for the warp
	}
	return false
}

// defUniform reports whether the value an instruction assigns to its
// destination is warp-uniform, assuming converged control.
func defUniform(st uniState, in *ptx.Instr) bool {
	switch in.Op {
	case ptx.OpAtom, ptx.OpRed:
		// The destination is the pre-RMW memory value; lanes serialize, so
		// each observes a different intermediate.
		return false
	case ptx.OpLd:
		if in.Space == ptx.SpaceParam {
			return true
		}
		if in.Space == ptx.SpaceLocal {
			return false // lane-private backing store
		}
		a, ok := in.AddrOperand()
		return ok && uniformOperand(st, a)
	}
	for _, a := range in.Args {
		if !uniformOperand(st, a) {
			return false
		}
	}
	return true
}

// uniStep applies one instruction to a uniformity state. div marks the
// containing block as being under divergent control.
func uniStep(st uniState, in *ptx.Instr, div bool) {
	if in.Op == ptx.OpLd && in.Vec > 1 {
		// ld.vN defines dst plus the Vec-1 leading args: demote them all.
		if in.HasDst && in.Dst.Kind == ptx.OpndReg {
			delete(st, in.Dst.Reg)
		}
		for i := 0; i < in.Vec-1 && i < len(in.Args); i++ {
			if in.Args[i].Kind == ptx.OpndReg {
				delete(st, in.Args[i].Reg)
			}
		}
		return
	}
	if !in.HasDst || in.Dst.Kind != ptx.OpndReg {
		return
	}
	u := !div && defUniform(st, in)
	if in.Guard != nil {
		u = u && st[in.Guard.Reg] && st[in.Dst.Reg]
	}
	if u {
		st[in.Dst.Reg] = true
	} else {
		delete(st, in.Dst.Reg)
	}
}

func uniProblem(c *kernel.CFG, div []bool) Problem[uniState] {
	return Problem[uniState]{
		Entry: func() uniState { return uniState{} },
		Clone: maps.Clone[uniState],
		Join: func(a, b uniState) uniState {
			out := make(uniState)
			for r := range a {
				if b[r] {
					out[r] = true
				}
			}
			return out
		},
		Transfer: func(b *kernel.Block, in uniState) uniState {
			st := maps.Clone(in)
			for i := b.Start; i < b.End; i++ {
				uniStep(st, c.Instrs[i], div[b.Index])
			}
			return st
		},
		Equal: maps.Equal[uniState, uniState],
	}
}

// markInfluence marks every block reachable from the branch's successors
// without passing through its reconvergence block. Reports whether any
// block was newly marked.
func markInfluence(c *kernel.CFG, bi int, mark []bool) bool {
	stop := -1
	if r := c.ReconvergencePC(c.Blocks[bi].End - 1); r < len(c.Instrs) {
		stop = c.BlockOf[r]
	}
	changed := false
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
		if !mark[b] {
			mark[b] = true
			changed = true
		}
		for _, s := range c.Blocks[b].Succs {
			if s < len(c.Blocks) && s != stop && !seen[s] {
				stack = append(stack, s)
			}
		}
	}
	return changed
}

// Uniformity holds per-instruction warp-uniformity facts for one kernel.
type Uniformity struct {
	inputs    []bool // instruction index -> all source operands uniform
	divergent []bool // block index -> under divergent control
	c         *kernel.CFG
	res       *FlowResult[uniState]
}

// InputsUniform reports whether every source operand of instruction i is
// warp-uniform, i.e. the instruction computes the same result on every
// active lane and may be executed once per warp with a broadcast store.
func (u *Uniformity) InputsUniform(i int) bool {
	return i >= 0 && i < len(u.inputs) && u.inputs[i]
}

// Divergent reports whether instruction i sits under divergent control
// (inside the influence region of a varying branch).
func (u *Uniformity) Divergent(i int) bool {
	if i < 0 || i >= len(u.c.BlockOf) {
		return false
	}
	return u.divergent[u.c.BlockOf[i]]
}

// RegUniform reports whether register reg is warp-uniform immediately
// before instruction i executes.
func (u *Uniformity) RegUniform(i int, reg string) bool {
	if i < 0 || i >= len(u.c.BlockOf) {
		return false
	}
	bi := u.c.BlockOf[i]
	if !u.res.Reached[bi] {
		return false
	}
	st := maps.Clone(u.res.In[bi])
	for j := u.c.Blocks[bi].Start; j < i; j++ {
		uniStep(st, u.c.Instrs[j], u.divergent[bi])
	}
	return st[reg]
}

// ComputeUniformity runs the warp-uniformity analysis on one kernel.
func ComputeUniformity(c *kernel.CFG) *Uniformity {
	div := make([]bool, len(c.Blocks))
	var res *FlowResult[uniState]
	for {
		res = SolveForward(c, uniProblem(c, div))
		changed := false
		for bi, b := range c.Blocks {
			if !res.Reached[bi] || b.End <= b.Start {
				continue
			}
			last := c.Instrs[b.End-1]
			if last.Op != ptx.OpBra || last.Guard == nil {
				continue
			}
			st := maps.Clone(res.In[bi])
			for i := b.Start; i < b.End-1; i++ {
				uniStep(st, c.Instrs[i], div[bi])
			}
			if st[last.Guard.Reg] {
				continue // whole warp takes the same direction
			}
			if markInfluence(c, bi, div) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	u := &Uniformity{
		inputs:    make([]bool, len(c.Instrs)),
		divergent: div,
		c:         c,
		res:       res,
	}
	for bi, b := range c.Blocks {
		if !res.Reached[bi] {
			continue
		}
		st := maps.Clone(res.In[bi])
		for i := b.Start; i < b.End; i++ {
			in := c.Instrs[i]
			all := true
			for _, a := range in.Args {
				if !uniformOperand(st, a) {
					all = false
					break
				}
			}
			u.inputs[i] = all
			uniStep(st, in, div[bi])
		}
	}
	return u
}

// computeAffine solves the affine problem and records per-instruction
// address values and guard taint.
func computeAffine(c *kernel.CFG) *Affine {
	res := SolveForward(c, Problem[regState]{
		Entry: func() regState { return regState{} },
		Clone: maps.Clone[regState],
		Join:  joinRegState,
		Transfer: func(b *kernel.Block, in regState) regState {
			st := maps.Clone(in)
			for i := b.Start; i < b.End; i++ {
				if v, ok := evalInstr(st, c.Instrs[i]); ok {
					st[c.Instrs[i].Dst.Reg] = v
				}
			}
			return st
		},
		Equal: func(a, b regState) bool { return maps.EqualFunc(a, b, equalValue) },
	})
	out := &Affine{addr: make(map[int]value), guardTaint: make(map[int]bool)}
	for bi, b := range c.Blocks {
		if !res.Reached[bi] {
			continue
		}
		st := maps.Clone(res.In[bi])
		for i := b.Start; i < b.End; i++ {
			in := c.Instrs[i]
			if in.Guard != nil {
				if g, ok := st[in.Guard.Reg]; ok {
					out.guardTaint[i] = g.taint
				}
			}
			if a, ok := in.AddrOperand(); ok {
				switch {
				case a.BaseReg != "":
					base := unknownV(false)
					if v, ok := st[a.BaseReg]; ok {
						base = v
					}
					out.addr[i] = addV(base, constV(a.Off))
				case a.BaseSym != "":
					out.addr[i] = addV(termV(term{kind: termSym, name: a.BaseSym}, false), constV(a.Off))
				}
			}
			if v, ok := evalInstr(st, in); ok {
				st[in.Dst.Reg] = v
			}
		}
	}
	return out
}
