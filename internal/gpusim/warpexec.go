package gpusim

import (
	"fmt"
	"math"
	"math/bits"

	"barracuda/internal/ptx"
)

// Warp-major execution: every compiled instruction carries a warpHandler
// selected once in Module.compile. The hot loop in stepWarp then performs a
// single indirect call per warp-instruction instead of re-running the
// opcode switch and operand resolution once per lane. Handlers bake the
// per-instruction invariants (opcode, type width, signedness, operand
// shapes, constants) into closures at compile time.
//
// Both warp files are laid out for that loop. A general register is 32
// lanes in a row (warpState.row), so a handler walks its operands as
// slices; a predicate register is one lane mask, so guards, branches and
// broadcasts are mask arithmetic. A handler has two walks over the same
// per-lane body: a straight loop over lanes 0..w.lanes-1 when the whole
// warp is active (exec == w.fullMask, which is every instruction of most
// programs), and a bit-iteration of exec otherwise. A lane's result is a
// function of that lane's inputs alone, never of which walk ran it.
//
// The handlers are the only definition of each opcode; the 32-bit integer
// ops also have a typed loop (makeInt32) that a property test holds to the
// generic handler's bits. Their contract is pinned by goldens recorded from
// the per-lane interpreter they replaced:
// the bug-suite and litmus equivalence tests compare report digests, race
// sets, Stats counters and launch-error text against
// bugsuite/testdata/warpvec_lanemajor.json and
// detector/testdata/warpvec_litmus_lanemajor.json bit for bit.

// warpHandler executes one compiled instruction for all active lanes.
type warpHandler func(e *engine, w *warpState, ci *cInstr, exec uint32) error

// each calls one for every lane of exec, in lane order: the one place the
// two walks are written. It is small enough to be inlined, func literal
// and all, so a handler's body sits in both loops with no call between.
func (w *warpState) each(exec uint32, one func(lane int)) {
	if exec == w.fullMask {
		for lane := 0; lane < w.lanes; lane++ {
			one(lane)
		}
		return
	}
	for m := exec; m != 0; m &= m - 1 {
		one(bits.TrailingZeros32(m))
	}
}

// eachErr is each for a body that can fault: the first lane that does ends
// the instruction — no later lane runs — and is named in the error.
func (w *warpState) eachErr(exec uint32, one func(lane int) error) (err error) {
	w.each(exec, func(lane int) {
		if err != nil {
			return
		}
		if e := one(lane); e != nil {
			err = fmt.Errorf("lane %d: %v", lane, e)
		}
	})
	return err
}

// splat stores v in the lanes of exec of a lane-indexed row.
func (w *warpState) splat(row []uint64, exec uint32, v uint64) {
	w.each(exec, func(l int) { row[l] = v })
}

// execLaneLoop is the handler of the shapes execLane implements per lane
// (vector memory ops, atomics, float neg).
func execLaneLoop(e *engine, w *warpState, ci *cInstr, exec uint32) error {
	return w.eachErr(exec, func(lane int) error { return e.execLane(w, ci, lane) })
}

// execUniform executes a statically warp-uniform instruction once (its
// handler on a one-lane mask, the first active lane) and broadcasts the
// destination to the remaining active lanes. Soundness comes from the
// staticanalysis warp-uniformity facts: every input holds the same value
// in every lane, and the ops admitted by scalarizableOp are deterministic,
// so running one lane computes what all lanes would.
func (e *engine) execUniform(w *warpState, ci *cInstr, exec uint32) error {
	first := bits.TrailingZeros32(exec)
	if err := ci.fn(e, w, ci, 1<<uint(first)); err != nil {
		return err
	}
	rest := exec &^ (1 << uint(first))
	if rest == 0 {
		return nil
	}
	d := ci.dst.reg
	switch {
	case !ci.dst.isPred:
		w.splat(w.row(d), exec, e.reg(w, first, d))
	case e.pred(w, first, d):
		w.preds[d] |= rest
	default:
		w.preds[d] &^= rest
	}
	return nil
}

// scalarizableOp reports whether an opcode may be executed once per warp
// when its inputs are warp-uniform: deterministic, side-effect-free on
// memory (or a load from a single warp-shared location), with a single
// destination. Stores, atomics and lane-private local memory are excluded.
// _log is included only so execLog can compute the (uniform) address once;
// stepWarp routes it before the execUniform dispatch.
func scalarizableOp(ci *cInstr) bool {
	switch ci.op {
	case ptx.OpMov, ptx.OpCvta, ptx.OpCvt, ptx.OpNot, ptx.OpNeg,
		ptx.OpAdd, ptx.OpSub, ptx.OpMul, ptx.OpMad, ptx.OpDiv, ptx.OpRem,
		ptx.OpMin, ptx.OpMax, ptx.OpAnd, ptx.OpOr, ptx.OpXor,
		ptx.OpShl, ptx.OpShr, ptx.OpSetp, ptx.OpSelp:
		return ci.hasDst
	case ptx.OpLd:
		return ci.hasDst && ci.in.Vec <= 1 && ci.in.Space != ptx.SpaceLocal
	case ptx.OpLog:
		return true
	}
	return false
}

// fetchFn reads one operand for a lane.
type fetchFn func(e *engine, w *warpState, lane int) uint64

// fetcher compiles an operand into either a constant (isConst=true) or a
// fetch function, mirroring engine.val exactly.
func fetcher(o cOperand) (fn fetchFn, c uint64, isConst bool) {
	switch o.kind {
	case ptx.OpndImm:
		return nil, o.imm, true
	case ptx.OpndFImm:
		return nil, math.Float64bits(o.f), true
	case ptx.OpndSym:
		return nil, o.symAddr, true
	case ptx.OpndReg:
		if o.isPred {
			p := o.reg
			return func(e *engine, w *warpState, lane int) uint64 {
				return uint64(w.preds[p] >> uint(lane) & 1)
			}, 0, false
		}
		r0 := o.reg * WarpSize
		return func(e *engine, w *warpState, lane int) uint64 {
			return w.regs[r0+lane]
		}, 0, false
	case ptx.OpndSreg:
		s := o.sreg
		return func(e *engine, w *warpState, lane int) uint64 {
			return e.sregVal(w, lane, s)
		}, 0, false
	}
	return func(e *engine, w *warpState, lane int) uint64 { return 0 }, 0, false
}

// selectHandler picks the warp-major handler for a compiled instruction.
// checkShape has already rejected under-arity instructions, so the makers
// index their operands freely.
func selectHandler(ci *cInstr, imms immRows) warpHandler {
	t := ci.in.Type
	switch ci.op {
	case ptx.OpMov, ptx.OpCvta:
		return makeMov(ci)
	case ptx.OpLd:
		return makeLd(ci)
	case ptx.OpSt:
		if ci.in.Vec > 1 {
			return execLaneLoop
		}
		return makeSt(ci)
	case ptx.OpSetp:
		return makeSetp(ci)
	case ptx.OpSelp:
		return makeSelp(ci)
	case ptx.OpCvt:
		return makeCvt(ci)
	case ptx.OpNot:
		size := ci.size
		return makeIntUn(ci, func(v uint64) uint64 { return truncTo(^v, size) })
	case ptx.OpNeg:
		if t.Float() {
			return execLaneLoop
		}
		size := ci.size
		return makeIntUn(ci, func(v uint64) uint64 { return truncTo(-v, size) })
	case ptx.OpMad:
		if t.Float() {
			return makeFloatArith(ci)
		}
		if fn := makeInt32(ci, imms); fn != nil {
			return fn
		}
		return makeIntTri(ci, intMadOp(ci))
	case ptx.OpAdd, ptx.OpSub, ptx.OpMul, ptx.OpDiv, ptx.OpRem, ptx.OpMin, ptx.OpMax,
		ptx.OpAnd, ptx.OpOr, ptx.OpXor, ptx.OpShl, ptx.OpShr:
		if t.Float() {
			return makeFloatArith(ci)
		}
		if fn := makeInt32(ci, imms); fn != nil {
			return fn
		}
		return makeIntBin(ci, intBinOp(ci))
	}
	return execLaneLoop
}

// makeMov handles mov/cvta: constant broadcast, register copy, or the
// generic per-lane form for sreg/predicate sources.
func makeMov(ci *cInstr) warpHandler {
	t := ci.in.Type
	d := ci.dst.reg
	a := ci.args[0]
	if v, ok := constMovBits(a, t); ok {
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			w.splat(w.row(d), exec, v)
			return nil
		}
	}
	if !t.Float() && a.kind == ptx.OpndReg && !a.isPred {
		s := a.reg
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, src := w.row(d), w.row(s)
			w.each(exec, func(l int) { dst[l] = src[l] })
			return nil
		}
	}
	if t.Float() {
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst := w.row(d)
			w.each(exec, func(l int) { dst[l] = fbits(e.fval(w, l, &ci.args[0], t), t) })
			return nil
		}
	}
	return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
		dst := w.row(d)
		w.each(exec, func(l int) { dst[l] = e.val(w, l, &ci.args[0]) })
		return nil
	}
}

// constMovBits evaluates a constant mov source to the bits stored: float
// types re-encode through fval/fbits, integer types store the raw operand.
func constMovBits(a cOperand, t ptx.Type) (uint64, bool) {
	switch a.kind {
	case ptx.OpndImm, ptx.OpndFImm:
		if t.Float() {
			return fbits(a.f, t), true
		}
		if a.kind == ptx.OpndFImm {
			return math.Float64bits(a.f), true
		}
		return a.imm, true
	case ptx.OpndSym:
		if t.Float() {
			return fbits(bitsToF(a.symAddr, t), t), true
		}
		return a.symAddr, true
	}
	return 0, false
}

// makeLd handles scalar loads with the space decision hoisted to compile
// time. Vector loads go through execLane.
func makeLd(ci *cInstr) warpHandler {
	in := ci.in
	if in.Vec > 1 {
		return execLaneLoop
	}
	d := ci.dst.reg
	if in.Space == ptx.SpaceParam {
		a := ci.args[0]
		if a.symK != symParam {
			return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
				return fmt.Errorf("lane %d: ld.param with non-parameter operand",
					bits.TrailingZeros32(exec))
			}
		}
		idx := a.symAddr
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			w.splat(w.row(d), exec, e.cfg.Args[idx])
			return nil
		}
	}
	size := ci.size
	signed := in.Type.Signed()
	space := in.Space
	return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
		dst, a0 := w.row(d), &ci.args[0]
		return w.eachErr(exec, func(l int) error {
			v, err := e.loadSpace(w, l, space, e.laneAddr(w, l, a0), size)
			if err != nil {
				return err
			}
			if signed {
				v = uint64(signExt(v, size))
			}
			dst[l] = v
			return nil
		})
	}
}

// makeSt handles scalar stores; the value operand's constant forms
// (including the float-immediate re-encoding quirk) are folded at compile
// time.
func makeSt(ci *cInstr) warpHandler {
	in := ci.in
	t := in.Type
	size := ci.size
	space := in.Space
	v1 := ci.args[1]
	var cval uint64
	isConst := false
	if t.Float() && v1.kind == ptx.OpndFImm {
		cval, isConst = truncTo(fbits(v1.f, t), size), true
	} else if _, c, k := fetcher(v1); k {
		cval, isConst = truncTo(c, size), true
	}
	fv, _, _ := fetcher(v1)
	return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
		a0 := &ci.args[0]
		return w.eachErr(exec, func(l int) error {
			v := cval
			if !isConst {
				v = truncTo(fv(e, w, l), size)
			}
			return e.storeSpace(w, l, space, e.laneAddr(w, l, a0), size, v)
		})
	}
}

// makeSetp builds the destination predicate's lane mask: the lanes of exec
// whose comparison holds are set, its other lanes cleared, the rest kept.
func makeSetp(ci *cInstr) warpHandler {
	in := ci.in
	t := in.Type
	d := ci.dst.reg
	if t.Float() {
		cmp := in.Cmp
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			var hold uint32
			w.each(exec, func(l int) {
				if cmpFloat(cmp, e.fval(w, l, &ci.args[0], t), e.fval(w, l, &ci.args[1], t)) {
					hold |= 1 << uint(l)
				}
			})
			w.preds[d] = w.preds[d]&^exec | hold
			return nil
		}
	}
	cf := intCmpFunc(in.Cmp, t, ci.size)
	f0, c0, k0 := fetcher(ci.args[0])
	f1, c1, k1 := fetcher(ci.args[1])
	return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
		var hold uint32
		w.each(exec, func(l int) {
			a, b := c0, c1
			if !k0 {
				a = f0(e, w, l)
			}
			if !k1 {
				b = f1(e, w, l)
			}
			if cf(a, b) {
				hold |= 1 << uint(l)
			}
		})
		w.preds[d] = w.preds[d]&^exec | hold
		return nil
	}
}

// intCmpFunc bakes the comparison op, signedness and width into a closure:
// inputs are truncated to the operand width, then sign-extended if signed.
func intCmpFunc(op ptx.CmpOp, t ptx.Type, size int) func(a, b uint64) bool {
	if t.Signed() {
		cmp := func(x, y int64) bool { return false }
		switch op {
		case ptx.CmpEQ:
			cmp = func(x, y int64) bool { return x == y }
		case ptx.CmpNE:
			cmp = func(x, y int64) bool { return x != y }
		case ptx.CmpLT:
			cmp = func(x, y int64) bool { return x < y }
		case ptx.CmpLE:
			cmp = func(x, y int64) bool { return x <= y }
		case ptx.CmpGT:
			cmp = func(x, y int64) bool { return x > y }
		case ptx.CmpGE:
			cmp = func(x, y int64) bool { return x >= y }
		}
		return func(a, b uint64) bool {
			return cmp(signExt(truncTo(a, size), size), signExt(truncTo(b, size), size))
		}
	}
	cmp := func(x, y uint64) bool { return false }
	switch op {
	case ptx.CmpEQ:
		cmp = func(x, y uint64) bool { return x == y }
	case ptx.CmpNE:
		cmp = func(x, y uint64) bool { return x != y }
	case ptx.CmpLT:
		cmp = func(x, y uint64) bool { return x < y }
	case ptx.CmpLE:
		cmp = func(x, y uint64) bool { return x <= y }
	case ptx.CmpGT:
		cmp = func(x, y uint64) bool { return x > y }
	case ptx.CmpGE:
		cmp = func(x, y uint64) bool { return x >= y }
	}
	return func(a, b uint64) bool { return cmp(truncTo(a, size), truncTo(b, size)) }
}

func makeSelp(ci *cInstr) warpHandler {
	size := ci.size
	d := ci.dst.reg
	cond := ci.args[2]
	f0, c0, k0 := fetcher(ci.args[0])
	f1, c1, k1 := fetcher(ci.args[1])
	pick := func(e *engine, w *warpState, lane int, take bool) uint64 {
		if take {
			if k0 {
				return c0
			}
			return f0(e, w, lane)
		}
		if k1 {
			return c1
		}
		return f1(e, w, lane)
	}
	if cond.isPred {
		p := cond.reg
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, take := w.row(d), w.preds[p]
			w.each(exec, func(l int) { dst[l] = truncTo(pick(e, w, l, take>>uint(l)&1 != 0), size) })
			return nil
		}
	}
	fc, cc, kc := fetcher(cond)
	return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
		dst := w.row(d)
		w.each(exec, func(l int) {
			cv := cc
			if !kc {
				cv = fc(e, w, l)
			}
			dst[l] = truncTo(pick(e, w, l, cv != 0), size)
		})
		return nil
	}
}

func makeCvt(ci *cInstr) warpHandler {
	cf := cvtFunc(ci.in.Type, ci.in.Src)
	d := ci.dst.reg
	f0, c0, k0 := fetcher(ci.args[0])
	return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
		dst := w.row(d)
		w.each(exec, func(l int) {
			v := c0
			if !k0 {
				v = f0(e, w, l)
			}
			dst[l] = cf(v)
		})
		return nil
	}
}

// cvtFunc bakes cvt.<dtype>.<stype>'s four-way type dispatch into a closure.
func cvtFunc(dt, st ptx.Type) func(v uint64) uint64 {
	dsz, ssz := dt.Size(), st.Size()
	switch {
	case dt.Float() && st.Float():
		return func(v uint64) uint64 { return fbits(bitsToF(v, st), dt) }
	case dt.Float():
		if st.Signed() {
			return func(v uint64) uint64 { return fbits(float64(signExt(v, ssz)), dt) }
		}
		return func(v uint64) uint64 { return fbits(float64(truncTo(v, ssz)), dt) }
	case st.Float():
		return func(v uint64) uint64 { return truncTo(uint64(int64(bitsToF(v, st))), dsz) }
	default:
		if st.Signed() {
			return func(v uint64) uint64 { return truncTo(uint64(signExt(v, ssz)), dsz) }
		}
		return func(v uint64) uint64 { return truncTo(truncTo(v, ssz), dsz) }
	}
}

func makeIntUn(ci *cInstr, sf func(v uint64) uint64) warpHandler {
	d := ci.dst.reg
	a := ci.args[0]
	if a.kind == ptx.OpndReg && !a.isPred {
		s := a.reg
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, src := w.row(d), w.row(s)
			w.each(exec, func(l int) { dst[l] = sf(src[l]) })
			return nil
		}
	}
	f0, c0, k0 := fetcher(a)
	return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
		dst := w.row(d)
		w.each(exec, func(l int) {
			v := c0
			if !k0 {
				v = f0(e, w, l)
			}
			dst[l] = sf(v)
		})
		return nil
	}
}

// immRows holds one constant row per distinct immediate of a kernel: the
// immediate in every lane, so a typed handler reads a reg,imm shape the way
// it reads reg,reg and each op has one body. A kernel has a handful of
// distinct immediates, so the rows stay cache-resident across its warps.
type immRows map[uint64]*[WarpSize]uint64

func (m immRows) row(v uint64) *[WarpSize]uint64 {
	r := m[v]
	if r == nil {
		r = new([WarpSize]uint64)
		for l := range r {
			r[l] = v
		}
		m[v] = r
	}
	return r
}

// laneRow is one input of a typed handler: a general register's row of the
// warp's file, or an immediate's constant row.
type laneRow struct {
	reg int
	imm *[WarpSize]uint64 // nil for a register
}

func (s laneRow) of(w *warpState) []uint64 {
	if s.imm != nil {
		return s.imm[:]
	}
	return w.row(s.reg)
}

// makeInt32 is the typed handler of the 32-bit integer ops nearly every
// kernel is made of — add sub mul.lo mad.lo and or xor shl shr min max at
// .u32/.s32/.b32 with general-register and immediate inputs: the op is
// written on uint32 (int32 where the sign matters) in the lane loop itself,
// so a lane costs no call and no truncTo. Go's shifts already have PTX's
// out-of-range behaviour (a count >= 32 shifts everything out, sign-filling
// for a signed shr). It returns nil for every other width, type and operand
// kind; those keep makeIntBin/makeIntTri over intBinOp/intMadOp, which also
// define what the bodies below must compute (TestTypedIntOpsMatchGeneric).
func makeInt32(ci *cInstr, imms immRows) warpHandler {
	in := ci.in
	if ci.size != 4 || in.Type.Float() || in.Wide || in.Hi {
		return nil
	}
	var src [3]laneRow
	n := 2
	if ci.op == ptx.OpMad {
		n = 3
	}
	for i, a := range ci.args[:n] {
		switch {
		case a.kind == ptx.OpndReg && !a.isPred:
			src[i].reg = a.reg
		case a.kind == ptx.OpndImm:
			src[i].imm = imms.row(a.imm)
		default:
			return nil
		}
	}
	d, s0, s1, s2 := ci.dst.reg, src[0], src[1], src[2]
	signed := in.Type.Signed()
	switch ci.op {
	case ptx.OpAdd:
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a, b := w.row(d), s0.of(w), s1.of(w)
			w.each(exec, func(l int) { dst[l] = uint64(uint32(a[l]) + uint32(b[l])) })
			return nil
		}
	case ptx.OpSub:
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a, b := w.row(d), s0.of(w), s1.of(w)
			w.each(exec, func(l int) { dst[l] = uint64(uint32(a[l]) - uint32(b[l])) })
			return nil
		}
	case ptx.OpMul:
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a, b := w.row(d), s0.of(w), s1.of(w)
			w.each(exec, func(l int) { dst[l] = uint64(uint32(a[l]) * uint32(b[l])) })
			return nil
		}
	case ptx.OpMad:
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a, b, c := w.row(d), s0.of(w), s1.of(w), s2.of(w)
			w.each(exec, func(l int) { dst[l] = uint64(uint32(a[l])*uint32(b[l]) + uint32(c[l])) })
			return nil
		}
	case ptx.OpAnd:
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a, b := w.row(d), s0.of(w), s1.of(w)
			w.each(exec, func(l int) { dst[l] = uint64(uint32(a[l] & b[l])) })
			return nil
		}
	case ptx.OpOr:
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a, b := w.row(d), s0.of(w), s1.of(w)
			w.each(exec, func(l int) { dst[l] = uint64(uint32(a[l] | b[l])) })
			return nil
		}
	case ptx.OpXor:
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a, b := w.row(d), s0.of(w), s1.of(w)
			w.each(exec, func(l int) { dst[l] = uint64(uint32(a[l] ^ b[l])) })
			return nil
		}
	case ptx.OpShl:
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a, b := w.row(d), s0.of(w), s1.of(w)
			w.each(exec, func(l int) { dst[l] = uint64(uint32(a[l]) << uint32(b[l])) })
			return nil
		}
	case ptx.OpShr:
		if signed {
			return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
				dst, a, b := w.row(d), s0.of(w), s1.of(w)
				w.each(exec, func(l int) { dst[l] = uint64(uint32(int32(a[l]) >> uint32(b[l]))) })
				return nil
			}
		}
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a, b := w.row(d), s0.of(w), s1.of(w)
			w.each(exec, func(l int) { dst[l] = uint64(uint32(a[l]) >> uint32(b[l])) })
			return nil
		}
	case ptx.OpMin:
		if signed {
			return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
				dst, a, b := w.row(d), s0.of(w), s1.of(w)
				w.each(exec, func(l int) { dst[l] = uint64(uint32(min(int32(a[l]), int32(b[l])))) })
				return nil
			}
		}
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a, b := w.row(d), s0.of(w), s1.of(w)
			w.each(exec, func(l int) { dst[l] = uint64(min(uint32(a[l]), uint32(b[l]))) })
			return nil
		}
	case ptx.OpMax:
		if signed {
			return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
				dst, a, b := w.row(d), s0.of(w), s1.of(w)
				w.each(exec, func(l int) { dst[l] = uint64(uint32(max(int32(a[l]), int32(b[l])))) })
				return nil
			}
		}
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a, b := w.row(d), s0.of(w), s1.of(w)
			w.each(exec, func(l int) { dst[l] = uint64(max(uint32(a[l]), uint32(b[l]))) })
			return nil
		}
	}
	return nil // div and rem: the generic path
}

// makeIntBin specializes the common operand shapes of a two-input integer
// op around a compiled scalar function that takes raw register bits and
// returns the exact bits to store.
func makeIntBin(ci *cInstr, sf func(a, b uint64) uint64) warpHandler {
	d := ci.dst.reg
	a0, a1 := ci.args[0], ci.args[1]
	r0ok := a0.kind == ptx.OpndReg && !a0.isPred
	r1ok := a1.kind == ptx.OpndReg && !a1.isPred
	switch {
	case r0ok && r1ok:
		r0, r1 := a0.reg, a1.reg
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a, b := w.row(d), w.row(r0), w.row(r1)
			w.each(exec, func(l int) { dst[l] = sf(a[l], b[l]) })
			return nil
		}
	case r0ok && a1.kind == ptx.OpndImm:
		r0, c1 := a0.reg, a1.imm
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a := w.row(d), w.row(r0)
			w.each(exec, func(l int) { dst[l] = sf(a[l], c1) })
			return nil
		}
	default:
		f0, c0, k0 := fetcher(a0)
		f1, c1, k1 := fetcher(a1)
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst := w.row(d)
			w.each(exec, func(l int) {
				a, b := c0, c1
				if !k0 {
					a = f0(e, w, l)
				}
				if !k1 {
					b = f1(e, w, l)
				}
				dst[l] = sf(a, b)
			})
			return nil
		}
	}
}

func makeIntTri(ci *cInstr, sf func(a, b, c uint64) uint64) warpHandler {
	d := ci.dst.reg
	a0, a1, a2 := ci.args[0], ci.args[1], ci.args[2]
	if a0.kind == ptx.OpndReg && !a0.isPred &&
		a1.kind == ptx.OpndReg && !a1.isPred &&
		a2.kind == ptx.OpndReg && !a2.isPred {
		r0, r1, r2 := a0.reg, a1.reg, a2.reg
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			dst, a, b, c := w.row(d), w.row(r0), w.row(r1), w.row(r2)
			w.each(exec, func(l int) { dst[l] = sf(a[l], b[l], c[l]) })
			return nil
		}
	}
	f0, c0, k0 := fetcher(a0)
	f1, c1, k1 := fetcher(a1)
	f2, c2, k2 := fetcher(a2)
	return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
		dst := w.row(d)
		w.each(exec, func(l int) {
			a, b, c := c0, c1, c2
			if !k0 {
				a = f0(e, w, l)
			}
			if !k1 {
				b = f1(e, w, l)
			}
			if !k2 {
				c = f2(e, w, l)
			}
			dst[l] = sf(a, b, c)
		})
		return nil
	}
}

// intBinOp compiles a two-input integer op into a scalar function: both
// inputs truncated to the operand width first, the result truncated to the
// store width (2*size for mul.wide).
func intBinOp(ci *cInstr) func(a, b uint64) uint64 {
	in := ci.in
	size := ci.size
	signed := in.Type.Signed()
	switch ci.op {
	case ptx.OpAdd:
		return func(a, b uint64) uint64 { return truncTo(truncTo(a, size)+truncTo(b, size), size) }
	case ptx.OpSub:
		return func(a, b uint64) uint64 { return truncTo(truncTo(a, size)-truncTo(b, size), size) }
	case ptx.OpAnd:
		return func(a, b uint64) uint64 { return truncTo(a&b, size) }
	case ptx.OpOr:
		return func(a, b uint64) uint64 { return truncTo(a|b, size) }
	case ptx.OpXor:
		return func(a, b uint64) uint64 { return truncTo(a^b, size) }
	case ptx.OpShl:
		return func(a, b uint64) uint64 {
			a, b = truncTo(a, size), truncTo(b, size)
			if b >= uint64(8*size) {
				return 0
			}
			return truncTo(a<<b, size)
		}
	case ptx.OpShr:
		if signed {
			return func(a, b uint64) uint64 {
				a, b = truncTo(a, size), truncTo(b, size)
				sh := b
				if sh >= uint64(8*size) {
					sh = uint64(8*size) - 1
				}
				return truncTo(uint64(signExt(a, size)>>sh), size)
			}
		}
		return func(a, b uint64) uint64 {
			a, b = truncTo(a, size), truncTo(b, size)
			if b >= uint64(8*size) {
				return 0
			}
			return truncTo(a>>b, size)
		}
	case ptx.OpMin:
		if signed {
			return func(a, b uint64) uint64 {
				a, b = truncTo(a, size), truncTo(b, size)
				if signExt(a, size) < signExt(b, size) {
					return a
				}
				return b
			}
		}
		return func(a, b uint64) uint64 {
			a, b = truncTo(a, size), truncTo(b, size)
			if a < b {
				return a
			}
			return b
		}
	case ptx.OpMax:
		if signed {
			return func(a, b uint64) uint64 {
				a, b = truncTo(a, size), truncTo(b, size)
				if signExt(a, size) > signExt(b, size) {
					return a
				}
				return b
			}
		}
		return func(a, b uint64) uint64 {
			a, b = truncTo(a, size), truncTo(b, size)
			if a > b {
				return a
			}
			return b
		}
	case ptx.OpMul:
		switch {
		case in.Wide:
			if signed {
				return func(a, b uint64) uint64 {
					a, b = truncTo(a, size), truncTo(b, size)
					return truncTo(uint64(signExt(a, size)*signExt(b, size)), 2*size)
				}
			}
			return func(a, b uint64) uint64 {
				return truncTo(truncTo(a, size)*truncTo(b, size), 2*size)
			}
		case in.Hi:
			if size == 4 {
				if signed {
					return func(a, b uint64) uint64 {
						a, b = truncTo(a, size), truncTo(b, size)
						return truncTo(uint64(signExt(a, size)*signExt(b, size))>>32, size)
					}
				}
				return func(a, b uint64) uint64 {
					a, b = truncTo(a, size), truncTo(b, size)
					return truncTo((a*b)>>32, size)
				}
			}
			return func(a, b uint64) uint64 {
				hi, _ := bits.Mul64(truncTo(a, size), truncTo(b, size))
				return truncTo(hi, size)
			}
		default:
			return func(a, b uint64) uint64 {
				return truncTo(truncTo(a, size)*truncTo(b, size), size)
			}
		}
	case ptx.OpDiv:
		if signed {
			return func(a, b uint64) uint64 {
				a, b = truncTo(a, size), truncTo(b, size)
				if b == 0 {
					return 0
				}
				return truncTo(uint64(signExt(a, size)/signExt(b, size)), size)
			}
		}
		return func(a, b uint64) uint64 {
			a, b = truncTo(a, size), truncTo(b, size)
			if b == 0 {
				return 0
			}
			return truncTo(a/b, size)
		}
	case ptx.OpRem:
		if signed {
			return func(a, b uint64) uint64 {
				a, b = truncTo(a, size), truncTo(b, size)
				if b == 0 {
					return 0
				}
				return truncTo(uint64(signExt(a, size)%signExt(b, size)), size)
			}
		}
		return func(a, b uint64) uint64 {
			a, b = truncTo(a, size), truncTo(b, size)
			if b == 0 {
				return 0
			}
			return truncTo(a%b, size)
		}
	}
	panic("gpusim: intBinOp on " + ci.op.String()) // selectHandler passes only the ops above
}

// intMadOp compiles mad: inputs arrive raw; the wide form adds the raw
// third operand, the narrow form truncates it.
func intMadOp(ci *cInstr) func(a, b, c uint64) uint64 {
	in := ci.in
	size := ci.size
	signed := in.Type.Signed()
	if in.Wide {
		if signed {
			return func(a, b, c uint64) uint64 {
				a, b = truncTo(a, size), truncTo(b, size)
				return truncTo(uint64(signExt(a, size)*signExt(b, size))+c, 2*size)
			}
		}
		return func(a, b, c uint64) uint64 {
			return truncTo(truncTo(a, size)*truncTo(b, size)+c, 2*size)
		}
	}
	return func(a, b, c uint64) uint64 {
		return truncTo(truncTo(a, size)*truncTo(b, size)+truncTo(c, size), size)
	}
}

// makeFloatArith covers the float add/sub/mul/div/min/max/mad core; other
// float-typed binary ops are reported as unsupported when executed.
func makeFloatArith(ci *cInstr) warpHandler {
	t := ci.in.Type
	d := ci.dst.reg
	var ff func(a, b, c float64) float64
	switch ci.op {
	case ptx.OpAdd:
		ff = func(a, b, c float64) float64 { return a + b }
	case ptx.OpSub:
		ff = func(a, b, c float64) float64 { return a - b }
	case ptx.OpMul:
		ff = func(a, b, c float64) float64 { return a * b }
	case ptx.OpDiv:
		ff = func(a, b, c float64) float64 { return a / b }
	case ptx.OpMin:
		ff = func(a, b, c float64) float64 { return math.Min(a, b) }
	case ptx.OpMax:
		ff = func(a, b, c float64) float64 { return math.Max(a, b) }
	case ptx.OpMad:
		ff = func(a, b, c float64) float64 { return a*b + c }
	default:
		return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
			return fmt.Errorf("lane %d: unsupported float op %v", bits.TrailingZeros32(exec), ci.op)
		}
	}
	isMad := ci.op == ptx.OpMad
	return func(e *engine, w *warpState, ci *cInstr, exec uint32) error {
		dst := w.row(d)
		w.each(exec, func(l int) {
			a := e.fval(w, l, &ci.args[0], t)
			b := e.fval(w, l, &ci.args[1], t)
			var c float64
			if isMad {
				c = e.fval(w, l, &ci.args[2], t)
			}
			dst[l] = fbits(ff(a, b, c), t)
		})
		return nil
	}
}
