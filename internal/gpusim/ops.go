package gpusim

import (
	"fmt"
	"math"
	"math/bits"

	"barracuda/internal/logging"
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

// symKind classifies a resolved symbol reference.
type symKind uint8

const (
	symNone   symKind = iota
	symGlobal         // module-level .global variable: symAddr is a device address
	symShared         // kernel .shared variable: symAddr is a shared-memory offset
	symParam          // kernel parameter: symAddr is the parameter index
	symLocal          // kernel .local variable: symAddr is a per-thread offset
)

// cOperand is a compiled operand with registers resolved to dense indices
// and symbols resolved to addresses.
type cOperand struct {
	kind    ptx.OperandKind
	reg     int // register-file index (general or predicate)
	isPred  bool
	imm     uint64
	f       float64
	sreg    ptx.Sreg
	baseReg int // memory base register index, -1 when symbol-based
	off     int64
	symK    symKind
	symAddr uint64
}

// cInstr is a compiled instruction.
type cInstr struct {
	op       ptx.Op
	in       *ptx.Instr
	guard    int // predicate index, -1 when unguarded
	guardNeg bool
	hasDst   bool
	dst      cOperand
	args     []cOperand
	size     int // operand size in bytes from the instruction type
	target   int // branch target pc
	rpc      int // precomputed reconvergence pc for conditional branches

	fn warpHandler // per-opcode warp-level handler, selected once at compile time

	// _log record header, precomputed so execLog only fills the
	// launch-dependent fields (warp, block, mask, addresses, values).
	logOp     trace.OpKind
	logSpace  logging.SpaceID
	logSkip   bool // If/Else/Fi marker: runtime no-op
	logBar    bool // barrier record (no address payload)
	logSync   bool // acquire/release record: stamp the global Seq
	logVal    bool // carries a stored-value operand (write records)
	logAddrOK bool // has a well-formed address operand
}

// compile lowers a loaded kernel's instructions into executable form,
// resolving registers, labels and symbols. The result is cached. Operand
// shapes were checked when the kernel was loaded (loadedKernel.checkShape).
// Each instruction is built in place, its operands carved from one array.
func (mod *Module) compile(lk *loadedKernel) ([]cInstr, error) {
	if lk.code != nil {
		return lk.code, nil
	}
	ins := lk.cfg.Instrs
	code := make([]cInstr, len(ins))
	nargs := 0
	for _, in := range ins {
		nargs += len(in.Args)
	}
	args := make([]cOperand, nargs)
	for i, in := range ins {
		ci := &code[i]
		ci.op, ci.in, ci.guard, ci.size, ci.target, ci.rpc = in.Op, in, -1, in.Type.Size(), -1, -1
		if in.Guard != nil {
			g := lk.regs[in.Guard.Num]
			if !g.Pred {
				return nil, fmt.Errorf("gpusim: %s line %d: undeclared predicate %s", lk.name, in.Line, in.Guard.Reg)
			}
			ci.guard = g.Index
			ci.guardNeg = in.Guard.Neg
		}
		if in.HasDst {
			if err := mod.compileOperand(lk, in, &in.Dst, &ci.dst); err != nil {
				return nil, err
			}
			ci.hasDst = true
		}
		ci.args, args = args[:len(in.Args):len(in.Args)], args[len(in.Args):]
		for j := range in.Args {
			if err := mod.compileOperand(lk, in, &in.Args[j], &ci.args[j]); err != nil {
				return nil, err
			}
		}
		if in.Op == ptx.OpBra {
			if len(in.Args) != 1 || in.Args[0].Kind != ptx.OpndLabel {
				return nil, fmt.Errorf("gpusim: %s line %d: malformed bra", lk.name, in.Line)
			}
			t, ok := lk.cfg.LabelAt[in.Args[0].Sym]
			if !ok {
				return nil, fmt.Errorf("gpusim: %s line %d: undefined label %s", lk.name, in.Line, in.Args[0].Sym)
			}
			ci.target = t
			ci.rpc = lk.cfg.ReconvergencePC(i)
		}
	}
	// Warp-major lowering: pick the per-opcode handler and precompute _log
	// record templates. All cached with the compiled code.
	imms := immRows{}
	for i := range code {
		ci := &code[i]
		ci.fn = selectHandler(ci, imms)
		if ci.op == ptx.OpLog {
			prepLog(ci)
		}
	}
	lk.code = code
	return code, nil
}

// prepLog precomputes the launch-invariant part of a _log record.
func prepLog(ci *cInstr) {
	ci.logOp = trace.FromLogKind(ci.in.LogK)
	switch ci.logOp {
	case trace.OpIf, trace.OpElse, trace.OpFi:
		ci.logSkip = true
		return
	case trace.OpBar:
		ci.logBar = true
		return
	}
	switch ci.in.Space {
	case ptx.SpaceShared:
		ci.logSpace = logging.SpaceShared
	case ptx.SpaceLocal:
		ci.logSpace = logging.SpaceLocal
	default:
		ci.logSpace = logging.SpaceGlobal
	}
	ci.logSync = ci.logOp.IsSync()
	ci.logVal = len(ci.args) > 1
	ci.logAddrOK = len(ci.args) > 0 && ci.args[0].kind == ptx.OpndMem
}

// compileOperand lowers operand o of in into c, which is zero.
func (mod *Module) compileOperand(lk *loadedKernel, in *ptx.Instr, o *ptx.Operand, c *cOperand) error {
	c.kind, c.reg, c.baseReg = o.Kind, -1, -1
	switch o.Kind {
	case ptx.OpndReg:
		r := lk.regs[o.Num]
		c.reg, c.isPred = r.Index, r.Pred
	case ptx.OpndImm:
		c.imm = uint64(o.Imm)
		c.f = float64(o.Imm)
	case ptx.OpndFImm:
		c.f = o.F
	case ptx.OpndSreg:
		c.sreg = o.Sreg
	case ptx.OpndMem:
		c.off = o.Off
		if o.Reg != "" {
			r := lk.regs[o.Num]
			if r.Pred {
				return fmt.Errorf("gpusim: %s line %d: undeclared register %s", lk.name, in.Line, o.Reg)
			}
			c.baseReg = r.Index
		} else {
			k, addr, err := mod.resolveSym(lk, o.Sym)
			if err != nil {
				return fmt.Errorf("gpusim: %s line %d: %w", lk.name, in.Line, err)
			}
			c.symK, c.symAddr = k, addr
		}
	case ptx.OpndSym:
		k, addr, err := mod.resolveSym(lk, o.Sym)
		if err != nil {
			return fmt.Errorf("gpusim: %s line %d: %w", lk.name, in.Line, err)
		}
		c.symK, c.symAddr = k, addr
	case ptx.OpndLabel:
		// handled by the bra special case
	}
	return nil
}

func (mod *Module) resolveSym(lk *loadedKernel, name string) (symKind, uint64, error) {
	if off, ok := lk.sharedOff[name]; ok {
		return symShared, off, nil
	}
	if off, ok := lk.localOff[name]; ok {
		return symLocal, off, nil
	}
	if addr, ok := mod.globals[name]; ok {
		return symGlobal, addr, nil
	}
	if pi, ok := lk.params[name]; ok {
		return symParam, uint64(pi), nil
	}
	return symNone, 0, fmt.Errorf("undefined symbol %q", name)
}

// row returns general register r of the warp: one value per lane, lane l
// at row(r)[l]. The stride is the constant WarpSize whatever the launch's
// warp width, so a compiled handler is launch-independent.
func (w *warpState) row(r int) []uint64 {
	return w.regs[r*WarpSize : (r+1)*WarpSize]
}

// reg returns lane's value of general register r.
func (e *engine) reg(w *warpState, lane, r int) uint64 {
	return w.regs[r*WarpSize+lane]
}

func (e *engine) setRegRaw(w *warpState, lane, r int, v uint64) {
	w.regs[r*WarpSize+lane] = v
}

func (e *engine) pred(w *warpState, lane, p int) bool {
	return w.preds[p]>>uint(lane)&1 != 0
}

// val evaluates a scalar operand for one lane.
func (e *engine) val(w *warpState, lane int, o *cOperand) uint64 {
	switch o.kind {
	case ptx.OpndReg:
		if o.isPred {
			if e.pred(w, lane, o.reg) {
				return 1
			}
			return 0
		}
		return e.reg(w, lane, o.reg)
	case ptx.OpndImm:
		return o.imm
	case ptx.OpndFImm:
		return math.Float64bits(o.f)
	case ptx.OpndSreg:
		return e.sregVal(w, lane, o.sreg)
	case ptx.OpndSym:
		return o.symAddr // address of a global / offset of a shared var
	}
	return 0
}

// fval evaluates an operand as a floating-point value of the given type.
func (e *engine) fval(w *warpState, lane int, o *cOperand, t ptx.Type) float64 {
	switch o.kind {
	case ptx.OpndFImm, ptx.OpndImm:
		return o.f
	default:
		bits64 := e.val(w, lane, o)
		if t == ptx.F32 {
			return float64(math.Float32frombits(uint32(bits64)))
		}
		return math.Float64frombits(bits64)
	}
}

func fbits(f float64, t ptx.Type) uint64 {
	if t == ptx.F32 {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

// sregVal computes a special register value for a lane.
func (e *engine) sregVal(w *warpState, lane int, s ptx.Sreg) uint64 {
	lin := w.widx*e.ws + lane // thread linear index within block
	b := e.block
	g := e.grid
	blk := w.blk.idx
	switch s {
	case ptx.SregTidX:
		return uint64(lin % b.X)
	case ptx.SregTidY:
		return uint64((lin / b.X) % b.Y)
	case ptx.SregTidZ:
		return uint64(lin / (b.X * b.Y))
	case ptx.SregNtidX:
		return uint64(b.X)
	case ptx.SregNtidY:
		return uint64(b.Y)
	case ptx.SregNtidZ:
		return uint64(b.Z)
	case ptx.SregCtaidX:
		return uint64(blk % g.X)
	case ptx.SregCtaidY:
		return uint64((blk / g.X) % g.Y)
	case ptx.SregCtaidZ:
		return uint64(blk / (g.X * g.Y))
	case ptx.SregNctaidX:
		return uint64(g.X)
	case ptx.SregNctaidY:
		return uint64(g.Y)
	case ptx.SregNctaidZ:
		return uint64(g.Z)
	case ptx.SregLaneid:
		return uint64(lane)
	case ptx.SregWarpid:
		return uint64(w.widx)
	case ptx.SregWarpSize:
		return uint64(e.ws)
	}
	return 0
}

// laneAddr computes the effective address of a memory operand for a lane.
func (e *engine) laneAddr(w *warpState, lane int, o *cOperand) uint64 {
	if o.baseReg >= 0 {
		return e.reg(w, lane, o.baseReg) + uint64(o.off)
	}
	return o.symAddr + uint64(o.off)
}

func truncTo(v uint64, size int) uint64 {
	if size >= 8 || size <= 0 {
		return v
	}
	return v & (1<<(8*size) - 1)
}

func signExt(v uint64, size int) int64 {
	switch size {
	case 1:
		return int64(int8(v))
	case 2:
		return int64(int16(v))
	case 4:
		return int64(int32(v))
	default:
		return int64(v)
	}
}

// guarded returns the lanes of eff whose guard predicate lets a guarded
// instruction execute (or a guarded branch be taken).
func (ci *cInstr) guarded(w *warpState, eff uint32) uint32 {
	if ci.guardNeg {
		return eff &^ w.preds[ci.guard]
	}
	return eff & w.preds[ci.guard]
}

// stepWarp executes one warp-level instruction.
func (e *engine) stepWarp(w *warpState) error {
	// Resolve a runnable top entry, popping completed paths.
	for {
		if w.done {
			return nil
		}
		top := &w.stack[len(w.stack)-1]
		if top.pc >= len(e.code) || top.pc == top.rpc || top.mask&^w.exited == 0 {
			e.popEntry(w)
			continue
		}
		break
	}
	top := &w.stack[len(w.stack)-1]
	pc := top.pc
	ci := &e.code[pc]
	eff := top.mask &^ w.exited

	// Apply a guard to non-branch instructions.
	exec := eff
	if ci.guard >= 0 && ci.op != ptx.OpBra {
		exec = ci.guarded(w, eff)
	}
	e.stats.WarpInstrs++
	e.stats.ThreadInstrs += uint64(bits.OnesCount32(exec))

	switch ci.op {
	case ptx.OpBra:
		return e.execBranch(w, top, ci, eff)
	case ptx.OpRet, ptx.OpExit:
		w.exited |= exec
		top.pc++
		return nil
	case ptx.OpBar:
		top.pc++
		e.parkAtBarrier(w)
		return nil
	case ptx.OpMembar:
		top.pc++
		return nil
	case ptx.OpLog:
		if err := e.execLog(w, ci, exec); err != nil {
			return e.execError(pc, "%v", err)
		}
		top.pc++
		return nil
	}

	if exec != 0 {
		if err := ci.fn(e, w, ci, exec); err != nil {
			return e.execError(pc, "%v", err)
		}
	}
	top.pc++
	return nil
}

// execBranch handles (possibly guarded, possibly divergent) branches.
func (e *engine) execBranch(w *warpState, top *stackEntry, ci *cInstr, eff uint32) error {
	if ci.guard < 0 {
		top.pc = ci.target
		return nil
	}
	taken := ci.guarded(w, eff)
	notTaken := eff &^ taken
	switch {
	case taken == 0:
		top.pc++
	case notTaken == 0:
		top.pc = ci.target
	default:
		// Divergence: the current entry becomes the reconvergence
		// continuation; the fall-through path executes first, then the
		// taken path (the order is architecturally arbitrary, §3.3.1).
		e.stats.Divergences++
		rpc := ci.rpc
		fallPC := top.pc + 1
		top.pc = rpc
		w.stack = append(w.stack,
			stackEntry{pc: ci.target, rpc: rpc, mask: taken, role: roleSecond},
			stackEntry{pc: fallPC, rpc: rpc, mask: notTaken, role: roleFirst},
		)
		e.emitBranch(w, trace.OpIf, notTaken)
	}
	return nil
}

// header starts a new record in rec: every header field is written, so
// nothing of the record that last used the buffer shows through. Addrs
// and Vals are left alone — only a memory record's active lanes mean
// anything, and fillLog rewrites exactly those.
func header(rec *logging.Record, warp, block int, op trace.OpKind, mask uint32) {
	rec.Warp, rec.Block = uint32(warp), uint32(block)
	rec.Op, rec.Space, rec.Size, rec.Flags = op, 0, 0, 0
	rec.Mask, rec.PC = mask, 0
	rec.Base, rec.Stride, rec.Seq = 0, 0, 0
}

// logHeader starts the record of a `_log.*` site in e.rec.
func (e *engine) logHeader(w *warpState, ci *cInstr, exec uint32) *logging.Record {
	rec := &e.rec
	header(rec, w.gwid, w.blk.idx, ci.logOp, exec)
	rec.PC = uint32(ci.in.Line)
	if !ci.logBar {
		rec.Space, rec.Size = ci.logSpace, uint8(ci.in.AccSz)
	}
	return rec
}

// fillLog computes the active lanes' addresses and stored values into rec
// and, in the loop that fills Addrs, recognises the compact form they
// follow — what logging.Record.Classify would find in the filled record.
// Lanes that share one address make a strided record of stride 0.
func (e *engine) fillLog(w *warpState, ci *cInstr, exec uint32, rec *logging.Record) {
	a0 := &ci.args[0]
	first := bits.TrailingZeros32(exec)
	base := e.laneAddr(w, first, a0)
	// ragged and bent turn nonzero at the first lane off the coalesced
	// (base + rank*Size) and the strided (base + lanes*stride) form.
	var stride int64
	var ragged, bent uint64
	if rest := exec & (exec - 1); rest != 0 {
		second := bits.TrailingZeros32(rest)
		stride = int64(e.laneAddr(w, second, a0)-base) / int64(second-first)
	}
	next, size := base, uint64(rec.Size)
	w.each(exec, func(lane int) {
		a := e.laneAddr(w, lane, a0)
		rec.Addrs[lane] = a
		ragged |= a ^ next
		next += size
		bent |= a ^ (base + uint64(int64(lane-first)*stride))
	})
	switch {
	case ci.logSync || rec.Size == 0:
		// Only plain accesses with a size span shadow cells.
	case ragged == 0:
		rec.Flags, rec.Base = logging.FlagCoalesced, base
	case bent == 0:
		rec.Flags, rec.Base, rec.Stride = logging.FlagStrided, base, stride
	}
	if !ci.logVal {
		return
	}
	a1 := &ci.args[1]
	w.each(exec, func(lane int) { rec.Vals[lane] = e.val(w, lane, a1) })
}

// execLog emits a warp-level record for a `_log.*` pseudo-instruction:
// the header precomputed at compile time plus the warp, block, mask,
// addresses and values filled at runtime. If/Else/Fi markers are no-ops
// at runtime: the semantic divergence events are emitted by the SIMT
// stack machinery, which knows the actual masks.
func (e *engine) execLog(w *warpState, ci *cInstr, exec uint32) error {
	if ci.logSkip || e.cfg.Sink == nil || exec == 0 {
		return nil
	}
	rec := e.logHeader(w, ci, exec)
	if ci.logBar {
		e.cfg.Sink.Emit(rec)
		e.stats.Records++
		return nil
	}
	if !ci.logAddrOK {
		return fmt.Errorf("_log.%v without address operand", ci.in.LogK)
	}
	if ci.logSync {
		e.syncSeq++
		rec.Seq = e.syncSeq
	}
	e.fillLog(w, ci, exec, rec)
	e.cfg.Sink.Emit(rec)
	e.stats.Records++
	return nil
}

// spaceMem returns a memory space as the warp's handlers see it: its bytes,
// the address they start at, and, for local memory, the bytes of each
// lane's private window (lane l's are mem[l*per:][:per]). Global memory is
// read from the device on every call: an allocation between two launches
// moves it. ok is false for a space with no memory behind it.
func (e *engine) spaceMem(w *warpState, space ptx.Space) (mem []byte, lo uint64, per int, ok bool) {
	switch space {
	case ptx.SpaceShared:
		return w.blk.shared, 0, 0, true
	case ptx.SpaceLocal:
		return w.local, 0, int(e.lk.localBytes), true
	case ptx.SpaceGlobal, ptx.SpaceNone:
		return e.dev.mem, GlobalBase, 0, true
	}
	return nil, 0, 0, false
}

// laneMem returns the size bytes at addr of the instruction's memory space
// for one lane, or the error that ends the instruction there.
func (e *engine) laneMem(w *warpState, lane int, space ptx.Space, addr uint64, size int) ([]byte, error) {
	mem, lo, per, ok := e.spaceMem(w, space)
	if !ok {
		return nil, fmt.Errorf("unsupported memory space %v", space)
	}
	if space == ptx.SpaceLocal {
		mem = mem[lane*per:][:per]
	}
	if b, ok := span(mem, lo, addr, uint64(size)); ok {
		return b, nil
	}
	return nil, e.outOfBounds(w, space, addr, size)
}

// outOfBounds is the error of a size-byte access at addr that span refused.
func (e *engine) outOfBounds(w *warpState, space ptx.Space, addr uint64, size int) error {
	switch space {
	case ptx.SpaceShared:
		return fmt.Errorf("shared access [%#x,+%d) out of bounds (%d bytes)", addr, size, len(w.blk.shared))
	case ptx.SpaceLocal:
		return fmt.Errorf("local access [%#x,+%d) out of bounds (%d bytes)", addr, size, e.lk.localBytes)
	}
	return e.dev.checkRange(addr, size)
}

// loadSpace and storeSpace are one lane's load and store: the per-lane
// definition the typed loops of makeLd and makeSt are held to
// (TestTypedLdStMatchGeneric), and the memory access of execLane.
func (e *engine) loadSpace(w *warpState, lane int, space ptx.Space, addr uint64, size int) (uint64, error) {
	b, err := e.laneMem(w, lane, space, addr, size)
	if err != nil {
		return 0, err
	}
	return loadLE(b, size), nil
}

func (e *engine) storeSpace(w *warpState, lane int, space ptx.Space, addr uint64, size int, v uint64) error {
	b, err := e.laneMem(w, lane, space, addr, size)
	if err == nil {
		storeLE(b, size, v)
	}
	return err
}

// execLane executes, for one lane, the shapes that have no warp handler
// (selectHandler routes them through execLaneLoop): vector loads and
// stores, atomics and reductions, float neg, and the scalar loads and
// stores the typed loops leave to it — for which it is also the per-lane
// oracle those loops are tested against. Operand counts were checked by
// checkShape at load time.
func (e *engine) execLane(w *warpState, ci *cInstr, lane int) error {
	in := ci.in
	t := in.Type
	size := ci.size
	vec := max(in.Vec, 1)
	switch ci.op {
	case ptx.OpLd:
		// ld.vN {d0..dN-1}, [addr]: dst plus Vec-1 leading args are
		// destinations; the address operand follows them.
		addr := e.laneAddr(w, lane, &ci.args[vec-1])
		for i := 0; i < vec; i++ {
			v, err := e.loadSpace(w, lane, in.Space, addr+uint64(i*size), size)
			if err != nil {
				return err
			}
			if t.Signed() {
				v = uint64(signExt(v, size))
			}
			dst := ci.dst.reg
			if i > 0 {
				dst = ci.args[i-1].reg
			}
			e.setRegRaw(w, lane, dst, v)
		}

	case ptx.OpSt:
		// st.vN [addr], {v0..vN-1}
		addr := e.laneAddr(w, lane, &ci.args[0])
		for i := 0; i < vec; i++ {
			v := e.val(w, lane, &ci.args[1+i])
			if t.Float() && ci.args[1+i].kind == ptx.OpndFImm {
				v = fbits(ci.args[1+i].f, t)
			}
			if err := e.storeSpace(w, lane, in.Space, addr+uint64(i*size), size, truncTo(v, size)); err != nil {
				return err
			}
		}

	case ptx.OpAtom, ptx.OpRed:
		addr := e.laneAddr(w, lane, &ci.args[0])
		old, err := e.loadSpace(w, lane, in.Space, addr, size)
		if err != nil {
			return err
		}
		b := truncTo(e.val(w, lane, &ci.args[1]), size)
		var c uint64
		if len(ci.args) > 2 {
			c = truncTo(e.val(w, lane, &ci.args[2]), size)
		}
		nv := applyAtom(in.Atom, t, size, old, b, c)
		if err := e.storeSpace(w, lane, in.Space, addr, size, truncTo(nv, size)); err != nil {
			return err
		}
		if ci.hasDst {
			e.setRegRaw(w, lane, ci.dst.reg, old)
		}

	case ptx.OpNeg:
		e.setRegRaw(w, lane, ci.dst.reg, fbits(-e.fval(w, lane, &ci.args[0], t), t))

	default:
		return fmt.Errorf("unsupported op %v", ci.op)
	}
	return nil
}

// applyAtom computes the new memory value for an atomic operation.
func applyAtom(op ptx.AtomOp, t ptx.Type, size int, old, b, c uint64) uint64 {
	switch op {
	case ptx.AtomAdd:
		if t.Float() {
			return fbits(bitsToF(old, t)+bitsToF(b, t), t)
		}
		return old + b
	case ptx.AtomExch:
		return b
	case ptx.AtomCas:
		if old == b {
			return c
		}
		return old
	case ptx.AtomMin:
		if t.Signed() {
			if signExt(b, size) < signExt(old, size) {
				return b
			}
			return old
		}
		if b < old {
			return b
		}
		return old
	case ptx.AtomMax:
		if t.Signed() {
			if signExt(b, size) > signExt(old, size) {
				return b
			}
			return old
		}
		if b > old {
			return b
		}
		return old
	case ptx.AtomAnd:
		return old & b
	case ptx.AtomOr:
		return old | b
	case ptx.AtomXor:
		return old ^ b
	case ptx.AtomInc:
		if old >= b {
			return 0
		}
		return old + 1
	case ptx.AtomDec:
		if old == 0 || old > b {
			return b
		}
		return old - 1
	}
	return old
}

func bitsToF(v uint64, t ptx.Type) float64 {
	if t == ptx.F32 {
		return float64(math.Float32frombits(uint32(v)))
	}
	return math.Float64frombits(v)
}

func cmpFloat(op ptx.CmpOp, a, b float64) bool {
	switch op {
	case ptx.CmpEQ:
		return a == b
	case ptx.CmpNE:
		return a != b
	case ptx.CmpLT:
		return a < b
	case ptx.CmpLE:
		return a <= b
	case ptx.CmpGT:
		return a > b
	case ptx.CmpGE:
		return a >= b
	}
	return false
}
