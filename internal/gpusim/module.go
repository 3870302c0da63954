package gpusim

import (
	"fmt"
	"strings"
	"sync/atomic"

	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
)

// Module is a loaded, executable PTX module: kernels compiled to internal
// form with register maps, control-flow graphs and resolved symbols.
type Module struct {
	Dev     *Device
	Src     *ptx.Module
	globals map[string]uint64 // module-level .global symbol -> address
	kernels map[string]*loadedKernel
}

// loadedKernel is a kernel prepared for execution.
type loadedKernel struct {
	name   string
	cfg    *kernel.CFG
	params map[string]int // param name -> index
	// Register allocation: every general register name maps to a dense
	// index into the per-thread register file; predicate registers map
	// into the per-thread predicate file.
	regIdx  map[string]int
	predIdx map[string]int
	nRegs   int
	nPreds  int
	// Shared-memory layout: symbol -> offset, plus total static size.
	sharedOff   map[string]uint64
	sharedBytes int64
	// Per-thread local-memory layout.
	localOff   map[string]uint64
	localBytes int64

	code  []cInstr // lazily compiled executable form
	nOnce int      // statically marked log-once sites (producer filter)

	// arena pools launch state across launches of this kernel (see
	// arena.go). A launch takes ownership with an atomic swap and stores
	// the arena back when done.
	arena atomic.Pointer[launchArena]
}

// LoadModule prepares a parsed PTX module for execution on the device,
// allocating module-level globals, building per-kernel CFGs and checking
// every instruction's operand shape, so a malformed one is a load error.
func (d *Device) LoadModule(m *ptx.Module) (*Module, error) {
	mod := &Module{
		Dev:     d,
		Src:     m,
		globals: make(map[string]uint64),
		kernels: make(map[string]*loadedKernel),
	}
	for _, g := range m.Globals {
		addr, err := d.Alloc(int(g.Size))
		if err != nil {
			return nil, fmt.Errorf("gpusim: allocating global %s: %w", g.Name, err)
		}
		mod.globals[g.Name] = addr
	}
	for _, k := range m.Kernels {
		lk, err := prepareKernel(k)
		if err != nil {
			return nil, err
		}
		mod.kernels[k.Name] = lk
	}
	return mod, nil
}

// GlobalAddr returns the device address of a module-level .global symbol.
func (mod *Module) GlobalAddr(name string) (uint64, bool) {
	a, ok := mod.globals[name]
	return a, ok
}

// KernelNames lists the kernels in the module.
func (mod *Module) KernelNames() []string {
	var out []string
	for _, k := range mod.Src.Kernels {
		out = append(out, k.Name)
	}
	return out
}

// CFG returns the control-flow graph of a loaded kernel, or nil.
func (mod *Module) CFG(name string) *kernel.CFG {
	lk := mod.kernels[name]
	if lk == nil {
		return nil
	}
	return lk.cfg
}

// maxKernelRegs bounds the registers of one kernel, general and predicate
// together. A launch allocates WarpSize*8 bytes per general register per
// resident warp and loading maps every declared name, so the count a
// `.reg` line may ask for in a dozen bytes is a bound of the loader, not a
// knob.
const maxKernelRegs = 1 << 16

func regLimitError(kernel string, n int) error {
	return fmt.Errorf("gpusim: %s: %d registers declared, limit %d", kernel, n, maxKernelRegs)
}

func prepareKernel(k *ptx.Kernel) (*loadedKernel, error) {
	// Sum the declared counts before anything is sized by them.
	declared := 0
	for _, rd := range k.Regs {
		if rd.Count < 0 || rd.Count > maxKernelRegs {
			return nil, regLimitError(k.Name, rd.Count)
		}
		if declared += rd.Count; declared > maxKernelRegs {
			return nil, regLimitError(k.Name, declared)
		}
	}
	cfg, err := kernel.Build(k)
	if err != nil {
		return nil, fmt.Errorf("gpusim: kernel %s: %w", k.Name, err)
	}
	lk := &loadedKernel{
		name:      k.Name,
		cfg:       cfg,
		params:    make(map[string]int),
		regIdx:    make(map[string]int),
		predIdx:   make(map[string]int),
		sharedOff: make(map[string]uint64),
		localOff:  make(map[string]uint64),
	}
	for i, p := range k.Params {
		lk.params[p.Name] = i
	}
	// Register files from declarations...
	for _, rd := range k.Regs {
		for i := 0; i < rd.Count; i++ {
			name := fmt.Sprintf("%s%d", rd.Prefix, i)
			if rd.Type == ptx.Pred {
				lk.addPred(name)
			} else {
				lk.addReg(name)
			}
		}
	}
	// ...plus any registers that appear only in operands.
	for _, in := range cfg.Instrs {
		if in.Guard != nil {
			lk.addPred(in.Guard.Reg)
		}
		ops := in.Args
		if in.HasDst {
			ops = append([]ptx.Operand{in.Dst}, ops...)
		}
		for _, o := range ops {
			switch o.Kind {
			case ptx.OpndReg:
				if isPredName(o.Reg) {
					lk.addPred(o.Reg)
				} else {
					lk.addReg(o.Reg)
				}
			case ptx.OpndMem:
				if o.BaseReg != "" {
					lk.addReg(o.BaseReg)
				}
			}
		}
	}
	// The names only operands mention count too.
	if n := lk.nPreds + lk.nRegs; n > maxKernelRegs {
		return nil, regLimitError(k.Name, n)
	}
	// Shared-memory layout.
	var off int64
	for _, s := range k.Shared {
		a := int64(s.Align)
		if a > 1 {
			off = (off + a - 1) / a * a
		}
		lk.sharedOff[s.Name] = uint64(off)
		off += s.Size
	}
	lk.sharedBytes = off
	// Per-thread local-memory layout.
	var loff int64
	for _, s := range k.Local {
		a := int64(s.Align)
		if a > 1 {
			loff = (loff + a - 1) / a * a
		}
		lk.localOff[s.Name] = uint64(loff)
		loff += s.Size
	}
	lk.localBytes = loff
	for _, in := range cfg.Instrs {
		if err := lk.checkShape(in); err != nil {
			return nil, fmt.Errorf("gpusim: %s line %d: %w", k.Name, in.Line, err)
		}
	}
	return lk, nil
}

// checkShape is the one place operand arity is enforced: it rejects, at
// load time, any instruction with fewer operands than its handler indexes
// or a destination the handler cannot write, so no handler bounds-checks
// at run time and malformed PTX costs an error, never a panic.
func (lk *loadedKernel) checkShape(in *ptx.Instr) error {
	var nargs int // source operands the handler reads
	dst := true   // writes a destination register
	switch in.Op {
	case ptx.OpMov, ptx.OpCvta, ptx.OpCvt, ptx.OpNot, ptx.OpNeg:
		nargs = 1
	case ptx.OpLd:
		nargs = max(in.Vec, 1) // ld.vN: N-1 further destinations, then the address
	case ptx.OpSt:
		nargs, dst = max(in.Vec, 1)+1, false
	case ptx.OpSelp, ptx.OpMad:
		nargs = 3
	case ptx.OpSetp, ptx.OpAdd, ptx.OpSub, ptx.OpMul, ptx.OpDiv, ptx.OpRem, ptx.OpMin, ptx.OpMax,
		ptx.OpAnd, ptx.OpOr, ptx.OpXor, ptx.OpShl, ptx.OpShr:
		nargs = 2
	case ptx.OpAtom, ptx.OpRed:
		nargs, dst = 2, in.HasDst // atom's result register is optional, red has none
		if in.Atom == ptx.AtomCas {
			nargs = 3
		}
	default:
		return nil
	}
	if dst && !in.HasDst {
		return fmt.Errorf("%v: missing destination operand", in.Op)
	}
	if len(in.Args) < nargs {
		return fmt.Errorf("%v: want at least %d source operands, got %d", in.Op, nargs, len(in.Args))
	}
	// setp writes the predicate file, everything else the general one.
	writable := func(o ptx.Operand) bool {
		_, isPred := lk.predIdx[o.Reg]
		return o.Kind == ptx.OpndReg && isPred == (in.Op == ptx.OpSetp)
	}
	ok := !dst || writable(in.Dst)
	if in.Op == ptx.OpLd {
		for i := 0; i < in.Vec-1; i++ {
			ok = ok && writable(in.Args[i])
		}
	}
	if !ok {
		return fmt.Errorf("%v: destination is not a register of the file the instruction writes", in.Op)
	}
	return nil
}

// isPredName reports whether a register name is conventionally a predicate
// (%p prefix). Registers declared .pred are always predicates regardless of
// name; this heuristic only applies to undeclared registers.
func isPredName(name string) bool {
	return strings.HasPrefix(name, "%p") && !strings.HasPrefix(name, "%pd")
}

func (lk *loadedKernel) addReg(name string) {
	if _, ok := lk.regIdx[name]; ok {
		return
	}
	if _, ok := lk.predIdx[name]; ok {
		return
	}
	lk.regIdx[name] = lk.nRegs
	lk.nRegs++
}

func (lk *loadedKernel) addPred(name string) {
	if _, ok := lk.predIdx[name]; ok {
		return
	}
	if _, ok := lk.regIdx[name]; ok {
		return
	}
	lk.predIdx[name] = lk.nPreds
	lk.nPreds++
}
