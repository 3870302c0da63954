package gpusim

import (
	"fmt"
	"sync/atomic"

	"barracuda/internal/kernel"
	"barracuda/internal/logging"
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
	// Register allocation: the kernel's register table (ptx.NumberRegs)
	// places every register its instructions name in the per-thread
	// general or predicate file; these are the files' sizes.
	regs   []ptx.RegInfo
	nRegs  int
	nPreds int
	// Shared-memory layout: symbol -> offset, plus total static size.
	sharedOff   map[string]uint64
	sharedBytes int64
	// Per-thread local-memory layout.
	localOff   map[string]uint64
	localBytes int64

	code []cInstr // lazily compiled executable form

	// arena pools launch state across launches of this kernel (see
	// arena.go). A launch takes ownership with an atomic swap and stores
	// the arena back when done.
	arena atomic.Pointer[launchArena]
}

// LoadModule prepares a parsed PTX module for execution on the device,
// allocating module-level globals, building per-kernel CFGs and checking
// every instruction's operand shape, so a malformed one is a load error:
// PlaceModule and Module.Load in one.
func (d *Device) LoadModule(m *ptx.Module) (*Module, error) {
	mod, err := d.PlaceModule(m)
	if err != nil {
		return nil, err
	}
	return mod, mod.Load()
}

// PlaceModule allocates a module's globals on the device and returns it
// unloaded, for Load to prepare its kernels: placed early and loaded late,
// it sits where LoadModule would have put it.
func (d *Device) PlaceModule(m *ptx.Module) (*Module, error) {
	mod := &Module{
		Dev:     d,
		Src:     m,
		globals: make(map[string]uint64),
	}
	for _, g := range m.Globals {
		addr, err := d.Alloc(int(g.Size))
		if err != nil {
			return nil, fmt.Errorf("gpusim: allocating global %s: %w", g.Name, err)
		}
		mod.globals[g.Name] = addr
	}
	return mod, nil
}

// Load prepares a placed module's kernels for launch, once; after an
// error the module stays unloaded.
func (mod *Module) Load() error {
	if mod.kernels != nil {
		return nil
	}
	kernels := make(map[string]*loadedKernel, len(mod.Src.Kernels))
	for _, k := range mod.Src.Kernels {
		lk, err := prepareKernel(k)
		if err != nil {
			return err
		}
		kernels[k.Name] = lk
	}
	mod.kernels = kernels
	return nil
}

// GlobalAddr returns the device address of a module-level .global symbol.
func (mod *Module) GlobalAddr(name string) (uint64, bool) {
	a, ok := mod.globals[name]
	return a, ok
}

// maxKernelRegs bounds the registers of one kernel, general and predicate
// together. A launch allocates WarpSize*8 bytes per general register per
// resident warp, so the count a `.reg` line may ask for in a dozen bytes
// is a bound of the loader, not a knob.
const maxKernelRegs = 1 << 16

// Bounds of a kernel's static memory, which every launch allocates per
// resident block (.shared) and per lane (.local): a declaration past them
// is a load error, not a makeslice panic or an out-of-memory crash
// mid-launch. 256 KiB of shared memory is above any CUDA device's per-block
// limit; 512 KiB of local memory is CUDA's own per-thread limit.
const (
	maxSharedBytes = 256 << 10
	maxLocalBytes  = 512 << 10
)

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
	k.NumberRegs()
	// The names only operands mention count too.
	if n := k.NRegs + k.NPreds; n > maxKernelRegs {
		return nil, regLimitError(k.Name, n)
	}
	cfg, err := kernel.Build(k)
	if err != nil {
		return nil, fmt.Errorf("gpusim: kernel %s: %w", k.Name, err)
	}
	lk := &loadedKernel{
		name:   k.Name,
		cfg:    cfg,
		params: make(map[string]int, len(k.Params)),
		regs:   k.RegTab,
		nRegs:  k.NRegs,
		nPreds: k.NPreds,
	}
	for i, p := range k.Params {
		lk.params[p.Name] = i
	}
	if lk.sharedOff, lk.sharedBytes, err = layOut(k, "shared", "a block", k.Shared, maxSharedBytes); err != nil {
		return nil, err
	}
	if lk.localOff, lk.localBytes, err = layOut(k, "local", "a thread", k.Local, maxLocalBytes); err != nil {
		return nil, err
	}
	for _, in := range cfg.Instrs {
		if in.Op == ptx.OpLog && in.Line > logging.MaxPC {
			return nil, fmt.Errorf("gpusim: %s line %d: a logged line is past %d, the largest record PC", k.Name, in.Line, logging.MaxPC)
		}
		if err := lk.checkShape(in); err != nil {
			return nil, fmt.Errorf("gpusim: %s line %d: %w", k.Name, in.Line, err)
		}
	}
	return lk, nil
}

// layOut places a kernel's variables of one space, each at its alignment
// after the one before, and fails past the space's bound.
func layOut(k *ptx.Kernel, space, per string, vars []ptx.VarDecl, bound int64) (map[string]uint64, int64, error) {
	offs := make(map[string]uint64, len(vars))
	var off int64
	for _, v := range vars {
		if a := int64(v.Align); a > 1 {
			a = min(a, bound+1) // an alignment past the bound only fits at 0
			off = (off + a - 1) / a * a
		}
		if off > bound || v.Size < 0 || v.Size > bound-off {
			return nil, 0, fmt.Errorf("gpusim: %s: .%s variables take more than %d bytes %s", k.Name, space, bound, per)
		}
		offs[v.Name] = uint64(off)
		off += v.Size
	}
	return offs, off, nil
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
		return o.Kind == ptx.OpndReg && lk.regs[o.Num].Pred == (in.Op == ptx.OpSetp)
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
