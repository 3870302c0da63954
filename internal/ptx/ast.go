// Package ptx implements a lexer, parser, typed AST and printer for the
// subset of Nvidia's PTX virtual assembly language that BARRACUDA's
// semantics (PLDI 2017, §2–3) assigns meaning to: loads and stores with
// memory-space and cache-operator modifiers, atomics, memory fences,
// barriers, predicated instructions, branches, and the arithmetic core.
//
// The package also defines the `_log.*` pseudo-instructions that the
// instrumentation framework (package instrument) inserts; they are part of
// the instruction stream executed by the simulator but are printed with a
// leading underscore so instrumented modules remain round-trippable.
package ptx

import "fmt"

// Op identifies an instruction's base mnemonic.
type Op uint8

// Base mnemonics of the supported PTX subset.
const (
	OpInvalid Op = iota
	OpLd
	OpSt
	OpMov
	OpAdd
	OpSub
	OpMul
	OpMad
	OpDiv
	OpRem
	OpMin
	OpMax
	OpAnd
	OpOr
	OpXor
	OpNot
	OpNeg
	OpShl
	OpShr
	OpSetp
	OpSelp
	OpCvt
	OpCvta
	OpBra
	OpBar
	OpMembar
	OpAtom
	OpRed
	OpRet
	OpExit
	OpLog // `_log.*` pseudo-instruction inserted by the instrumenter
)

var opNames = map[Op]string{
	OpLd: "ld", OpSt: "st", OpMov: "mov", OpAdd: "add", OpSub: "sub",
	OpMul: "mul", OpMad: "mad", OpDiv: "div", OpRem: "rem", OpMin: "min",
	OpMax: "max", OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpNeg: "neg", OpShl: "shl", OpShr: "shr", OpSetp: "setp",
	OpSelp: "selp", OpCvt: "cvt", OpCvta: "cvta", OpBra: "bra",
	OpBar: "bar", OpMembar: "membar", OpAtom: "atom", OpRed: "red",
	OpRet: "ret", OpExit: "exit", OpLog: "_log",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Space is a PTX state space.
type Space uint8

// Memory state spaces.
const (
	SpaceNone Space = iota
	SpaceGlobal
	SpaceShared
	SpaceLocal
	SpaceParam
	SpaceConst
)

var spaceNames = map[Space]string{
	SpaceGlobal: "global", SpaceShared: "shared", SpaceLocal: "local",
	SpaceParam: "param", SpaceConst: "const",
}

func (s Space) String() string {
	if n, ok := spaceNames[s]; ok {
		return n
	}
	return "generic"
}

// CacheOp is a load/store cache operator (.cg skips the incoherent L1).
type CacheOp uint8

// Cache operators.
const (
	CacheNone CacheOp = iota
	CacheCA           // cache at all levels
	CacheCG           // cache global (skip L1)
	CacheCS           // cache streaming
	CacheCV           // don't cache, volatile
	CacheWB           // write-back
	CacheWT           // write-through
)

var cacheNames = map[CacheOp]string{
	CacheCA: "ca", CacheCG: "cg", CacheCS: "cs", CacheCV: "cv",
	CacheWB: "wb", CacheWT: "wt",
}

func (c CacheOp) String() string {
	if n, ok := cacheNames[c]; ok {
		return n
	}
	return ""
}

// Type is a PTX scalar type.
type Type uint8

// Scalar types.
const (
	TypeNone Type = iota
	U8
	U16
	U32
	U64
	S8
	S16
	S32
	S64
	B8
	B16
	B32
	B64
	F32
	F64
	Pred
)

var typeNames = map[Type]string{
	U8: "u8", U16: "u16", U32: "u32", U64: "u64",
	S8: "s8", S16: "s16", S32: "s32", S64: "s64",
	B8: "b8", B16: "b16", B32: "b32", B64: "b64",
	F32: "f32", F64: "f64", Pred: "pred",
}

func (t Type) String() string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return "?"
}

// Size returns the width of the type in bytes (0 for predicates).
func (t Type) Size() int {
	switch t {
	case U8, S8, B8:
		return 1
	case U16, S16, B16:
		return 2
	case U32, S32, B32, F32:
		return 4
	case U64, S64, B64, F64:
		return 8
	}
	return 0
}

// Signed reports whether the type uses signed integer interpretation.
func (t Type) Signed() bool { return t == S8 || t == S16 || t == S32 || t == S64 }

// Float reports whether the type is floating point.
func (t Type) Float() bool { return t == F32 || t == F64 }

// CmpOp is a setp comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	CmpNone CmpOp = iota
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var cmpNames = map[CmpOp]string{
	CmpEQ: "eq", CmpNE: "ne", CmpLT: "lt", CmpLE: "le", CmpGT: "gt", CmpGE: "ge",
}

func (c CmpOp) String() string {
	if n, ok := cmpNames[c]; ok {
		return n
	}
	return "?"
}

// AtomOp is an atomic read-modify-write operator.
type AtomOp uint8

// Atomic operators. Exch and Cas receive the lock-idiom treatment in
// acquire/release inference (§3.1).
const (
	AtomNone AtomOp = iota
	AtomAdd
	AtomExch
	AtomCas
	AtomMin
	AtomMax
	AtomAnd
	AtomOr
	AtomXor
	AtomInc
	AtomDec
)

var atomNames = map[AtomOp]string{
	AtomAdd: "add", AtomExch: "exch", AtomCas: "cas", AtomMin: "min",
	AtomMax: "max", AtomAnd: "and", AtomOr: "or", AtomXor: "xor",
	AtomInc: "inc", AtomDec: "dec",
}

func (a AtomOp) String() string {
	if n, ok := atomNames[a]; ok {
		return n
	}
	return "?"
}

// Sreg is a special (read-only) register.
type Sreg uint8

// Special registers. Axis-indexed registers encode the axis in the low bits.
const (
	SregNone Sreg = iota
	SregTidX
	SregTidY
	SregTidZ
	SregNtidX
	SregNtidY
	SregNtidZ
	SregCtaidX
	SregCtaidY
	SregCtaidZ
	SregNctaidX
	SregNctaidY
	SregNctaidZ
	SregLaneid
	SregWarpid
	SregWarpSize
)

var sregNames = map[Sreg]string{
	SregTidX: "%tid.x", SregTidY: "%tid.y", SregTidZ: "%tid.z",
	SregNtidX: "%ntid.x", SregNtidY: "%ntid.y", SregNtidZ: "%ntid.z",
	SregCtaidX: "%ctaid.x", SregCtaidY: "%ctaid.y", SregCtaidZ: "%ctaid.z",
	SregNctaidX: "%nctaid.x", SregNctaidY: "%nctaid.y", SregNctaidZ: "%nctaid.z",
	SregLaneid: "%laneid", SregWarpid: "%warpid", SregWarpSize: "WARP_SZ",
}

func (s Sreg) String() string {
	if n, ok := sregNames[s]; ok {
		return n
	}
	return "%?"
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	OpndReg   OperandKind = iota // general or predicate register, e.g. %r1
	OpndImm                      // integer immediate
	OpndFImm                     // floating-point immediate
	OpndSreg                     // special register
	OpndMem                      // memory operand [base+off]
	OpndSym                      // symbol reference (variable or param name)
	OpndLabel                    // branch target label
)

// Operand is one instruction operand.
type Operand struct {
	Kind OperandKind
	Sreg Sreg
	// Num is the index in its kernel's register table (Kernel.RegTab) of
	// Reg, when Reg names a register; set when the kernel is numbered.
	Num int32
	// Reg is the register of an OpndReg, and the base register of an
	// OpndMem; Sym is the name of an OpndSym or OpndLabel, and the base
	// symbol of an OpndMem. A memory operand has exactly one of the two.
	Reg string
	Sym string
	Imm int64 // OpndImm
	F   float64
	Off int64 // OpndMem
}

// Reg constructs a register operand.
func RegOp(name string) Operand { return Operand{Kind: OpndReg, Reg: name} }

// ImmOp constructs an integer immediate operand.
func ImmOp(v int64) Operand { return Operand{Kind: OpndImm, Imm: v} }

// SregOp constructs a special-register operand.
func SregOp(s Sreg) Operand { return Operand{Kind: OpndSreg, Sreg: s} }

// MemReg constructs a [reg+off] memory operand.
func MemReg(reg string, off int64) Operand {
	return Operand{Kind: OpndMem, Reg: reg, Off: off}
}

// LabelOp constructs a label-reference operand.
func LabelOp(name string) Operand { return Operand{Kind: OpndLabel, Sym: name} }

// Guard is an instruction predicate guard (@%p or @!%p).
type Guard struct {
	Reg string // predicate register including '%'
	Num int32  // Reg's index in the kernel's register table
	Neg bool   // @!%p
}

// LogKind identifies a `_log` pseudo-instruction variety. The concrete
// trace-operation mapping lives in package trace; the instrumenter chooses
// the kind statically.
type LogKind uint8

// Log kinds inserted by the instrumenter.
const (
	LogNone LogKind = iota
	LogRead
	LogWrite
	LogAtom
	LogAcqBlk
	LogRelBlk
	LogArBlk
	LogAcqGlb
	LogRelGlb
	LogArGlb
	LogBar
	LogIf
	LogElse
	LogFi
)

var logNames = map[LogKind]string{
	LogRead: "rd", LogWrite: "wr", LogAtom: "atm",
	LogAcqBlk: "acqblk", LogRelBlk: "relblk", LogArBlk: "arblk",
	LogAcqGlb: "acqglb", LogRelGlb: "relglb", LogArGlb: "arglb",
	LogBar: "bar", LogIf: "if", LogElse: "else", LogFi: "fi",
}

func (k LogKind) String() string {
	if n, ok := logNames[k]; ok {
		return n
	}
	return "?"
}

// Instr is a single PTX instruction.
type Instr struct {
	Guard *Guard // optional @%p predicate guard

	Op       Op
	Space    Space
	Cache    CacheOp
	Type     Type
	Src      Type // cvt source type
	Cmp      CmpOp
	Atom     AtomOp
	LogK     LogKind // _log pseudo-instruction kind
	Wide     bool    // mul.wide / mad.wide
	Lo       bool    // mul.lo / mad.lo
	Hi       bool    // mul.hi
	Uni      bool    // bra.uni
	Volatile bool    // ld.volatile / st.volatile
	HasDst   bool
	Vec      int     // vector width for ld/st .v2/.v4 (0 = scalar)
	Level    string  // membar: cta|gl|sys, bar: sync, cvta: to
	AccSz    int     // _log.{rd,wr,...}: access size in bytes
	Dst      Operand // destination (zero Operand when none)
	Args     []Operand
	Line     int // 1-based source line, 0 when synthesized
	Col      int // 1-based source column, 0 when synthesized
}

// MemoryAccess reports whether the instruction reads or writes memory
// that BARRACUDA instruments: the global and shared spaces. Local memory
// is thread-private and cannot race, so it is executed but never logged.
func (in *Instr) MemoryAccess() bool {
	switch in.Op {
	case OpLd, OpSt, OpAtom, OpRed:
		return in.Space == SpaceGlobal || in.Space == SpaceShared
	}
	return false
}

// AddrOperand returns the memory operand of a load/store/atomic and true,
// or a zero operand and false for other instructions. For vector loads the
// address follows the extra destination registers in Args.
func (in *Instr) AddrOperand() (Operand, bool) {
	switch in.Op {
	case OpLd, OpSt, OpAtom, OpRed, OpLog:
		for _, a := range in.Args {
			if a.Kind == OpndMem {
				return a, true
			}
		}
	}
	return Operand{}, false
}

// Defs calls f with the number (Operand.Num) of every register the
// instruction writes: its destination and, for a vector load
// `ld.vN {d0, …, dN-1}, [a]`, the N-1 further destinations that lead its
// Args.
func (in *Instr) Defs(f func(reg int32)) {
	if !in.HasDst || in.Dst.Kind != OpndReg {
		return
	}
	f(in.Dst.Num)
	for i := 0; in.Op == OpLd && i < in.Vec-1 && i < len(in.Args); i++ {
		if in.Args[i].Kind == OpndReg {
			f(in.Args[i].Num)
		}
	}
}

// AccessBytes returns the total bytes touched by a memory instruction
// (the element size times the vector width).
func (in *Instr) AccessBytes() int {
	n := in.Type.Size()
	if in.Vec > 1 {
		n *= in.Vec
	}
	return n
}

// Stmt is a body statement: either a label definition or an instruction.
type Stmt struct {
	Label string // non-empty for a label statement
	Instr *Instr // non-nil for an instruction statement
	Line  int
	Col   int
}

// Param is a kernel parameter declaration.
type Param struct {
	Name string
	Type Type
}

// RegDecl is a `.reg .u32 %r<10>;` declaration.
type RegDecl struct {
	Type   Type
	Prefix string // e.g. "%r"
	Count  int
}

// VarDecl is a `.shared`/`.global` array declaration.
type VarDecl struct {
	Space Space
	Align int
	Name  string
	Size  int64 // bytes
}

// Kernel is one `.entry` function.
type Kernel struct {
	Name   string
	Params []Param
	Regs   []RegDecl
	Shared []VarDecl
	Local  []VarDecl // per-thread .local declarations
	Body   []Stmt

	// The register numbering (NumberRegs): each register the body names,
	// once, and the sizes of the general and predicate register files.
	RegTab        []RegInfo
	NRegs, NPreds int
	numbered      bool
}

// Instrs returns the kernel's instructions in order (labels skipped).
func (k *Kernel) Instrs() []*Instr {
	var out []*Instr
	for i := range k.Body {
		if k.Body[i].Instr != nil {
			out = append(out, k.Body[i].Instr)
		}
	}
	return out
}

// SharedBytes returns the total static shared-memory footprint.
func (k *Kernel) SharedBytes() int64 { return varBytes(k.Shared) }

// LocalBytes returns the per-thread local-memory footprint.
func (k *Kernel) LocalBytes() int64 { return varBytes(k.Local) }

func varBytes(decls []VarDecl) int64 {
	var n int64
	for _, d := range decls {
		a := int64(d.Align)
		if a > 1 {
			n = (n + a - 1) / a * a
		}
		n += d.Size
	}
	return n
}

// Module is a parsed PTX translation unit.
type Module struct {
	Version     string
	Target      string
	AddressSize int
	Globals     []VarDecl
	Kernels     []*Kernel
}

// Kernel returns the kernel with the given name, or nil.
func (m *Module) Kernel(name string) *Kernel {
	for _, k := range m.Kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// StaticInstrCount returns the number of static instructions across all
// kernels (Table 1, column 2).
func (m *Module) StaticInstrCount() int {
	n := 0
	for _, k := range m.Kernels {
		n += len(k.Instrs())
	}
	return n
}
