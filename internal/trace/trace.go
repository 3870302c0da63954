// Package trace defines BARRACUDA's abstract trace operations (§3.1) and
// the static inference that translates PTX instructions into them.
//
// A program execution is modeled as a sequence of operations:
//
//	rd(t,x) wr(t,x)                      thread-level memory accesses
//	endi(w)                              end of a warp instruction
//	if(w) else(w) fi(w)                  warp branch operations
//	bar(b)                               block-level barrier
//	atm(t,x)                             standalone atomic RMW
//	acqBlk/relBlk/arBlk(t,x)             block-scoped synchronization
//	acqGlb/relGlb/arGlb(t,x)             global-scoped synchronization
//
// The synchronization operations are inferred from fence adjacency in
// static code: a store immediately preceded by a membar becomes a release,
// a load immediately followed by a membar becomes an acquire, atom.cas
// followed by a fence is an acquire, atom.exch preceded by a fence is a
// release, and an atomic sandwiched between fences is both. The fence kind
// (membar.cta vs membar.gl/sys) selects block or global scope.
package trace

import (
	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
)

// OpKind identifies a trace operation.
type OpKind uint8

// Trace operation kinds. The *Blk/*Glb groups must stay contiguous: scope
// and role helpers rely on the ordering.
const (
	OpNone OpKind = iota
	OpRead
	OpWrite
	OpAtom
	OpAcqBlk
	OpRelBlk
	OpArBlk
	OpAcqGlb
	OpRelGlb
	OpArGlb
	OpBar
	OpBarRel // block barrier released (synthesized; mask = arrived warps)
	OpIf
	OpElse
	OpFi
	OpEnd // end-of-stream sentinel (kernel completed)
)

var kindNames = map[OpKind]string{
	OpRead: "rd", OpWrite: "wr", OpAtom: "atm",
	OpAcqBlk: "acqBlk", OpRelBlk: "relBlk", OpArBlk: "arBlk",
	OpAcqGlb: "acqGlb", OpRelGlb: "relGlb", OpArGlb: "arGlb",
	OpBar: "bar", OpBarRel: "barRel", OpIf: "if", OpElse: "else",
	OpFi: "fi", OpEnd: "end",
}

func (k OpKind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return "?"
}

// IsAcquire reports whether the op has acquire semantics.
func (k OpKind) IsAcquire() bool {
	return k == OpAcqBlk || k == OpArBlk || k == OpAcqGlb || k == OpArGlb
}

// IsRelease reports whether the op has release semantics.
func (k OpKind) IsRelease() bool {
	return k == OpRelBlk || k == OpArBlk || k == OpRelGlb || k == OpArGlb
}

// IsSync reports whether the op is an acquire/release synchronization op.
func (k OpKind) IsSync() bool { return k.IsAcquire() || k.IsRelease() }

// GlobalScope reports whether a synchronization op uses a global fence.
func (k OpKind) GlobalScope() bool {
	return k == OpAcqGlb || k == OpRelGlb || k == OpArGlb
}

// IsMemory reports whether the op is a thread-level memory operation
// (read, write, atomic, or synchronization access).
func (k OpKind) IsMemory() bool {
	return k == OpRead || k == OpWrite || k == OpAtom || k.IsSync()
}

// Writes reports whether the op writes its location. Acquire-only ops read;
// release and acquire-release ops write; atomics write.
func (k OpKind) Writes() bool {
	switch k {
	case OpWrite, OpAtom, OpRelBlk, OpRelGlb, OpArBlk, OpArGlb:
		return true
	}
	return false
}

// LogKind maps the trace op kind to the instrumentation pseudo-op kind.
func (k OpKind) LogKind() ptx.LogKind {
	switch k {
	case OpRead:
		return ptx.LogRead
	case OpWrite:
		return ptx.LogWrite
	case OpAtom:
		return ptx.LogAtom
	case OpAcqBlk:
		return ptx.LogAcqBlk
	case OpRelBlk:
		return ptx.LogRelBlk
	case OpArBlk:
		return ptx.LogArBlk
	case OpAcqGlb:
		return ptx.LogAcqGlb
	case OpRelGlb:
		return ptx.LogRelGlb
	case OpArGlb:
		return ptx.LogArGlb
	case OpBar:
		return ptx.LogBar
	case OpIf:
		return ptx.LogIf
	case OpElse:
		return ptx.LogElse
	case OpFi:
		return ptx.LogFi
	}
	return ptx.LogNone
}

// FromLogKind maps an instrumentation pseudo-op kind back to the trace op.
func FromLogKind(k ptx.LogKind) OpKind {
	switch k {
	case ptx.LogRead:
		return OpRead
	case ptx.LogWrite:
		return OpWrite
	case ptx.LogAtom:
		return OpAtom
	case ptx.LogAcqBlk:
		return OpAcqBlk
	case ptx.LogRelBlk:
		return OpRelBlk
	case ptx.LogArBlk:
		return OpArBlk
	case ptx.LogAcqGlb:
		return OpAcqGlb
	case ptx.LogRelGlb:
		return OpRelGlb
	case ptx.LogArGlb:
		return OpArGlb
	case ptx.LogBar:
		return OpBar
	case ptx.LogIf:
		return OpIf
	case ptx.LogElse:
		return OpElse
	case ptx.LogFi:
		return OpFi
	}
	return OpNone
}

// fenceScopeGlobal reports whether in is a fence and whether it is
// global-scoped. System-level fences are treated as global fences (we focus
// on intra-kernel races, footnote 1 of the paper).
func fenceScope(in *ptx.Instr) (isFence, global bool) {
	if in.Op != ptx.OpMembar {
		return false, false
	}
	return true, in.Level == "gl" || in.Level == "sys"
}

// Classify gives each instruction of the CFG's flat instruction stream,
// by index, the trace operation it should log: OpNone for everything but
// memory accesses and barriers. Fence instructions themselves map to
// nothing: their effect is folded into the adjacent access. Adjacency is
// static within a basic block.
func Classify(c *kernel.CFG) []OpKind {
	out := make([]OpKind, len(c.Instrs))
	ins := c.Instrs
	// prevInBlock / nextInBlock respect basic-block boundaries: a fence in
	// a different block is not "immediately" adjacent in static code.
	sameBlock := func(i, j int) bool {
		return j >= 0 && j < len(ins) && c.BlockOf[i] == c.BlockOf[j]
	}
	for i, in := range ins {
		switch in.Op {
		case ptx.OpBar:
			out[i] = OpBar
		case ptx.OpLd:
			if !in.MemoryAccess() {
				continue
			}
			if sameBlock(i, i+1) {
				if f, g := fenceScope(ins[i+1]); f {
					if g {
						out[i] = OpAcqGlb
					} else {
						out[i] = OpAcqBlk
					}
					continue
				}
			}
			out[i] = OpRead
		case ptx.OpSt:
			if !in.MemoryAccess() {
				continue
			}
			if sameBlock(i, i-1) {
				if f, g := fenceScope(ins[i-1]); f {
					if g {
						out[i] = OpRelGlb
					} else {
						out[i] = OpRelBlk
					}
					continue
				}
			}
			out[i] = OpWrite
		case ptx.OpAtom, ptx.OpRed:
			if !in.MemoryAccess() {
				continue
			}
			fBefore, gBefore := false, false
			fAfter, gAfter := false, false
			if sameBlock(i, i-1) {
				fBefore, gBefore = fenceScope(ins[i-1])
			}
			if sameBlock(i, i+1) {
				fAfter, gAfter = fenceScope(ins[i+1])
			}
			switch {
			case fBefore && fAfter:
				if gBefore || gAfter {
					out[i] = OpArGlb
				} else {
					out[i] = OpArBlk
				}
			case in.Atom == ptx.AtomCas && fAfter:
				if gAfter {
					out[i] = OpAcqGlb
				} else {
					out[i] = OpAcqBlk
				}
			case in.Atom == ptx.AtomExch && fBefore:
				if gBefore {
					out[i] = OpRelGlb
				} else {
					out[i] = OpRelBlk
				}
			default:
				out[i] = OpAtom
			}
		}
	}
	return out
}
