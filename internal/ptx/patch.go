package ptx

import (
	"fmt"
	"sort"
)

// This file implements positional patching of parsed modules: deep
// cloning, and application of instruction-level edits expressed against
// a kernel's flat instruction stream (the index space used by
// kernel.CFG and the static analyses). Patched modules keep the
// original instructions' Line/Col fields, so dynamic race reports from
// a patched module remain comparable with reports from the original.

// CloneModule returns a deep copy of m. Mutating the copy (or applying
// edits to it) never aliases into the original.
func CloneModule(m *Module) *Module {
	out := &Module{
		Version:     m.Version,
		Target:      m.Target,
		AddressSize: m.AddressSize,
	}
	out.Globals = append([]VarDecl(nil), m.Globals...)
	for _, k := range m.Kernels {
		out.Kernels = append(out.Kernels, CloneKernel(k))
	}
	return out
}

// CloneKernel returns a deep copy of k.
func CloneKernel(k *Kernel) *Kernel {
	out := &Kernel{Name: k.Name, RegTab: k.RegTab, NRegs: k.NRegs, NPreds: k.NPreds, numbered: k.numbered}
	out.Params = append([]Param(nil), k.Params...)
	out.Regs = append([]RegDecl(nil), k.Regs...)
	out.Shared = append([]VarDecl(nil), k.Shared...)
	out.Local = append([]VarDecl(nil), k.Local...)
	out.Body = make([]Stmt, len(k.Body))
	for i, st := range k.Body {
		out.Body[i] = Stmt{Label: st.Label, Line: st.Line, Col: st.Col}
		if st.Instr != nil {
			out.Body[i].Instr = CloneInstr(st.Instr)
		}
	}
	return out
}

// CloneInstr returns a deep copy of one instruction.
func CloneInstr(in *Instr) *Instr {
	cp := *in
	if in.Guard != nil {
		g := *in.Guard
		cp.Guard = &g
	}
	cp.Args = append([]Operand(nil), in.Args...)
	return &cp
}

// Edit is one positional patch against a kernel's flat instruction
// stream (labels excluded, as in Kernel.Instrs). An edit first removes
// Remove instructions starting at index At, then inserts Ins there.
//
// The After flag controls placement relative to labels, which matters
// because acquire/release fence inference (package trace) only pairs a
// fence with an adjacent access in the same basic block:
//
//   - After=false inserts *before* instruction At but *after* any labels
//     preceding it, so the insertion lands at the top of At's block.
//   - After=true inserts *after* instruction At but *before* any labels
//     following it, so the insertion stays in At's block.
//
// At == len(instrs) with After=false appends at the end of the body.
type Edit struct {
	Kernel string
	At     int
	After  bool
	Remove int
	Ins    []*Instr
}

// ApplyEdits returns a deep copy of m with the edits applied, and each
// edited kernel numbered afresh; m itself, and the edits' instructions,
// are never modified. Edits may target multiple kernels. Within one
// kernel, edits are applied highest-index first so that every edit's At
// refers to the original instruction numbering. Two edits inserting at
// the same position keep their slice order. Removal ranges must not
// overlap and must not span a label.
func ApplyEdits(m *Module, edits []Edit) (*Module, error) {
	out := CloneModule(m)
	byKernel := make(map[string][]Edit)
	for _, e := range edits {
		byKernel[e.Kernel] = append(byKernel[e.Kernel], e)
	}
	for name, kes := range byKernel {
		k := out.Kernel(name)
		if k == nil {
			return nil, fmt.Errorf("ptx: edit targets unknown kernel %q", name)
		}
		if err := applyKernelEdits(k, kes); err != nil {
			return nil, fmt.Errorf("ptx: kernel %s: %w", name, err)
		}
		k.RegTab, k.numbered = nil, false
		k.NumberRegs()
	}
	return out, nil
}

func applyKernelEdits(k *Kernel, edits []Edit) error {
	// Map flat instruction index -> body statement index.
	var stmtOf []int
	for si := range k.Body {
		if k.Body[si].Instr != nil {
			stmtOf = append(stmtOf, si)
		}
	}
	n := len(stmtOf)
	for _, e := range edits {
		if e.At < 0 || e.At > n || (e.After && e.At >= n) {
			return fmt.Errorf("edit at %d out of range (kernel has %d instructions)", e.At, n)
		}
		if e.Remove < 0 || e.At+e.Remove > n {
			return fmt.Errorf("edit at %d removes %d past end", e.At, e.Remove)
		}
		if e.Remove > 0 && e.After {
			return fmt.Errorf("edit at %d: Remove with After is unsupported", e.At)
		}
		// A removal range must be label-free so block structure stays
		// locally intact: removed statements must be contiguous.
		if e.Remove > 1 && stmtOf[e.At+e.Remove-1]-stmtOf[e.At] != e.Remove-1 {
			return fmt.Errorf("edit at %d: removal range crosses a label", e.At)
		}
	}
	// Apply highest anchor first; stable sort keeps same-position edits
	// in slice order after the reversed application below.
	sorted := append([]Edit(nil), edits...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At > sorted[j].At })
	// Same-At edits: applying in reverse slice order at one position
	// leaves the earliest edit's instructions first in the output.
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].At == sorted[i].At {
			j++
		}
		for kk := j - 1; kk >= i; kk-- {
			applyOne(k, stmtOf, sorted[kk])
		}
		i = j
	}
	return nil
}

func applyOne(k *Kernel, stmtOf []int, e Edit) {
	var pos int
	switch {
	case e.At == len(stmtOf):
		pos = len(k.Body)
	case e.After:
		pos = stmtOf[e.At] + 1
	default:
		pos = stmtOf[e.At]
	}
	tail := k.Body[pos+e.Remove:]
	head := k.Body[:pos]
	var ins []Stmt
	for _, in := range e.Ins {
		ins = append(ins, Stmt{Instr: CloneInstr(in), Line: in.Line, Col: in.Col})
	}
	body := make([]Stmt, 0, len(head)+len(ins)+len(tail))
	body = append(body, head...)
	body = append(body, ins...)
	body = append(body, tail...)
	k.Body = body
}

// NewBarSync builds a `bar.sync 0;` instruction anchored to the given
// source line (the line of the instruction it is inserted next to, so
// diffs and race reports stay readable).
func NewBarSync(line int) *Instr {
	return &Instr{Op: OpBar, Level: "sync", Args: []Operand{ImmOp(0)}, Line: line}
}

// NewMembar builds a `membar.{cta,gl}` instruction. Global scope orders
// global-space traffic; cta scope suffices for shared memory.
func NewMembar(level string, line int) *Instr {
	return &Instr{Op: OpMembar, Level: level, Line: line}
}
