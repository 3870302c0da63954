package ptx

import (
	"fmt"
	"strings"
)

// Print renders the module as PTX text that Parse round-trips.
func Print(m *Module) string {
	var b strings.Builder
	if m.Version != "" {
		fmt.Fprintf(&b, ".version %s\n", m.Version)
	}
	if m.Target != "" {
		fmt.Fprintf(&b, ".target %s\n", m.Target)
	}
	fmt.Fprintf(&b, ".address_size %d\n\n", m.AddressSize)
	for _, d := range m.Globals {
		printVarDecl(&b, d, "")
	}
	for _, k := range m.Kernels {
		PrintKernel(&b, k)
		b.WriteByte('\n')
	}
	return b.String()
}

// PrintKernel renders one kernel.
func PrintKernel(b *strings.Builder, k *Kernel) {
	fmt.Fprintf(b, ".visible .entry %s(", k.Name)
	for i, pa := range k.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, ".param .%s %s", pa.Type, pa.Name)
	}
	b.WriteString(")\n{\n")
	for _, r := range k.Regs {
		fmt.Fprintf(b, "\t.reg .%s %s<%d>;\n", r.Type, r.Prefix, r.Count)
	}
	for _, d := range k.Shared {
		printVarDecl(b, d, "\t")
	}
	for _, d := range k.Local {
		printVarDecl(b, d, "\t")
	}
	for _, st := range k.Body {
		if st.Label != "" {
			fmt.Fprintf(b, "%s:\n", st.Label)
			continue
		}
		b.WriteByte('\t')
		b.WriteString(FormatInstr(st.Instr))
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
}

func printVarDecl(b *strings.Builder, d VarDecl, indent string) {
	space := "." + d.Space.String()
	if d.Align > 1 {
		fmt.Fprintf(b, "%s%s .align %d .b8 %s[%d];\n", indent, space, d.Align, d.Name, d.Size)
	} else {
		fmt.Fprintf(b, "%s%s .b8 %s[%d];\n", indent, space, d.Name, d.Size)
	}
}

// Mnemonic renders the dotted mnemonic of the instruction.
func Mnemonic(in *Instr) string {
	var parts []string
	parts = append(parts, in.Op.String())
	if in.Op == OpLog {
		parts = append(parts, in.LogK.String())
		if in.Space != SpaceNone {
			parts = append(parts, in.Space.String())
		}
		if in.AccSz > 0 {
			parts = append(parts, fmt.Sprintf("sz%d", in.AccSz))
		}
		return strings.Join(parts, ".")
	}
	if in.Uni {
		parts = append(parts, "uni")
	}
	if in.Volatile {
		parts = append(parts, "volatile")
	}
	if in.Space != SpaceNone {
		parts = append(parts, in.Space.String())
	}
	if in.Vec == 2 {
		parts = append(parts, "v2")
	} else if in.Vec == 4 {
		parts = append(parts, "v4")
	}
	if in.Level != "" {
		parts = append(parts, in.Level)
	}
	if in.Cache != CacheNone {
		parts = append(parts, in.Cache.String())
	}
	if in.Atom != AtomNone {
		parts = append(parts, in.Atom.String())
	}
	if in.Cmp != CmpNone {
		parts = append(parts, in.Cmp.String())
	}
	if in.Wide {
		parts = append(parts, "wide")
	}
	if in.Lo {
		parts = append(parts, "lo")
	}
	if in.Hi {
		parts = append(parts, "hi")
	}
	if in.Type != TypeNone {
		parts = append(parts, in.Type.String())
	}
	if in.Src != TypeNone {
		parts = append(parts, in.Src.String())
	}
	return strings.Join(parts, ".")
}

// FormatInstr renders one instruction as PTX text (without indentation).
func FormatInstr(in *Instr) string {
	var b strings.Builder
	if in.Guard != nil {
		b.WriteByte('@')
		if in.Guard.Neg {
			b.WriteByte('!')
		}
		b.WriteString(in.Guard.Reg)
		b.WriteByte(' ')
	}
	b.WriteString(Mnemonic(in))
	first := true
	sep := func() {
		if first {
			b.WriteByte(' ')
			first = false
		} else {
			b.WriteString(", ")
		}
	}
	writeOp := func(o Operand) {
		sep()
		b.WriteString(FormatOperand(o))
	}
	writeGroup := func(os []Operand) {
		sep()
		b.WriteByte('{')
		for i, o := range os {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(FormatOperand(o))
		}
		b.WriteByte('}')
	}
	switch {
	case in.Vec > 1 && in.Op == OpLd && in.HasDst:
		// ld.vN {d0..dN-1}, [addr]
		group := append([]Operand{in.Dst}, in.Args[:in.Vec-1]...)
		writeGroup(group)
		for _, a := range in.Args[in.Vec-1:] {
			writeOp(a)
		}
	case in.Vec > 1 && in.Op == OpSt && len(in.Args) > in.Vec:
		// st.vN [addr], {v0..vN-1}
		writeOp(in.Args[0])
		writeGroup(in.Args[1 : 1+in.Vec])
		for _, a := range in.Args[1+in.Vec:] {
			writeOp(a)
		}
	default:
		if in.HasDst {
			writeOp(in.Dst)
		}
		for _, a := range in.Args {
			writeOp(a)
		}
	}
	b.WriteByte(';')
	return b.String()
}

// FormatOperand renders one operand.
func FormatOperand(o Operand) string {
	switch o.Kind {
	case OpndReg:
		return o.Reg
	case OpndImm:
		return fmt.Sprintf("%d", o.Imm)
	case OpndFImm:
		s := fmt.Sprintf("%g", o.F)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case OpndSreg:
		return o.Sreg.String()
	case OpndMem:
		base := o.Reg
		if base == "" {
			base = o.Sym
		}
		if o.Off != 0 {
			return fmt.Sprintf("[%s+%d]", base, o.Off)
		}
		return fmt.Sprintf("[%s]", base)
	case OpndSym, OpndLabel:
		return o.Sym
	}
	return "?"
}
