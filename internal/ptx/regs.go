package ptx

import "strings"

// RegInfo is one entry of a kernel's register table: a register the
// body references, and its place in the register files the simulator
// lays the kernel out in.
type RegInfo struct {
	Name  string
	Pred  bool // in the predicate file, else in the general file
	Index int  // index in its file
}

// NumberRegs numbers the registers k's body references, once: each
// register operand, memory base and guard gets its register's index in
// k.RegTab (Operand.Num, Guard.Num), and each table entry its file and
// index. The files hold the declarations first, whole and in order
// (`.reg .u32 %r<4>` is %r0 … %r3, a name two of them produce is the
// first's), then the undeclared registers in order of first reference: a
// guard's in the predicate file, a memory base's in the general file, and
// any other in the predicate file when its name starts %p but not %pd.
//
// Parse and ApplyEdits number the kernels they make, and kernel.Build a
// hand-built one. A numbered kernel is never renumbered, so instructions
// must not change their registers after it.
func (k *Kernel) NumberRegs() {
	if k.numbered {
		return
	}
	k.numbered = true
	// Each declaration's first index in its file, and in slots: the
	// declarations' registers numbered through, all files together.
	first := make([]int, 2*len(k.Regs))
	first, slot := first[:len(k.Regs)], first[len(k.Regs):]
	k.NRegs, k.NPreds = 0, 0
	nslots := 0
	for i, rd := range k.Regs {
		n := max(rd.Count, 0)
		if rd.Type == Pred {
			first[i], k.NPreds = k.NPreds, k.NPreds+n
		} else {
			first[i], k.NRegs = k.NRegs, k.NRegs+n
		}
		slot[i], nslots = nslots, min(nslots+min(n, 1<<30), 1<<30)
	}
	// Each register's number in k.RegTab, plus one: a declared register's
	// by slot, up to as many slots as a body of this size is likely to
	// name (a declaration may ask for millions), and any other by name.
	bySlot := make([]int32, min(nslots, 4*len(k.Body)+64))
	var byName map[string]int32
	ref := func(name string, guard, base bool) int32 {
		i, n, declared := k.declared(name)
		s := len(bySlot)
		if declared {
			s = min(slot[i]+n, s)
		}
		if s < len(bySlot) && bySlot[s] != 0 {
			return bySlot[s] - 1
		}
		if num, ok := byName[name]; ok && s == len(bySlot) {
			return num - 1
		}
		r := RegInfo{Name: name}
		switch {
		case declared:
			r.Pred, r.Index = k.Regs[i].Type == Pred, first[i]+n
		case guard || !base && isPredName(name):
			r.Pred, r.Index, k.NPreds = true, k.NPreds, k.NPreds+1
		default:
			r.Index, k.NRegs = k.NRegs, k.NRegs+1
		}
		k.RegTab = append(k.RegTab, r)
		num := int32(len(k.RegTab))
		if s < len(bySlot) {
			bySlot[s] = num
		} else {
			if byName == nil {
				byName = make(map[string]int32)
			}
			byName[name] = num
		}
		return num - 1
	}
	operand := func(o *Operand) {
		switch {
		case o.Kind == OpndReg:
			o.Num = ref(o.Reg, false, false)
		case o.Kind == OpndMem && o.Reg != "":
			o.Num = ref(o.Reg, false, true)
		}
	}
	for _, st := range k.Body {
		in := st.Instr
		if in == nil {
			continue
		}
		if in.Guard != nil {
			in.Guard.Num = ref(in.Guard.Reg, true, false)
		}
		if in.HasDst {
			operand(&in.Dst)
		}
		for i := range in.Args {
			operand(&in.Args[i])
		}
	}
}

// declared finds the first of k's declarations that produces a register,
// and the register's place in it.
func (k *Kernel) declared(name string) (decl, n int, ok bool) {
	for i, rd := range k.Regs {
		if rest, ok := strings.CutPrefix(name, rd.Prefix); ok {
			if n, ok := decimal(rest); ok && n < rd.Count {
				return i, n, true
			}
		}
	}
	return 0, 0, false
}

// isPredName reports whether an undeclared register's name makes it a
// predicate (%p, but not %pd).
func isPredName(name string) bool {
	return strings.HasPrefix(name, "%p") && !strings.HasPrefix(name, "%pd")
}

// decimal parses s as a declaration would print the number: decimal
// digits without a leading zero.
func decimal(s string) (int, bool) {
	if s == "" || len(s) > 9 || s[0] == '0' && len(s) > 1 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}
