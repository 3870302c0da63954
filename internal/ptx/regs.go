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
	first := make([]int, len(k.Regs)) // each declaration's first index in its file
	k.NRegs, k.NPreds = 0, 0
	for i, rd := range k.Regs {
		if rd.Type == Pred {
			first[i], k.NPreds = k.NPreds, k.NPreds+max(rd.Count, 0)
		} else {
			first[i], k.NRegs = k.NRegs, k.NRegs+max(rd.Count, 0)
		}
	}
	num := make(map[string]int32)
	ref := func(name string, guard, base bool) int32 {
		if n, ok := num[name]; ok {
			return n
		}
		r, ok := k.declared(name, first)
		if !ok {
			r = RegInfo{Name: name, Pred: guard || !base && isPredName(name)}
			if r.Pred {
				r.Index, k.NPreds = k.NPreds, k.NPreds+1
			} else {
				r.Index, k.NRegs = k.NRegs, k.NRegs+1
			}
		}
		n := int32(len(k.RegTab))
		k.RegTab = append(k.RegTab, r)
		num[name] = n
		return n
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

// declared places a register one of k's declarations produces, the i-th
// of which starts at first[i] in its file, or reports that none does.
func (k *Kernel) declared(name string, first []int) (RegInfo, bool) {
	for i, rd := range k.Regs {
		rest, ok := strings.CutPrefix(name, rd.Prefix)
		if !ok {
			continue
		}
		if n, ok := decimal(rest); ok && n < rd.Count {
			return RegInfo{Name: name, Pred: rd.Type == Pred, Index: first[i] + n}, true
		}
	}
	return RegInfo{}, false
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
