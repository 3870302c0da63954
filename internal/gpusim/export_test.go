package gpusim

import (
	"fmt"
	"strings"

	"barracuda/internal/ptx"
)

// Layout describes where a loaded kernel keeps what it names: every
// register its instructions reference, first reference first, with its
// file and index; the sizes of the two register files; and each shared
// and local variable's offset and the spaces' sizes.
func Layout(mod *Module, name string) string {
	lk := mod.kernels[name]
	var b strings.Builder
	seen := map[string]bool{}
	reg := func(r string) {
		if r == "" || seen[r] {
			return
		}
		seen[r] = true
		for _, ri := range lk.regs {
			if ri.Name == r && ri.Pred {
				fmt.Fprintf(&b, "%s=p%d ", r, ri.Index)
			} else if ri.Name == r {
				fmt.Fprintf(&b, "%s=r%d ", r, ri.Index)
			}
		}
	}
	for _, in := range lk.cfg.Instrs {
		if in.Guard != nil {
			reg(in.Guard.Reg)
		}
		ops := in.Args
		if in.HasDst {
			ops = append([]ptx.Operand{in.Dst}, ops...)
		}
		for _, o := range ops {
			switch o.Kind {
			case ptx.OpndReg:
				reg(o.Reg)
			case ptx.OpndMem:
				reg(o.Reg)
			}
		}
	}
	fmt.Fprintf(&b, "\nfiles %d %d\n", lk.nRegs, lk.nPreds)
	k := mod.Src.Kernel(name)
	for _, v := range k.Shared {
		fmt.Fprintf(&b, "shared %s@%d ", v.Name, lk.sharedOff[v.Name])
	}
	for _, v := range k.Local {
		fmt.Fprintf(&b, "local %s@%d ", v.Name, lk.localOff[v.Name])
	}
	fmt.Fprintf(&b, "\nbytes %d %d\n", lk.sharedBytes, lk.localBytes)
	return b.String()
}

// regIndex is a register's index in the file the kernel lays it out in,
// whether or not an instruction names it.
func (lk *loadedKernel) regIndex(name string) int {
	for _, r := range lk.regs {
		if r.Name == name {
			return r.Index
		}
	}
	first := map[bool]int{} // each file's next declared index
	for _, rd := range lk.cfg.Kernel.Regs {
		pred := rd.Type == ptx.Pred
		for i := 0; i < rd.Count; i++ {
			if fmt.Sprintf("%s%d", rd.Prefix, i) == name {
				return first[pred] + i
			}
		}
		first[pred] += rd.Count
	}
	panic("no register " + name)
}

// Compile lowers a loaded kernel afresh, as its first launch does.
func Compile(mod *Module, name string) error {
	lk := mod.kernels[name]
	lk.code = nil
	_, err := mod.compile(lk)
	return err
}
