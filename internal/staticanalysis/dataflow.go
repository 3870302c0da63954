package staticanalysis

import (
	"maps"
	"slices"

	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
)

// Problem describes a forward dataflow problem over a kernel CFG. States
// are treated as immutable values: Join and Transfer must return fresh
// states rather than mutating their inputs, and Clone must produce an
// independent copy.
type Problem[S any] struct {
	Entry    func() S                      // state at the entry block's start
	Join     func(a, b S) S                // meet of two predecessor out-states
	Clone    func(s S) S                   // independent copy
	Transfer func(b *kernel.Block, in S) S // flow function for one block
	Equal    func(a, b S) bool             // fixed-point test
}

// FlowResult holds the fixed point of a forward dataflow solve.
type FlowResult[S any] struct {
	In, Out []S
	Reached []bool // false for blocks unreachable from the entry
}

// SolveForward runs a worklist iteration to a fixed point. Blocks
// unreachable from the entry are never visited: they keep zero-value
// states and Reached == false, so clients must treat them conservatively
// (the lint pass reports them as dead code instead).
func SolveForward[S any](c *kernel.CFG, p Problem[S]) *FlowResult[S] {
	n := len(c.Blocks)
	r := &FlowResult[S]{In: make([]S, n), Out: make([]S, n), Reached: make([]bool, n)}
	work := make([]int, 0, n)
	inWork := make([]bool, n)
	push := func(b int) {
		if !inWork[b] {
			inWork[b] = true
			work = append(work, b)
		}
	}
	push(0)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false

		var in S
		seeded := false
		if b == 0 {
			in = p.Entry()
			seeded = true
		}
		for _, pr := range c.Blocks[b].Preds {
			if !r.Reached[pr] {
				continue // unreachable or not yet processed: contributes nothing
			}
			if !seeded {
				in = p.Clone(r.Out[pr])
				seeded = true
			} else {
				in = p.Join(in, r.Out[pr])
			}
		}
		if !seeded {
			// Only possible for the entry (handled above) or a block whose
			// every predecessor is unprocessed; it will be re-pushed when
			// one of them completes.
			continue
		}
		r.In[b] = in
		out := p.Transfer(c.Blocks[b], in)
		if !r.Reached[b] || !p.Equal(out, r.Out[b]) {
			r.Reached[b] = true
			r.Out[b] = out
			for _, s := range c.Blocks[b].Succs {
				if s < n {
					push(s)
				}
			}
		}
	}
	return r
}

// DefSet holds, for each register by number (ptx.Operand.Num), the set
// of instruction indices whose definitions of it may reach a program
// point. The inner sets are copy-on-write — never changed once stored —
// so slices.Clone is a copy of the state.
type DefSet []map[int]bool

// ReachingDefs computes, per block, which register definitions reach the
// block entry. Unconditional definitions replace earlier ones; guarded
// definitions accumulate (the old value may survive).
func ReachingDefs(c *kernel.CFG) *FlowResult[DefSet] {
	n := len(c.Kernel.RegTab)
	return SolveForward(c, Problem[DefSet]{
		Entry: func() DefSet { return make(DefSet, n) },
		Clone: slices.Clone[DefSet],
		Join: func(a, b DefSet) DefSet {
			out := slices.Clone(a)
			for reg, set := range b {
				out[reg] = union(out[reg], set)
			}
			return out
		},
		Transfer: func(b *kernel.Block, in DefSet) DefSet {
			out := slices.Clone(in)
			for i := b.Start; i < b.End; i++ {
				defsStep(out, c.Instrs[i], i)
			}
			return out
		},
		Equal: func(a, b DefSet) bool { return slices.EqualFunc(a, b, maps.Equal[map[int]bool, map[int]bool]) },
	})
}

// DefsAt returns the definitions of register reg (by number) that reach
// instruction idx, in instruction order, replaying the block prefix from
// the solved block-entry state.
func DefsAt(c *kernel.CFG, r *FlowResult[DefSet], idx int, reg int32) []int {
	b := c.BlockOf[idx]
	if !r.Reached[b] {
		return nil
	}
	st := slices.Clone(r.In[b])
	for i := c.Blocks[b].Start; i < idx; i++ {
		defsStep(st, c.Instrs[i], i)
	}
	var out []int
	for i := range st[reg] {
		out = append(out, i)
	}
	slices.Sort(out)
	return out
}

func defsStep(st DefSet, in *ptx.Instr, i int) {
	in.Defs(func(r int32) {
		def := map[int]bool{i: true}
		if in.Guard != nil {
			def = union(st[r], def)
		}
		st[r] = def
	})
}

// union returns a fresh set holding a and b: DefSet's sets are never
// changed in place.
func union(a, b map[int]bool) map[int]bool {
	out := make(map[int]bool, len(a)+len(b))
	maps.Copy(out, a)
	maps.Copy(out, b)
	return out
}
