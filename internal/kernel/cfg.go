// Package kernel builds the control-flow graph of a PTX kernel and computes
// the immediate post-dominators that GPUs use as branch reconvergence
// points. The SIMT-stack simulator (package gpusim) pushes divergent paths
// with the reconvergence PC taken from here, and the instrumentation
// framework (package instrument) inserts logging at convergence points
// (§4.1: "we also add logging calls to all branch convergence points").
package kernel

import (
	"fmt"

	"barracuda/internal/ptx"
)

// Block is one basic block: instructions [Start, End) of the flat stream.
type Block struct {
	Index int
	Start int
	End   int
	Succs []int
	Preds []int
}

// CFG is the control-flow graph of one kernel.
type CFG struct {
	Kernel  *ptx.Kernel
	Instrs  []*ptx.Instr   // flattened instruction stream
	LabelAt map[string]int // label name -> instruction index it precedes
	Blocks  []*Block
	BlockOf []int // instruction index -> block index

	// IPDom maps block index -> immediate post-dominator block index;
	// the virtual exit node is len(Blocks), and unreachable blocks map
	// to -1.
	IPDom []int

	// Dom maps block index -> immediate (forward) dominator block index.
	// The entry block maps to itself; blocks unreachable from the entry
	// map to -1.
	Dom []int
}

// Build constructs the CFG and post-dominator tree for k, numbering k's
// registers first if nothing has (ptx.Kernel.NumberRegs): the analyses
// over a CFG index registers by number.
func Build(k *ptx.Kernel) (*CFG, error) {
	k.NumberRegs()
	c := &CFG{Kernel: k, LabelAt: make(map[string]int), Instrs: make([]*ptx.Instr, 0, len(k.Body))}
	for _, st := range k.Body {
		if st.Label != "" {
			if _, dup := c.LabelAt[st.Label]; dup {
				return nil, fmt.Errorf("kernel %s: duplicate label %q", k.Name, st.Label)
			}
			c.LabelAt[st.Label] = len(c.Instrs)
			continue
		}
		c.Instrs = append(c.Instrs, st.Instr)
	}
	if len(c.Instrs) == 0 {
		return nil, fmt.Errorf("kernel %s: empty body", k.Name)
	}
	if err := c.splitBlocks(); err != nil {
		return nil, err
	}
	c.linkBlocks()
	c.computeIPDom()
	c.computeDom()
	return c, nil
}

// branchTarget returns the instruction index a bra jumps to.
func (c *CFG) branchTarget(in *ptx.Instr) (int, error) {
	if len(in.Args) != 1 || in.Args[0].Kind != ptx.OpndLabel {
		return 0, fmt.Errorf("line %d: bra needs one label operand", in.Line)
	}
	idx, ok := c.LabelAt[in.Args[0].Sym]
	if !ok {
		return 0, fmt.Errorf("line %d: undefined label %q", in.Line, in.Args[0].Sym)
	}
	return idx, nil
}

func isTerminator(in *ptx.Instr) bool {
	switch in.Op {
	case ptx.OpBra, ptx.OpRet, ptx.OpExit:
		return true
	}
	return false
}

func (c *CFG) splitBlocks() error {
	leader := make([]bool, len(c.Instrs)+1)
	leader[0] = true
	for i, in := range c.Instrs {
		if in.Op == ptx.OpBra {
			t, err := c.branchTarget(in)
			if err != nil {
				return err
			}
			if t < len(leader) {
				leader[t] = true
			}
		}
		if isTerminator(in) && i+1 < len(c.Instrs) {
			leader[i+1] = true
		}
	}
	c.BlockOf = make([]int, len(c.Instrs))
	start := 0
	for i := 1; i <= len(c.Instrs); i++ {
		if i == len(c.Instrs) || leader[i] {
			b := &Block{Index: len(c.Blocks), Start: start, End: i}
			c.Blocks = append(c.Blocks, b)
			for j := start; j < i; j++ {
				c.BlockOf[j] = b.Index
			}
			start = i
		}
	}
	return nil
}

func (c *CFG) linkBlocks() {
	exit := len(c.Blocks) // virtual exit node
	addEdge := func(from, to int) {
		b := c.Blocks[from]
		for _, s := range b.Succs {
			if s == to {
				return
			}
		}
		b.Succs = append(b.Succs, to)
		if to != exit {
			c.Blocks[to].Preds = append(c.Blocks[to].Preds, from)
		}
	}
	fallThrough := func(b *Block) {
		if b.End == len(c.Instrs) {
			addEdge(b.Index, exit)
		} else {
			addEdge(b.Index, c.BlockOf[b.End])
		}
	}
	for _, b := range c.Blocks {
		last := c.Instrs[b.End-1]
		switch last.Op {
		case ptx.OpRet, ptx.OpExit:
			addEdge(b.Index, exit)
		case ptx.OpBra:
			t, _ := c.branchTarget(last) // validated in splitBlocks
			if t == len(c.Instrs) {
				addEdge(b.Index, exit)
			} else {
				addEdge(b.Index, c.BlockOf[t])
			}
		default:
			fallThrough(b)
			continue
		}
		// A guarded ret, exit or bra: the lanes whose guard fails fall through.
		if last.Guard != nil {
			fallThrough(b)
		}
	}
}

// computeIPDom runs the Cooper–Harvey–Kennedy iterative dominance algorithm
// on the reversed CFG rooted at the virtual exit node.
func (c *CFG) computeIPDom() {
	n := len(c.Blocks)
	exit := n
	// Reverse post-order of the reversed CFG, starting from exit.
	// Predecessors in the reversed graph are Succs in the forward graph.
	order := make([]int, 0, n+1)
	seen := make([]bool, n+1)
	var dfs func(b int)
	dfs = func(b int) {
		seen[b] = true
		if b != exit {
			for _, p := range c.Blocks[b].Preds {
				if !seen[p] {
					dfs(p)
				}
			}
		} else {
			// exit's reverse successors: every block with an edge to exit
			for _, blk := range c.Blocks {
				for _, s := range blk.Succs {
					if s == exit && !seen[blk.Index] {
						dfs(blk.Index)
					}
				}
			}
		}
		order = append(order, b)
	}
	dfs(exit)
	// order is post-order of reversed graph; reverse it for RPO.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoNum := make([]int, n+1)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range order {
		rpoNum[b] = i
	}

	ipdom := make([]int, n+1)
	for i := range ipdom {
		ipdom[i] = -1
	}
	ipdom[exit] = exit
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = ipdom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = ipdom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if b == exit {
				continue
			}
			// Reverse-graph predecessors of b = forward successors.
			newIdom := -1
			for _, s := range c.Blocks[b].Succs {
				if ipdom[s] == -1 && s != exit {
					continue
				}
				if s == exit || ipdom[s] != -1 {
					if newIdom == -1 {
						newIdom = s
					} else {
						newIdom = intersect(s, newIdom)
					}
				}
			}
			if newIdom != -1 && ipdom[b] != newIdom {
				ipdom[b] = newIdom
				changed = true
			}
		}
	}
	c.IPDom = ipdom[:n]
}

// ReconvergencePC returns the instruction index at which a divergent branch
// at instruction index pc reconverges: the start of the branch block's
// immediate post-dominator, or len(Instrs) when control reconverges only at
// kernel exit.
func (c *CFG) ReconvergencePC(pc int) int {
	b := c.BlockOf[pc]
	ip := c.IPDom[b]
	if ip < 0 || ip >= len(c.Blocks) {
		return len(c.Instrs)
	}
	return c.Blocks[ip].Start
}

// ConvergencePoints returns the set of instruction indices that are
// reconvergence targets of at least one conditional branch. The
// instrumenter logs these (the `_log.fi` insertion points).
func (c *CFG) ConvergencePoints() map[int]bool {
	pts := make(map[int]bool)
	for i, in := range c.Instrs {
		if in.Op == ptx.OpBra && in.Guard != nil {
			pts[c.ReconvergencePC(i)] = true
		}
	}
	return pts
}

// computeDom runs the Cooper–Harvey–Kennedy iterative dominance algorithm
// on the forward CFG rooted at the entry block (block 0). It mirrors
// computeIPDom but walks Succs instead of Preds; edges to the virtual exit
// node are skipped. Blocks unreachable from the entry keep Dom == -1 and
// are tolerated, not fatal: callers use UnreachableBlocks to report them.
func (c *CFG) computeDom() {
	n := len(c.Blocks)
	// Reverse post-order of the forward graph from the entry.
	order := make([]int, 0, n)
	seen := make([]bool, n)
	var dfs func(b int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range c.Blocks[b].Succs {
			if s < n && !seen[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(0)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range order {
		rpoNum[b] = i
	}

	dom := make([]int, n)
	for i := range dom {
		dom[i] = -1
	}
	dom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = dom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = dom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range c.Blocks[b].Preds {
				if dom[p] == -1 {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && dom[b] != newIdom {
				dom[b] = newIdom
				changed = true
			}
		}
	}
	c.Dom = dom
}

// Dominates reports whether block a dominates block b in the forward CFG.
// Every block dominates itself. Unreachable blocks are dominated by
// nothing (and dominate only themselves).
func (c *CFG) Dominates(a, b int) bool {
	if a == b {
		return true
	}
	for b != 0 {
		d := c.Dom[b]
		if d == b || d == -1 {
			return false
		}
		if d == a {
			return true
		}
		b = d
	}
	return a == 0
}

// UnreachableBlocks returns the indices of blocks unreachable from the
// kernel entry. Such blocks are dead code: the dominator solvers leave
// them at -1 rather than crashing, and the lint pass reports them.
func (c *CFG) UnreachableBlocks() []int {
	var out []int
	for i := range c.Blocks {
		if i != 0 && c.Dom[i] == -1 {
			out = append(out, i)
		}
	}
	return out
}
