package staticanalysis

import (
	"testing"

	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
)

func buildCFG(t *testing.T, src string) *kernel.CFG {
	t.Helper()
	k, err := ptx.ParseKernel(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := kernel.Build(k)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return c
}

// intersection-of-reaching-constants toy problem: tracks which constant
// each register must hold on every path.
type constState map[string]int64

func constProblem(c *kernel.CFG) Problem[constState] {
	return Problem[constState]{
		Entry: func() constState { return constState{} },
		Clone: func(a constState) constState {
			out := make(constState, len(a))
			for k, v := range a {
				out[k] = v
			}
			return out
		},
		Join: func(a, b constState) constState {
			out := make(constState)
			for k, v := range a {
				if bv, ok := b[k]; ok && bv == v {
					out[k] = v
				}
			}
			return out
		},
		Transfer: func(b *kernel.Block, in constState) constState {
			out := make(constState, len(in))
			for k, v := range in {
				out[k] = v
			}
			for i := b.Start; i < b.End; i++ {
				ins := c.Instrs[i]
				if !ins.HasDst || ins.Dst.Kind != ptx.OpndReg {
					continue
				}
				if ins.Op == ptx.OpMov && len(ins.Args) == 1 && ins.Args[0].Kind == ptx.OpndImm {
					out[ins.Dst.Reg] = ins.Args[0].Imm
				} else {
					delete(out, ins.Dst.Reg)
				}
			}
			return out
		},
		Equal: func(a, b constState) bool {
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if bv, ok := b[k]; !ok || bv != v {
					return false
				}
			}
			return true
		},
	}
}

// TestSolverDiamond: a constant set identically on both arms survives the
// join; one set differently does not.
func TestSolverDiamond(t *testing.T) {
	c := buildCFG(t, `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .pred %p<2>;
	mov.u32 %r1, %tid.x;
	setp.eq.u32 %p1, %r1, 0;
	@%p1 bra THEN;
	mov.u32 %r2, 7;
	mov.u32 %r3, 1;
	bra.uni JOIN;
THEN:
	mov.u32 %r2, 7;
	mov.u32 %r3, 2;
JOIN:
	add.u32 %r4, %r2, %r3;
	ret;
}`)
	res := SolveForward(c, constProblem(c))
	// JOIN is the block containing the final add.
	join := c.BlockOf[len(c.Instrs)-2]
	if !res.Reached[join] {
		t.Fatal("join block not reached")
	}
	if v, ok := res.In[join]["%r2"]; !ok || v != 7 {
		t.Errorf("r2 at join = %v,%v; want 7 (set identically on both arms)", v, ok)
	}
	if _, ok := res.In[join]["%r3"]; ok {
		t.Error("r3 must not survive the join: arms disagree")
	}
}

// TestSolverLoop: a fact generated before a loop whose body kills it must
// not hold at loop entry (the back edge brings the killed state).
func TestSolverLoop(t *testing.T) {
	c := buildCFG(t, `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .pred %p<2>;
	mov.u32 %r1, 5;
	mov.u32 %r2, 0;
LOOP:
	add.u32 %r1, %r1, 1;
	add.u32 %r2, %r2, 1;
	setp.lt.u32 %p1, %r2, 10;
	@%p1 bra LOOP;
	ret;
}`)
	res := SolveForward(c, constProblem(c))
	header := -1
	for i, b := range c.Blocks {
		if len(b.Preds) == 2 { // preheader + back edge
			header = i
		}
	}
	if header < 0 {
		t.Fatal("no loop header found")
	}
	if _, ok := res.In[header]["%r1"]; ok {
		t.Error("r1=5 must not reach the loop header: the body redefines it")
	}
}

// TestSolverIrreducible: the solver must terminate and produce sound
// facts on an irreducible region (two blocks branching into each other).
func TestSolverIrreducible(t *testing.T) {
	c := buildCFG(t, `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .pred %p<4>;
	mov.u32 %r1, 9;
	mov.u32 %r5, %tid.x;
	setp.eq.u32 %p1, %r5, 0;
	@%p1 bra B;
A:
	mov.u32 %r2, 1;
	setp.lt.u32 %p2, %r2, 4;
	@%p2 bra B;
	ret;
B:
	mov.u32 %r3, 2;
	setp.lt.u32 %p3, %r3, 8;
	@%p3 bra A;
	ret;
}`)
	res := SolveForward(c, constProblem(c))
	for i := range c.Blocks {
		if !res.Reached[i] {
			t.Errorf("block %d not reached", i)
			continue
		}
		// r1 is set once in the entry and never killed: it must hold
		// everywhere, including throughout the irreducible region.
		if v, ok := res.In[i]["%r1"]; i != 0 && (!ok || v != 9) {
			t.Errorf("block %d: r1 = %v,%v; want 9", i, v, ok)
		}
	}
}

// TestSolverUnreachable: dead blocks stay Reached == false.
func TestSolverUnreachable(t *testing.T) {
	c := buildCFG(t, `.visible .entry k() {
	.reg .u32 %r<4>;
	mov.u32 %r1, 1;
	bra.uni DONE;
	mov.u32 %r2, 2;
DONE:
	ret;
}`)
	res := SolveForward(c, constProblem(c))
	dead := c.UnreachableBlocks()
	if len(dead) != 1 {
		t.Fatalf("unreachable = %v, want one block", dead)
	}
	if res.Reached[dead[0]] {
		t.Error("dead block must not be reached by the solver")
	}
}

// TestReachingDefs: guarded defs accumulate, unguarded defs replace.
func TestReachingDefs(t *testing.T) {
	c := buildCFG(t, `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .pred %p<2>;
	mov.u32 %r1, 1;
	setp.eq.u32 %p1, %r1, 0;
	@%p1 mov.u32 %r1, 2;
	add.u32 %r2, %r1, 1;
	ret;
}`)
	defs := ReachingDefs(c)
	// Find the add: its %r1 uses must see both the mov (idx 0) and the
	// guarded mov (idx 2).
	addIdx := -1
	for i, in := range c.Instrs {
		if in.Op == ptx.OpAdd {
			addIdx = i
		}
	}
	got := DefsAt(c, defs, addIdx, c.Instrs[addIdx].Args[0].Num) // %r1
	if len(got) != 2 {
		t.Fatalf("defs of r1 at add = %v, want 2 entries", got)
	}
}

// TestVectorLoadDefinesAllDestinations: the second destination of an
// ld.v2 is a definition for reaching definitions, the affine solver and
// the static pruner alike, so a read through it is neither covered by an
// earlier read of the same text nor given the old address.
func TestVectorLoadDefinesAllDestinations(t *testing.T) {
	a := analyze(t, `.visible .entry k(.param .u64 p)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	ld.param.u64 %rd2, [p];
	mov.u64 %rd3, %rd2;
	ld.global.u32 %r2, [%rd3];
	ld.global.v2.u64 {%rd4, %rd3}, [%rd2];
	ld.global.u32 %r3, [%rd3];
	ret;
}`)
	const vecLd, read = 3, 4
	rd3 := a.CFG.Instrs[read].Args[0].Num
	if got := DefsAt(a.CFG, ReachingDefs(a.CFG), read, rd3); len(got) != 1 || got[0] != vecLd {
		t.Errorf("definitions of %%rd3 reaching the last read = %v, want [%d]", got, vecLd)
	}
	if a.Affine.addr[read].affine {
		t.Errorf("address of the last read is known: %v", a.Affine.addr[read])
	}
	if a.Prune.Prunable(read) {
		t.Errorf("last read pruned (%v): the vector load redefined its base", a.Prune.Reason[read])
	}
}
