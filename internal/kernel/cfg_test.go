package kernel

import (
	"testing"

	"barracuda/internal/ptx"
)

func build(t *testing.T, src string) *CFG {
	t.Helper()
	k, err := ptx.ParseKernel(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Build(k)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return c
}

func TestStraightLine(t *testing.T) {
	c := build(t, `.visible .entry k() {
	.reg .u32 %r<4>;
	mov.u32 %r1, 1;
	add.u32 %r2, %r1, 1;
	ret;
}`)
	if len(c.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(c.Blocks))
	}
	if len(c.Blocks[0].Succs) != 1 || c.Blocks[0].Succs[0] != 1 {
		t.Errorf("succs = %v, want [exit]", c.Blocks[0].Succs)
	}
}

// diamond: if/else that reconverges.
const diamondSrc = `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .pred %p<2>;
	mov.u32 %r1, %tid.x;
	setp.eq.u32 %p1, %r1, 0;
	@%p1 bra THEN;
	mov.u32 %r2, 2;
	bra.uni JOIN;
THEN:
	mov.u32 %r2, 1;
JOIN:
	add.u32 %r3, %r2, 1;
	ret;
}`

func TestDiamondCFG(t *testing.T) {
	c := build(t, diamondSrc)
	// Blocks: [entry+branch], [else], [then], [join].
	if len(c.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(c.Blocks))
	}
	entry := c.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %v", entry.Succs)
	}
	// Branch instruction is index 2; reconvergence at the JOIN block.
	rpc := c.ReconvergencePC(2)
	join := c.BlockOf[rpc]
	if c.Instrs[rpc].Op != ptx.OpAdd {
		t.Errorf("reconvergence instr = %v at pc %d", c.Instrs[rpc].Op, rpc)
	}
	if c.IPDom[entry.Index] != join {
		t.Errorf("ipdom(entry) = %d, want %d", c.IPDom[entry.Index], join)
	}
}

func TestConvergencePoints(t *testing.T) {
	c := build(t, diamondSrc)
	pts := c.ConvergencePoints()
	if len(pts) != 1 {
		t.Fatalf("convergence points = %v", pts)
	}
	for pc := range pts {
		if c.Instrs[pc].Op != ptx.OpAdd {
			t.Errorf("convergence point at %v", c.Instrs[pc].Op)
		}
	}
}

func TestIfWithoutElse(t *testing.T) {
	c := build(t, `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .pred %p<2>;
	mov.u32 %r1, %tid.x;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra SKIP;
	mov.u32 %r2, 1;
SKIP:
	ret;
}`)
	rpc := c.ReconvergencePC(2)
	if c.Instrs[rpc].Op != ptx.OpRet {
		t.Errorf("reconvergence = %v, want ret", c.Instrs[rpc].Op)
	}
}

func TestLoop(t *testing.T) {
	c := build(t, `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .pred %p<2>;
	mov.u32 %r1, 0;
LOOP:
	add.u32 %r1, %r1, 1;
	setp.lt.u32 %p1, %r1, 10;
	@%p1 bra LOOP;
	ret;
}`)
	// Blocks: [entry], [loop body], [after].
	if len(c.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3: %+v", len(c.Blocks), c.Blocks)
	}
	body := c.Blocks[1]
	// Backedge to itself + fallthrough.
	if len(body.Succs) != 2 {
		t.Errorf("body succs = %v", body.Succs)
	}
	// Loop branch reconverges at the block after the loop.
	rpc := c.ReconvergencePC(body.End - 1)
	if c.Instrs[rpc].Op != ptx.OpRet {
		t.Errorf("loop reconvergence = %v", c.Instrs[rpc].Op)
	}
}

func TestNestedBranches(t *testing.T) {
	c := build(t, `.visible .entry k() {
	.reg .u32 %r<8>;
	.reg .pred %p<4>;
	setp.eq.u32 %p1, %r1, 0;
	@%p1 bra OUTER;
	setp.eq.u32 %p2, %r1, 1;
	@%p2 bra INNER;
	mov.u32 %r2, 3;
INNER:
	mov.u32 %r3, 4;
OUTER:
	ret;
}`)
	// Outer branch at pc=1 reconverges at OUTER (ret).
	if in := c.Instrs[c.ReconvergencePC(1)]; in.Op != ptx.OpRet {
		t.Errorf("outer reconvergence = %v", in.Op)
	}
	// Inner branch at pc=3 reconverges at INNER (mov %r3).
	rpc := c.ReconvergencePC(3)
	in := c.Instrs[rpc]
	if in.Op != ptx.OpMov || in.Dst.Reg != "%r3" {
		t.Errorf("inner reconvergence = %v %v", in.Op, in.Dst.Reg)
	}
}

func TestBranchToEndLabel(t *testing.T) {
	c := build(t, `.visible .entry k() {
	.reg .u32 %r<4>;
	.reg .pred %p<2>;
	setp.eq.u32 %p1, %r1, 0;
	@%p1 bra END;
	mov.u32 %r2, 1;
	ret;
END:
	ret;
}`)
	// The fallthrough path hits its own ret, so the paths only reconverge
	// at kernel exit (pc == len(Instrs)).
	if got := c.ReconvergencePC(1); got != 5 {
		t.Errorf("reconvergence pc = %d, want 5 (kernel end)", got)
	}
}

func TestUndefinedLabelError(t *testing.T) {
	k, err := ptx.ParseKernel(`.visible .entry k() {
	bra.uni NOWHERE;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(k); err == nil {
		t.Error("Build succeeded with undefined label")
	}
}

func TestDuplicateLabelError(t *testing.T) {
	k, err := ptx.ParseKernel(`.visible .entry k() {
A:
	mov.u32 %r1, 1;
A:
	ret;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(k); err == nil {
		t.Error("Build succeeded with duplicate label")
	}
}

func TestEmptyKernelError(t *testing.T) {
	k, err := ptx.ParseKernel(`.visible .entry k() { }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(k); err == nil {
		t.Error("Build succeeded on empty body")
	}
}

func TestBlockOfCoversAllInstrs(t *testing.T) {
	c := build(t, diamondSrc)
	for i := range c.Instrs {
		b := c.BlockOf[i]
		blk := c.Blocks[b]
		if i < blk.Start || i >= blk.End {
			t.Errorf("instr %d mapped to block %d [%d,%d)", i, b, blk.Start, blk.End)
		}
	}
}

func TestInfiniteLoopNoExitPath(t *testing.T) {
	// A loop with no path to exit: ipdom must not crash; reconvergence
	// falls back to kernel end.
	c := build(t, `.visible .entry k() {
	.reg .u32 %r<4>;
	.reg .pred %p<2>;
SPIN:
	setp.eq.u32 %p1, %r1, 99;
	@%p1 bra SPIN;
	bra.uni SPIN;
}`)
	rpc := c.ReconvergencePC(1)
	if rpc < 0 || rpc > len(c.Instrs) {
		t.Errorf("reconvergence pc = %d out of range", rpc)
	}
}

// TestGuardedRetFallsThrough: the lanes whose guard fails run past a
// guarded ret or exit, so the block keeps its fall-through edge beside the
// exit edge, and what follows an early bounds check is reachable.
func TestGuardedRetFallsThrough(t *testing.T) {
	for _, op := range []string{"ret", "exit"} {
		c := build(t, `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<4>;
	.reg .u64 %rd<2>;
	.reg .pred %p<2>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r2, %tid.x;
	setp.ge.u32 %p1, %r2, 16;
	@%p1 `+op+`;
	st.global.u32 [%rd1], %r2;
	ret;
}`)
		exit := len(c.Blocks)
		if len(c.Blocks) != 2 {
			t.Fatalf("%s: blocks = %d, want 2", op, len(c.Blocks))
		}
		if s := c.Blocks[0].Succs; len(s) != 2 || s[0] != exit || s[1] != 1 {
			t.Errorf("%s: guarded block succs = %v, want [exit 1]", op, s)
		}
		if un := c.UnreachableBlocks(); len(un) != 0 {
			t.Errorf("%s: unreachable blocks %v after a guarded %s", op, un, op)
		}
		if !c.Dominates(0, 1) || c.IPDom[0] != exit {
			t.Errorf("%s: dom(0,1) %v, ipdom(0) = %d; want the entry dominating the store and the exit its ipdom", op, c.Dominates(0, 1), c.IPDom[0])
		}
	}
}
