package gpusim

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"barracuda/internal/instrument"
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

// TestRegisterFileLayout pins the two warp files: a general register is
// WarpSize lanes in a row whatever the launch's warp width, a predicate
// register is one lane mask, and a block that comes back from the arena
// has both zeroed.
func TestRegisterFileLayout(t *testing.T) {
	d, mod := loadKernel(t, `
.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .pred %p<3>;
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mad.lo.u32 %r4, %r2, %r3, %r1;
	and.b32 %r5, %r4, 1;
	setp.eq.u32 %p1, %r5, 0;
	ret;
}`)
	lk := mod.kernels["k"]
	r, p := lk.regIndex("%r4"), lk.regIndex("%p1")
	for _, ws := range []int{32, 5} {
		cfg := LaunchConfig{Grid: D1(2), Block: D1(44), Args: []uint64{d.MustAlloc(4)}, WarpSize: ws}
		if _, err := mod.Launch("k", cfg); err != nil {
			t.Fatal(err)
		}
		// The launch's retired blocks sit in the arena as they finished.
		ar := lk.arena.Load()
		if len(ar.free) != 2 {
			t.Fatalf("ws=%d: %d retired blocks in the arena, want 2", ws, len(ar.free))
		}
		partial := false
		for _, blk := range ar.free {
			for _, w := range blk.warps {
				if len(w.regs) != WarpSize*lk.nRegs || len(w.preds) != lk.nPreds {
					t.Fatalf("ws=%d: files of %d and %d entries, want %d and %d",
						ws, len(w.regs), len(w.preds), WarpSize*lk.nRegs, lk.nPreds)
				}
				if w.fullMask != 1<<uint(w.lanes)-1 || w.lanes > ws {
					t.Fatalf("ws=%d: fullMask %#x for %d lanes", ws, w.fullMask, w.lanes)
				}
				partial = partial || w.lanes < ws
				even := uint32(0x55555555)
				if w.baseTID&1 == 1 {
					even <<= 1
				}
				if got, want := w.preds[p], even&w.fullMask; got != want {
					t.Errorf("ws=%d warp %d: preds[%%p1] = %#x, want %#x", ws, w.gwid, got, want)
				}
				for l, v := range w.regs[r*WarpSize : r*WarpSize+w.lanes] {
					if v != uint64(w.baseTID+l) {
						t.Errorf("ws=%d warp %d: lane %d of %%r4 holds %d, want tid %d", ws, w.gwid, l, v, w.baseTID+l)
					}
				}
				for l, v := range w.regs[r*WarpSize+w.lanes : (r+1)*WarpSize] {
					if v != 0 {
						t.Errorf("ws=%d warp %d: unpopulated lane %d of %%r4 holds %d", ws, w.gwid, w.lanes+l, v)
					}
				}
			}
		}
		if !partial {
			t.Errorf("ws=%d: block of 44 threads has no partial warp", ws)
		}
		e := &engine{lk: lk, ws: ws, bsz: 44, wpb: (44 + ws - 1) / ws}
		blk, ok := ar.takeBlock(e, 7)
		if !ok {
			t.Fatal("arena had no block to reuse")
		}
		for _, w := range blk.warps {
			for i, v := range w.regs {
				if v != 0 {
					t.Fatalf("ws=%d: pooled block came back with regs[%d] = %d", ws, i, v)
				}
			}
			for i, v := range w.preds {
				if v != 0 {
					t.Fatalf("ws=%d: pooled block came back with preds[%d] = %#x", ws, i, v)
				}
			}
		}
	}
}

// shapeGen draws the body of a TestWarpShapeInvariance kernel: one
// instruction at a time over a fixed register set (%r0-7, %rd0-3, %f0-3,
// %fd0-1, %p0-3), each from one handler family of selectHandler, which
// it counts. Memory operands stay inside the thread's own slots (%a0:
// shapeScratch bytes of global memory, %a1: 16 bytes of shared) and no
// operand names the warp (%laneid, %warpid, WARP_SZ), so whatever a
// thread computes is a function of its tid.
type shapeGen struct {
	*rand.Rand
	families map[string]int
}

const (
	shapeScratch = 32                                    // global bytes a body may load, store and update
	shapeRegs    = 8 + 4 + 4 + 2                         // general registers dumped at the end
	shapeSlot    = shapeScratch + 8*shapeRegs + 4*4 + 16 // + the predicates + the shared slot
	shapeBlock   = 64
	shapeGrid    = 2
)

func (g *shapeGen) of(xs ...string) string { return xs[g.Intn(len(xs))] }

func (g *shapeGen) reg(prefix string, n int) string { return fmt.Sprintf("%%%s%d", prefix, g.Intn(n)) }

func (g *shapeGen) r() string  { return g.reg("r", 8) }
func (g *shapeGen) rd() string { return g.reg("rd", 4) }
func (g *shapeGen) f() string  { return g.reg("f", 4) }
func (g *shapeGen) fd() string { return g.reg("fd", 2) }
func (g *shapeGen) p() string  { return g.reg("p", 4) }

func (g *shapeGen) imm() string {
	return g.of("0", "1", "3", "31", "32", "33", "64", "-1", "-7", "0xffff", "0x80000000", "0xffffffff", fmt.Sprint(g.Uint32()))
}

func (g *shapeGen) fimm() string { return g.of("0.0", "1.5", "-2.25", "65536.5", "-0.001") }

// lane is an operand every lane evaluates for itself that is not a
// general register: a special register or a predicate.
func (g *shapeGen) lane() string { return g.of("%tid.x", "%ntid.x", "%ctaid.x", "%nctaid.x", g.p()) }

// src is an operand of any shape and the shape's letter: r(egister, the
// one given), i(mmediate) or l(ane).
func (g *shapeGen) src(reg string) (string, byte) {
	switch g.Intn(5) {
	case 0:
		return g.imm(), 'i'
	case 1:
		return g.lane(), 'l'
	}
	return reg, 'r'
}

// mem is an aligned operand of size bytes inside a slot of n bytes.
func (g *shapeGen) mem(base string, n, size int) string {
	return fmt.Sprintf("[%s+%d]", base, size*g.Intn(n/size))
}

// slot picks the global or the shared slot for an access of size bytes.
func (g *shapeGen) slot(size int) (space, operand string) {
	if g.Intn(3) == 0 {
		return "shared", g.mem("%a1", 16, size)
	}
	return "global", g.mem("%a0", shapeScratch, size)
}

// draw returns one instruction and the handler family it compiles to.
func (g *shapeGen) draw() (text, family string) {
	// Integer instructions come in a 32-bit and a 64-bit form.
	ir, ty, bty, size := g.r, g.of("u32", "s32"), "b32", 4
	if g.Intn(3) == 0 {
		ir, ty, bty, size = g.rd, g.of("u64", "s64"), "b64", 8
	}
	switch g.Intn(13) {
	case 0:
		switch g.Intn(5) {
		case 0:
			return fmt.Sprintf("mov.%s %s, %s;", ty, ir(), g.imm()), "mov/const"
		case 1:
			return g.of("mov.f32 "+g.f()+", "+g.fimm()+";", "mov.f64 "+g.fd()+", "+g.fimm()+";", "mov.u64 "+g.rd()+", sm;"), "mov/const"
		case 2:
			return g.of(fmt.Sprintf("mov.%s %s, %s;", ty, ir(), ir()), "cvta.to.global.u64 "+g.rd()+", "+g.rd()+";"), "mov/reg"
		case 3:
			return g.of("mov.f32 "+g.f()+", "+g.f()+";", "mov.f64 "+g.fd()+", "+g.fd()+";"), "mov/float"
		}
		return "mov.u32 " + g.r() + ", " + g.lane() + ";", "mov/lane"
	case 1:
		switch g.Intn(6) {
		case 0:
			return "ld.param.u64 " + g.rd() + ", [out];", "ld/param"
		case 1:
			return fmt.Sprintf("ld.global.v2.u32 {%s, %s}, %s;", g.r(), g.r(), g.mem("%a0", shapeScratch, 8)), "lane/ld.v2"
		case 2:
			return fmt.Sprintf("ld.global.u32 %s, [gv+%d];", g.r(), 4*g.Intn(16)), "ld"
		}
		sz := 1 << uint(g.Intn(4))
		space, at := g.slot(sz)
		return fmt.Sprintf("ld.%s.%s%d %s, %s;", space, g.of("u", "s"), 8*sz, g.of(g.r(), g.rd()), at), "ld"
	case 2:
		switch g.Intn(5) {
		case 0:
			return fmt.Sprintf("st.global.v2.u32 %s, {%s, %s};", g.mem("%a0", shapeScratch, 8), g.r(), g.r()), "lane/st.v2"
		case 1:
			space, at := g.slot(4)
			return g.of(fmt.Sprintf("st.%s.u32 %s, %s;", space, at, g.imm()), fmt.Sprintf("st.%s.f32 %s, %s;", space, at, g.fimm())), "st/const"
		}
		sz := 1 << uint(g.Intn(4))
		space, at := g.slot(sz)
		v, _ := g.src(g.of(g.r(), g.rd(), g.f()))
		if v[0] != '%' {
			v = g.r()
		}
		return fmt.Sprintf("st.%s.u%d %s, %s;", space, 8*sz, at, v), "st"
	case 3:
		cmp := g.of("eq", "ne", "lt", "le", "gt", "ge")
		switch g.Intn(4) {
		case 0:
			return fmt.Sprintf("setp.%s.f32 %s, %s, %s;", cmp, g.p(), g.f(), g.of(g.f(), g.fimm())), "setp/float"
		case 1:
			return fmt.Sprintf("setp.%s.f64 %s, %s, %s;", cmp, g.p(), g.fd(), g.fd()), "setp/float"
		}
		a, _ := g.src(ir())
		b, _ := g.src(ir())
		return fmt.Sprintf("setp.%s.%s %s, %s, %s;", cmp, ty, g.p(), a, b), "setp/int"
	case 4:
		a, _ := g.src(ir())
		b, _ := g.src(ir())
		if g.Intn(3) == 0 {
			return fmt.Sprintf("selp.%s %s, %s, %s, %s;", ty, ir(), a, b, g.r()), "selp/value"
		}
		return fmt.Sprintf("selp.%s %s, %s, %s, %s;", ty, ir(), a, b, g.p()), "selp/pred"
	case 5:
		switch g.Intn(4) {
		case 0:
			return g.of("cvt.f32.u32 "+g.f()+", "+g.r()+";", "cvt.f64.s32 "+g.fd()+", "+g.r()+";", "cvt.f32.s64 "+g.f()+", "+g.rd()+";"), "cvt/int-float"
		case 1:
			return g.of("cvt.s32.f32 "+g.r()+", "+g.f()+";", "cvt.u32.f64 "+g.r()+", "+g.fd()+";", "cvt.u64.f32 "+g.rd()+", "+g.f()+";"), "cvt/float-int"
		case 2:
			return g.of("cvt.f64.f32 "+g.fd()+", "+g.f()+";", "cvt.f32.f64 "+g.f()+", "+g.fd()+";"), "cvt/float-float"
		}
		a, _ := g.src(g.of(g.r(), g.rd()))
		return fmt.Sprintf("cvt.%s.%s %s, %s;", g.of("u64", "s64", "u32", "s32", "u16", "s8"),
			g.of("u32", "s32", "u64", "s16", "u8"), g.of(g.r(), g.rd()), a), "cvt/int-int"
	case 6:
		op := g.of("not."+bty, "neg."+ty)
		if a, shape := g.src(ir()); shape != 'r' {
			return fmt.Sprintf("%s %s, %s;", op, ir(), a), "un/lane"
		}
		return fmt.Sprintf("%s %s, %s;", op, ir(), ir()), "un/reg"
	case 7:
		return g.of("neg.f32 "+g.f()+", "+g.f()+";", "neg.f64 "+g.fd()+", "+g.fd()+";"), "lane/neg.float"
	case 8, 9:
		op := g.of("add."+ty, "sub."+ty, "mul.lo."+ty, "mul.hi."+ty, "div."+ty, "rem."+ty, "min."+ty, "max."+ty,
			"and."+bty, "or."+bty, "xor."+bty, "shl."+bty, "shr."+ty)
		dst := ir()
		if size == 4 && g.Intn(8) == 0 {
			op, dst = "mul.wide."+ty, g.rd()
		}
		a, b, family := ir(), ir(), "bin/reg-reg"
		switch g.Intn(4) {
		case 0:
			b, family = g.imm(), "bin/reg-imm"
		case 1:
			a, _ = g.src(a)
			b = g.lane()
			family = "bin/lane"
		}
		return fmt.Sprintf("%s %s, %s, %s;", op, dst, a, b), family
	case 10:
		op, dst, c := "mad.lo."+ty, ir(), ir()
		if size == 4 && g.Intn(3) == 0 {
			op, dst, c = "mad.wide."+ty, g.rd(), g.rd()
		}
		a, b, family := ir(), ir(), "tri/reg"
		if g.Intn(2) == 0 {
			b, _ = g.src(b)
			a, family = g.of(g.imm(), g.lane()), "tri/lane"
		}
		return fmt.Sprintf("%s %s, %s, %s, %s;", op, dst, a, b, c), family
	case 11:
		if g.Intn(3) == 0 {
			op := g.of("add", "sub", "mul", "div", "min", "max")
			return fmt.Sprintf("%s.f64 %s, %s, %s;", op, g.fd(), g.fd(), g.of(g.fd(), g.fimm())), "float"
		}
		if g.Intn(4) == 0 {
			return fmt.Sprintf("mad.f32 %s, %s, %s, %s;", g.f(), g.f(), g.of(g.f(), g.fimm()), g.f()), "float"
		}
		op := g.of("add", "sub", "mul", "div", "min", "max")
		return fmt.Sprintf("%s.f32 %s, %s, %s;", op, g.f(), g.f(), g.of(g.f(), g.fimm())), "float"
	}
	space, at := g.slot(4)
	v, _ := g.src(g.r())
	switch g.Intn(4) {
	case 0:
		return fmt.Sprintf("atom.%s.cas.b32 %s, %s, %s, %s;", space, g.r(), at, v, g.r()), "lane/atom"
	case 1:
		return fmt.Sprintf("red.%s.add.u32 %s, %s;", space, at, v), "lane/atom"
	}
	op := g.of("add.u32", "exch.b32", "min.u32", "min.s32", "max.u32", "max.s32", "and.b32", "or.b32", "xor.b32", "inc.u32", "dec.u32")
	return fmt.Sprintf("atom.%s.%s %s, %s, %s;", space, op, g.r(), at, v), "lane/atom"
}

// shapeFamilies is every handler family draw can name: the generator
// must have covered each.
var shapeFamilies = []string{
	"mov/const", "mov/reg", "mov/float", "mov/lane",
	"ld/param", "ld", "st", "st/const", "lane/ld.v2", "lane/st.v2",
	"setp/int", "setp/float", "selp/pred", "selp/value",
	"cvt/int-int", "cvt/int-float", "cvt/float-int", "cvt/float-float",
	"un/reg", "un/lane", "lane/neg.float",
	"bin/reg-reg", "bin/reg-imm", "bin/lane", "tri/reg", "tri/lane",
	"float", "lane/atom",
}

// body draws n instructions, a third of them under a random guard.
func (g *shapeGen) body(n int) []string {
	out := make([]string, n)
	for i := range out {
		text, family := g.draw()
		g.families[family]++
		if g.Intn(3) == 0 {
			text = g.of("@", "@!") + g.p() + " " + text
		}
		out[i] = text
	}
	return out
}

// shapeKernel wraps a body in the prologue that seeds every register from
// the tid (some with values every lane shares, so broadcasts occur) and
// the epilogue that stores every register to the thread's slot. With
// split, the odd and the even threads run the body on the two sides of a
// divergent branch: every handler executes under masks 0x55555555 and
// 0xaaaaaaaa instead of the whole warp.
func shapeKernel(body []string, split bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, `.global .align 8 .b8 gv[64];
.visible .entry k(.param .u64 out)
{
	.reg .u32 %%r<8>;
	.reg .u64 %%rd<4>;
	.reg .f32 %%f<4>;
	.reg .f64 %%fd<2>;
	.reg .pred %%p<4>;
	.reg .u64 %%a<2>;
	.reg .u32 %%t<2>;
	.reg .u64 %%u<1>;
	.reg .pred %%q<1>;
	.shared .align 8 .b8 sm[%d];
	ld.param.u64 %%a0, [out];
	mov.u32 %%r0, %%tid.x;
	mov.u32 %%r1, %%ctaid.x;
	mov.u32 %%r2, %%ntid.x;
	mad.lo.u32 %%r3, %%r1, %%r2, %%r0;
	mul.wide.u32 %%rd0, %%r3, %d;
	add.u64 %%a0, %%a0, %%rd0;
	mul.wide.u32 %%rd1, %%r0, 16;
	mov.u64 %%a1, sm;
	add.u64 %%a1, %%a1, %%rd1;
	and.b32 %%t0, %%r0, 1;
	setp.ne.u32 %%q0, %%t0, 0;
	mul.lo.u32 %%r4, %%r3, 0x9e3779b1;
	xor.b32 %%r5, %%r4, 0x5bd1e995;
	shr.u32 %%r6, %%r4, 7;
	mov.u32 %%r7, 12345;
	mul.wide.u32 %%rd2, %%r4, %%r5;
	mov.u64 %%rd3, 0x123456789;
	cvt.f32.u32 %%f0, %%r3;
	cvt.f32.s32 %%f1, %%r4;
	mov.f32 %%f2, 0.75;
	mul.f32 %%f3, %%f0, %%f2;
	cvt.f64.u32 %%fd0, %%r5;
	mov.f64 %%fd1, -1.5;
	setp.lt.u32 %%p0, %%r0, 20;
	setp.ne.u32 %%p1, %%t0, 0;
	setp.gt.u32 %%p2, %%r6, 0x1000000;
	setp.eq.u32 %%p3, %%r2, %d;
`, 16*shapeBlock, shapeSlot, shapeBlock)
	lines := func() {
		for _, l := range body {
			b.WriteString("\t" + l + "\n")
		}
	}
	if split {
		b.WriteString("\t@%q0 bra ODD;\n")
		lines()
		b.WriteString("\tbra.uni JOIN;\nODD:\n")
		lines()
		b.WriteString("JOIN:\n")
	} else {
		lines()
	}
	off := shapeScratch
	for _, f := range []struct {
		prefix string
		n      int
	}{{"r", 8}, {"rd", 4}, {"f", 4}, {"fd", 2}} {
		for i := 0; i < f.n; i++ {
			fmt.Fprintf(&b, "\tst.global.u64 [%%a0+%d], %%%s%d;\n", off, f.prefix, i)
			off += 8
		}
	}
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, "\tselp.u32 %%t1, 1, 0, %%p%d;\n\tst.global.u32 [%%a0+%d], %%t1;\n", i, off)
		off += 4
	}
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&b, "\tld.shared.u64 %%u0, [%%a1+%d];\n\tst.global.u64 [%%a0+%d], %%u0;\n", 8*i, off)
		off += 8
	}
	b.WriteString("\tret;\n}\n")
	return b.String()
}

// shapeRun launches a module of shapeKernel at a warp width and returns
// the threads' slots and, with a sink, each thread's logged accesses in
// program order.
func shapeRun(t *testing.T, m *ptx.Module, ws int, logged bool) ([]byte, [][]string) {
	t.Helper()
	d := NewDevice(0)
	mod, err := d.LoadModule(m)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	const threads = shapeGrid * shapeBlock
	out := d.MustAlloc(threads * shapeSlot)
	cfg := LaunchConfig{Grid: D1(shapeGrid), Block: D1(shapeBlock), Args: []uint64{out}, WarpSize: ws}
	var sink collector
	if logged {
		cfg.Sink = &sink
	}
	if _, err := mod.Launch("k", cfg); err != nil {
		t.Fatalf("ws=%d: %v", ws, err)
	}
	mem, err := d.ReadBytes(out, threads*shapeSlot)
	if err != nil {
		t.Fatal(err)
	}
	wpb := (shapeBlock + ws - 1) / ws
	accesses := make([][]string, threads)
	for i := range sink.recs {
		r := &sink.recs[i]
		ref := *r
		ref.Classify()
		if ref.Flags != r.Flags || ref.Base != r.Base || ref.Stride != r.Stride {
			t.Fatalf("ws=%d record %d (%v mask %#x): tagged flags %#x base %#x stride %d, Classify %#x %#x %d",
				ws, i, r.Op, r.Mask, r.Flags, r.Base, r.Stride, ref.Flags, ref.Base, ref.Stride)
		}
		for l := 0; l < ws; l++ {
			if r.Mask&(1<<uint(l)) == 0 {
				continue
			}
			tid := int(r.Block)*shapeBlock + (int(r.Warp)-int(r.Block)*wpb)*ws + l
			a := fmt.Sprintf("pc=%d %v %v sz=%d @%#x", r.PC, r.Op, r.Space, r.Size, r.Addrs[l])
			if r.Op == trace.OpWrite {
				a += fmt.Sprintf(" =%#x", r.Vals[l])
			}
			accesses[tid] = append(accesses[tid], a)
		}
	}
	return mem, accesses
}

// TestWarpShapeInvariance: a thread's result is a function of its tid,
// never of the warp it sat in. Seeded straight-line kernels over every
// handler family run at warp width 32 with 64-thread blocks (every
// unguarded instruction takes the full-warp walk), at 31 and 5 (a partial
// last warp, and lanes that sit at other positions of other warps), and
// at 32 with the body on the two sides of an odd/even branch (every
// handler bit-iterates 0x55555555 and 0xaaaaaaaa): each thread's
// registers, predicates and memory must come out the same bytes. The
// instrumented module must log the same accesses per thread at each
// width — fillLog's whole-warp fill against its bit-iterating one — and
// tag every record as logging.Record.Classify would.
func TestWarpShapeInvariance(t *testing.T) {
	kernels := 200
	if testing.Short() {
		kernels = 40
	}
	g := &shapeGen{families: make(map[string]int)}
	for seed := 0; seed < kernels; seed++ {
		g.Rand = rand.New(rand.NewSource(int64(seed)))
		body := g.body(30)
		parse := func(split bool) *ptx.Module {
			src := shapeKernel(body, split)
			m, err := ptx.Parse(src)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			return m
		}
		plain := parse(false)
		want, _ := shapeRun(t, plain, 32, false)
		check := func(name string, got []byte) {
			t.Helper()
			if bytes.Equal(got, want) {
				return
			}
			for tid := 0; tid < shapeGrid*shapeBlock; tid++ {
				if a, b := got[tid*shapeSlot:(tid+1)*shapeSlot], want[tid*shapeSlot:(tid+1)*shapeSlot]; !bytes.Equal(a, b) {
					t.Fatalf("seed %d, %s: thread %d ends with\n%x, at warp width 32 with\n%x\n%s",
						seed, name, tid, a, b, shapeKernel(body, false))
				}
			}
		}
		for _, ws := range []int{31, 5} {
			got, _ := shapeRun(t, plain, ws, false)
			check(fmt.Sprintf("warp width %d", ws), got)
		}
		got, _ := shapeRun(t, parse(true), 32, false)
		check("odd/even split", got)

		res, err := instrument.Instrument(plain, instrument.Options{NoPrune: true})
		if err != nil {
			t.Fatalf("seed %d: instrument: %v", seed, err)
		}
		got, wantLog := shapeRun(t, res.Module, 32, true)
		check("instrumented", got)
		for _, ws := range []int{31, 5} {
			got, gotLog := shapeRun(t, res.Module, ws, true)
			check(fmt.Sprintf("instrumented, warp width %d", ws), got)
			for tid := range wantLog {
				if a, b := strings.Join(gotLog[tid], "\n"), strings.Join(wantLog[tid], "\n"); a != b {
					t.Fatalf("seed %d: thread %d logs at warp width %d\n%s\nat 32\n%s", seed, tid, ws, a, b)
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, f := range shapeFamilies {
		if g.families[f] == 0 {
			t.Errorf("no kernel drew a %s instruction", f)
		}
	}
	if len(g.families) != len(shapeFamilies) {
		t.Errorf("draw names families shapeFamilies does not list: %v", g.families)
	}
}
