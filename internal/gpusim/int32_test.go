package gpusim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"barracuda/internal/ptx"
)

// compileOne compiles a kernel whose body is the one instruction text over
// %r0-3 and returns it compiled.
func compileOne(tb testing.TB, text string) *cInstr {
	tb.Helper()
	m, err := ptx.Parse(".visible .entry k()\n{\n\t.reg .u32 %r<4>;\n\t.reg .u64 %rd<2>;\n\t.reg .pred %p<2>;\n\t" + text + "\n\tret;\n}")
	if err != nil {
		tb.Fatalf("%s: parse: %v", text, err)
	}
	mod, err := NewDevice(0).LoadModule(m)
	if err != nil {
		tb.Fatalf("%s: load: %v", text, err)
	}
	code, err := mod.compile(mod.kernels["k"])
	if err != nil {
		tb.Fatalf("%s: compile: %v", text, err)
	}
	return &code[0]
}

// genericInt is the handler the instruction had before the typed loops: the
// per-lane closure around intBinOp/intMadOp's scalar function.
func genericInt(ci *cInstr) warpHandler {
	if ci.op == ptx.OpMad {
		return makeIntTri(ci, intMadOp(ci))
	}
	return makeIntBin(ci, intBinOp(ci))
}

// int32Edges are the inputs the 32-bit ops' corner cases sit at, as they
// arrive in a 64-bit register: shift counts around the width, the signed
// extremes, and the same values under high bits both paths must ignore.
var int32Edges = []uint64{
	0, 1, 3, 31, 32, 33, 1<<32 - 1, 1 << 31, 1<<31 - 1, 1<<31 + 1, 0xffff,
	1 << 32, 1<<32 | 31, 0xdeadbeef00000020, ^uint64(0), 0xffffffff80000000, 0x8000000000000000,
}

// int32Imms are the same corners written as PTX immediates (the parser
// keeps an int64, so a negative one arrives with its high bits set).
var int32Imms = []string{"0", "1", "3", "31", "32", "4294967295", "2147483647", "-2147483648", "-1", "-5", "0xffff"}

// testWarp builds a warp of the given width over nRegs registers whose
// rows are filled by fill.
func testWarp(lanes, nRegs int, fill func(r, l int) uint64) *warpState {
	w := &warpState{lanes: lanes, fullMask: uint32(1<<uint(lanes) - 1), regs: make([]uint64, nRegs*WarpSize)}
	for r := 0; r < nRegs; r++ {
		for l := 0; l < WarpSize; l++ {
			w.regs[r*WarpSize+l] = fill(r, l)
		}
	}
	return w
}

// TestTypedIntOpsMatchGeneric runs every op, signedness and operand shape
// makeInt32 covers through the typed handler and through the generic
// closure it replaced, on the edge values in every pairing and on random
// 64-bit register contents, over a full warp, a sparse mask and a partial
// warp: the destination rows must hold the same bits, and lanes outside
// the mask must keep what they held.
func TestTypedIntOpsMatchGeneric(t *testing.T) {
	ops := []string{"add", "sub", "mul.lo", "mad.lo", "and", "or", "xor", "shl", "shr", "min", "max"}
	rng := rand.New(rand.NewSource(24))
	nEdge := len(int32Edges)
	fill := func(r, l int) uint64 { return rng.Uint64() }
	for _, op := range ops {
		nSrc := 2
		if op == "mad.lo" {
			nSrc = 3
		}
		for _, typ := range []string{"u32", "s32", "b32"} {
			// Every reg/imm shape: bit i of shape set makes input i an immediate.
			for shape := 0; shape < 1<<nSrc; shape++ {
				for _, dst := range []string{"%r0", "%r1"} { // %r1: the destination is also an input
					for round := 0; round < nEdge; round++ {
						srcs := make([]string, nSrc)
						for i := range srcs {
							srcs[i] = fmt.Sprintf("%%r%d", i+1)
							if shape>>i&1 != 0 {
								srcs[i] = int32Imms[(round+3*i)%len(int32Imms)]
							}
						}
						text := fmt.Sprintf("%s.%s %s, %s;", op, typ, dst, strings.Join(srcs, ", "))
						ci := compileOne(t, text)
						typed := makeInt32(ci, immRows{})
						if typed == nil {
							t.Fatalf("%s: not covered by makeInt32", text)
						}
						generic := genericInt(ci)
						for _, m := range []struct {
							lanes int
							exec  uint32
						}{{32, 1<<32 - 1}, {32, 0xa5a50f01}, {32, 1 << 31}, {5, 1<<5 - 1}, {5, 0b10010}} {
							// %r0 and %r3 are random; %r1's lanes walk the edges
							// against every edge of %r2 as the rounds advance.
							a := testWarp(m.lanes, 4, fill)
							for l := 0; l < WarpSize; l++ {
								a.regs[1*WarpSize+l] = int32Edges[l%nEdge]
								a.regs[2*WarpSize+l] = int32Edges[(l+round)%nEdge]
							}
							b := *a
							b.regs = append([]uint64(nil), a.regs...)
							before := append([]uint64(nil), a.regs...)
							if err := typed(nil, a, ci, m.exec); err != nil {
								t.Fatalf("%s: typed: %v", text, err)
							}
							if err := generic(nil, &b, ci, m.exec); err != nil {
								t.Fatalf("%s: generic: %v", text, err)
							}
							d := ci.dst.reg
							for i, v := range a.regs {
								r, l := i/WarpSize, i%WarpSize
								if v != b.regs[i] {
									t.Fatalf("%s lanes=%d exec=%#x: %%r%d lane %d: typed %#x, generic %#x (inputs %#x %#x %#x)",
										text, m.lanes, m.exec, r, l, v, b.regs[i],
										before[1*WarpSize+l], before[2*WarpSize+l], before[3*WarpSize+l])
								}
								if (r != d || m.exec>>uint(l)&1 == 0) && v != before[i] {
									t.Fatalf("%s lanes=%d exec=%#x: %%r%d lane %d written outside the instruction's lanes", text, m.lanes, m.exec, r, l)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTypedIntOpsLeaveTheRestGeneric pins what makeInt32 declines: other
// widths, the wide and high multiplies, division, and inputs that are not a
// general register or an immediate.
func TestTypedIntOpsLeaveTheRestGeneric(t *testing.T) {
	for _, text := range []string{
		"add.u64 %rd0, %rd0, %rd1;",
		"add.u16 %r0, %r1, %r2;",
		"mul.wide.u32 %rd0, %r1, %r2;",
		"mul.hi.s32 %r0, %r1, %r2;",
		"mad.wide.u32 %rd0, %r1, %r2, %rd1;",
		"mad.hi.u32 %r0, %r1, %r2, %r3;",
		"div.u32 %r0, %r1, %r2;",
		"rem.s32 %r0, %r1, %r2;",
		"add.u32 %r0, %r1, %tid.x;",
		"add.f32 %r0, %r1, %r2;",
	} {
		if makeInt32(compileOne(t, text), immRows{}) != nil {
			t.Errorf("%s: covered by makeInt32; the typed loops are for 32-bit add sub mul.lo mad.lo and or xor shl shr min max only", text)
		}
	}
}

// BenchmarkIntOps times one warp instruction (ns/op) through the typed
// handler and through the generic closure, on a full warp and on one with
// every other lane masked off (the bit-iterating walk).
func BenchmarkIntOps(b *testing.B) {
	for _, text := range []string{
		"add.u32 %r0, %r1, %r2;",
		"mad.lo.u32 %r0, %r1, 3, %r2;",
		"shl.b32 %r0, %r1, 3;",
	} {
		ci := compileOne(b, text)
		for _, h := range []struct {
			name string
			fn   warpHandler
		}{{"typed", makeInt32(ci, immRows{})}, {"generic", genericInt(ci)}} {
			for _, m := range []struct {
				name string
				exec uint32
			}{{"full", 1<<32 - 1}, {"half", 0x55555555}} {
				b.Run(strings.Fields(text)[0]+"/"+h.name+"/"+m.name, func(b *testing.B) {
					w := testWarp(32, 4, func(r, l int) uint64 { return uint64(r*131 + l) })
					for i := 0; i < b.N; i++ {
						if err := h.fn(nil, w, ci, m.exec); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
