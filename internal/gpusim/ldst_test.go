package gpusim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"barracuda/internal/ptx"
)

// ldstModule declares one buffer of each space the typed loops cover, for
// a kernel whose body is text.
func ldstModule(tb testing.TB, text string) (*Module, *cInstr) {
	tb.Helper()
	src := ".global .align 8 .b8 gm[256];\n.visible .entry k()\n{\n\t.reg .u32 %r<4>;\n\t.reg .u64 %rd<4>;\n" +
		"\t.shared .align 8 .b8 sm[256];\n\t.local .align 8 .b8 lm[64];\n\t" + text + "\n\tret;\n}"
	m, err := ptx.Parse(src)
	if err != nil {
		tb.Fatalf("%s: parse: %v", text, err)
	}
	mod, err := NewDevice(0).LoadModule(m)
	if err != nil {
		tb.Fatalf("%s: load: %v", text, err)
	}
	mod.Dev.MustAlloc(4096)
	code, err := mod.compile(mod.kernels["k"])
	if err != nil {
		tb.Fatalf("%s: compile: %v", text, err)
	}
	return mod, &code[0]
}

// ldstWarp is an engine and a warp of the given width over every memory
// space, each byte of it and each register row filled from rng.
func ldstWarp(mod *Module, lanes int, rng *rand.Rand) (*engine, *warpState) {
	lk := mod.kernels["k"]
	dev := &Device{mem: make([]byte, len(mod.Dev.mem)), next: mod.Dev.next, memLimit: mod.Dev.memLimit}
	e := &engine{mod: mod, lk: lk, dev: dev, ws: lanes}
	w := testWarp(lanes, lk.nRegs, func(r, l int) uint64 { return rng.Uint64() })
	w.blk = &blockState{shared: make([]byte, lk.sharedBytes)}
	w.local = make([]byte, lanes*int(lk.localBytes))
	for _, b := range [][]byte{dev.mem, w.blk.shared, w.local} {
		rng.Read(b)
	}
	return e, w
}

// clone copies a warp and the memory its engine reaches.
func clone(e *engine, w *warpState) (*engine, *warpState) {
	e2, w2 := *e, *w
	d := *e.dev
	d.mem = bytes.Clone(e.dev.mem)
	e2.dev = &d
	w2.regs = append([]uint64(nil), w.regs...)
	w2.blk = &blockState{shared: bytes.Clone(w.blk.shared)}
	w2.local = bytes.Clone(w.local)
	return &e2, &w2
}

// TestTypedLdStMatchGeneric runs every scalar ld and st the typed loops of
// makeLd and makeSt compile through them and through execLane, the per-lane
// oracle (loadSpace, storeSpace): global, generic, shared and local; sizes
// 1, 2, 4 and 8, signed and unsigned; a register and a symbol base; a full
// warp, a sparse mask and a 5-lane warp; lanes at stride 0, the access size
// and 40 bytes; no fault, or a fault at the first, a middle or the last
// active lane (past the end, or an address near 2^64). The register rows,
// the bytes of every space and the error text must be the same.
func TestTypedLdStMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	spaces := []struct {
		name, sym string
		lo, n     uint64 // the addresses the register base walks; n 0 runs to the device's end
	}{
		{".global", "gm", GlobalBase + 512, 0},
		{"", "gm", GlobalBase + 512, 0},
		{".shared", "sm", 0, 256},
		{".local", "lm", 0, 64},
	}
	warps := []struct {
		lanes int
		exec  uint32
	}{{32, 1<<32 - 1}, {32, 0xa5a50f01}, {5, 1<<5 - 1}, {5, 0b10110}}
	cases := 0
	for _, sp := range spaces {
		for _, typ := range []string{"u8", "s8", "u16", "s16", "u32", "s32", "b32", "f32", "u64", "s64", "f64"} {
			reg := "%r"
			if strings.HasSuffix(typ, "64") {
				reg = "%rd"
			}
			for _, text := range []string{
				fmt.Sprintf("ld%s.%s %s1, [%%rd1+8];", sp.name, typ, reg),
				fmt.Sprintf("ld%s.%s %s1, [%s+8];", sp.name, typ, reg, sp.sym),
				fmt.Sprintf("ld%s.%s %%rd1, [%%rd1];", sp.name, typ), // the base is also the destination
				fmt.Sprintf("st%s.%s [%%rd1+8], %s2;", sp.name, typ, reg),
				fmt.Sprintf("st%s.%s [%s+8], %s2;", sp.name, typ, sp.sym, reg),
				fmt.Sprintf("st%s.%s [%%rd1], 0x1234567890;", sp.name, typ),
				fmt.Sprintf("st%s.%s [%%rd1], 2.5;", sp.name, typ),
			} {
				mod, ci := ldstModule(t, text)
				if reflect.ValueOf(ci.fn).Pointer() == reflect.ValueOf(execLaneLoop).Pointer() {
					t.Fatalf("%s: not compiled to a typed loop", text)
				}
				size, rd1, n := uint64(ci.size), mod.kernels["k"].regIndex("%rd1"), sp.n
				if n == 0 {
					n = GlobalBase + uint64(len(mod.Dev.mem)) - sp.lo
				}
				for _, wp := range warps {
					for _, stride := range []uint64{0, size, 40} {
						for _, fault := range []int{-1, 0, 1, 2} { // none, first, middle, last active lane
							for _, far := range []bool{false, true} {
								cases++
								e, w := ldstWarp(mod, wp.lanes, rng)
								var act []int
								for l := 0; l < wp.lanes; l++ {
									if wp.exec>>uint(l)&1 != 0 {
										act = append(act, l)
									}
								}
								start := sp.lo + uint64(rng.Intn(8))
								for i, l := range act {
									w.regs[rd1*WarpSize+l] = start + uint64(i)*stride%(n-32)
								}
								if fault >= 0 {
									l := act[[]int{0, len(act) / 2, len(act) - 1}[fault]]
									bad := sp.lo + n - size + 1 // straddles the end
									if far {
										bad = ^uint64(0) - max(size, 2) + 2 // the last byte wraps past 2^64 (is 2^64-1 for one byte)
									}
									w.regs[rd1*WarpSize+l] = bad - 8
									if strings.Contains(text, "%rd1]") {
										w.regs[rd1*WarpSize+l] = bad
									}
								}
								e2, w2 := clone(e, w)
								got := ci.fn(e, w, ci, wp.exec)
								want := execLaneLoop(e2, w2, ci, wp.exec)
								if fmt.Sprint(got) != fmt.Sprint(want) {
									t.Fatalf("%s lanes=%d exec=%#x stride %d fault %d: typed error %v, per lane %v", text, wp.lanes, wp.exec, stride, fault, got, want)
								}
								if fault >= 0 && got == nil && !strings.Contains(text, "[gm") && !strings.Contains(text, "[sm") && !strings.Contains(text, "[lm") {
									t.Fatalf("%s: the planted fault did not fault", text)
								}
								for i := range w.regs {
									if w.regs[i] != w2.regs[i] {
										t.Fatalf("%s lanes=%d exec=%#x stride %d fault %d: register %d lane %d: typed %#x, per lane %#x", text, wp.lanes, wp.exec, stride, fault, i/WarpSize, i%WarpSize, w.regs[i], w2.regs[i])
									}
								}
								for _, m := range [][2][]byte{{e.dev.mem, e2.dev.mem}, {w.blk.shared, w2.blk.shared}, {w.local, w2.local}} {
									if !bytes.Equal(m[0], m[1]) {
										t.Fatalf("%s lanes=%d exec=%#x stride %d fault %d: memory differs", text, wp.lanes, wp.exec, stride, fault)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d instruction executions compared", cases)
}

// TestWrappedAddressFaultsLane: an address whose last byte lies past 2^64
// is out of bounds in every space, for a load, a store and an atomic — a
// launch error naming lane 0, where the bounds checks used to add the size
// to the address, wrap, and index a slice with it.
func TestWrappedAddressFaultsLane(t *testing.T) {
	for _, space := range []string{"global", "shared", "local"} {
		for _, op := range []string{
			"ld.%s.u32 %%r1, [%%rd1];",
			"st.%s.u32 [%%rd1], %%r1;",
			"atom.%s.add.u32 %%r1, [%%rd1], 1;",
		} {
			body := "mov.u64 %rd1, 0xFFFFFFFFFFFFFFFE;\n\t" + fmt.Sprintf(op, space)
			src := ".visible .entry k()\n{\n\t.reg .u32 %r<4>;\n\t.reg .u64 %rd<4>;\n" +
				"\t.shared .align 4 .b8 sm[64];\n\t.local .align 4 .b8 lm[16];\n\t" + body + "\n\tret;\n}"
			m, err := ptx.Parse(src)
			if err != nil {
				t.Fatalf("%s: parse: %v", body, err)
			}
			mod, err := NewDevice(0).LoadModule(m)
			if err != nil {
				t.Fatalf("%s: load: %v", body, err)
			}
			mod.Dev.MustAlloc(64)
			_, err = mod.Launch("k", LaunchConfig{Grid: D1(1), Block: D1(32)})
			if err == nil || !strings.Contains(err.Error(), "lane 0: ") || !strings.Contains(err.Error(), "out of bounds") {
				t.Errorf("%s: launch error %v, want lane 0 out of bounds", body, err)
			}
		}
	}
}

// BenchmarkLdSt times one warp instruction (ns/op) of a full-warp global
// load and store through the typed loop, at a 4-byte lane stride and at 640
// bytes, the 26-program suite's per-thread slots.
func BenchmarkLdSt(b *testing.B) {
	for _, text := range []string{"ld.global.u32 %r1, [%rd1+8];", "st.global.u32 [%rd1+8], %r2;"} {
		for _, stride := range []uint64{4, 640} {
			b.Run(fmt.Sprintf("%s/stride%d", strings.Fields(text)[0], stride), func(b *testing.B) {
				mod, ci := ldstModule(b, text)
				mod.Dev.MustAlloc(32 * 640)
				e, w := ldstWarp(mod, 32, rand.New(rand.NewSource(1)))
				e.dev = mod.Dev
				rd1 := mod.kernels["k"].regIndex("%rd1")
				for l := 0; l < 32; l++ {
					w.regs[rd1*WarpSize+l] = GlobalBase + 4096 + uint64(l)*stride
				}
				for i := 0; i < b.N; i++ {
					if err := ci.fn(e, w, ci, 1<<32-1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
