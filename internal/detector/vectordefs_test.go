package detector

import (
	"testing"

	"barracuda/internal/gpusim"
)

// vectorDefsSrc reads x+64 through %rd3, reloads %rd3 with &x through the
// second destination of a vector load, and reads through it again: the
// two reads share the text [%rd3] but not the address. Thread 0 then
// writes x, which the second warp's reads of x race with.
const vectorDefsSrc = `.visible .entry vecdefs(.param .u64 x, .param .u64 ptrs)
{
	.reg .pred %p<2>;
	.reg .u32 %r<4>;
	.reg .u64 %rd<6>;
	ld.param.u64 %rd1, [x];
	ld.param.u64 %rd2, [ptrs];
	add.u64 %rd3, %rd1, 64;
	ld.global.u32 %r2, [%rd3];
	ld.global.v2.u64 {%rd4, %rd3}, [%rd2];
	ld.global.u32 %r3, [%rd3];
	mov.u32 %r1, %tid.x;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra DONE;
	st.global.u32 [%rd1], %r1;
DONE:
	ret;
}`

const (
	vectorDefsReadLine  = 11 // ld.global.u32 %r3, [%rd3]
	vectorDefsWriteLine = 15 // st.global.u32 [%rd1], %r1
)

// TestVectorLoadDefinesAllDestinations: the vector load redefines %rd3,
// so the second read through it is a new access under every
// configuration — logged, and its race with thread 0's write of x
// reported — as it is with pruning off. Before every destination of an
// ld.vN counted as a definition, Config{} and StaticPrune pruned it as a
// repeat of the first read and reported nothing.
func TestVectorLoadDefinesAllDestinations(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"no_prune", Config{NoPrune: true}},
		{"default", Config{}},
		{"static_prune", Config{StaticPrune: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := open(t, vectorDefsSrc, c.cfg)
			defer s.Close()
			args, err := s.AllocArgs([]int{128, 16})
			if err != nil {
				t.Fatal(err)
			}
			x, ptrs := args[0], args[1]
			if err := s.Dev.WriteU64(ptrs+8, x); err != nil {
				t.Fatal(err)
			}
			res := detect(t, s, "vecdefs", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(64), Args: args})
			found := false
			for _, r := range res.Report.Races {
				lines := map[uint32]bool{r.Prev.PC: true, r.Cur.PC: true}
				found = found || r.Addr == x && lines[vectorDefsReadLine] && lines[vectorDefsWriteLine]
			}
			if !found {
				t.Errorf("no race on x between lines %d and %d: %v", vectorDefsReadLine, vectorDefsWriteLine, res.Report.Races)
			}
		})
	}
}
