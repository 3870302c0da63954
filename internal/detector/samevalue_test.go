package detector

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"barracuda/internal/gpusim"
)

// sameValuePrograms are warps whose lanes store through every address
// shape the queue ships: the stride-0 store of
// TestEndToEndSameValueWritesFiltered, contiguous and strided stores whose
// lanes meet in a shadow cell only once Granularity outgrows the stride,
// sub-word and misaligned lanes that meet inside a word, a shared-memory
// store, and a half-warp behind a branch. "same" stores one value from
// every lane (the filter's case), "diff" the lane id (a reported race).
func sameValuePrograms() map[string]string {
	prog := func(space, typ, addr, val string) string {
		return fmt.Sprintf(`.visible .entry k(.param .u64 out)
{
	.reg .u32 %%r<8>;
	.reg .u64 %%rd<8>;
	.reg .pred %%p<2>;
	.shared .align 8 .b8 sm[1024];
	ld.param.u64 %%rd1, [out];
	mov.u64 %%rd5, sm;
	mov.u32 %%r1, %%tid.x;
	cvt.u64.u32 %%rd2, %%r1;
%s	st.%s.%s [%%rd4], %s;
	ret;
}`, addr, space, typ, val)
	}
	lanes := func(base string, shift, off int) string {
		return fmt.Sprintf("\tshl.b64 %%rd3, %%rd2, %d;\n\tadd.u64 %%rd4, %s, %%rd3;\n\tadd.u64 %%rd4, %%rd4, %d;\n", shift, base, off)
	}
	progs := map[string]string{}
	for name, val := range map[string]string{"same": "7", "diff": "%r1"} {
		progs["stride0-"+name] = prog("global", "u32", "\tmov.u64 %rd4, %rd1;\n", val)
		progs["coalesced-u32-"+name] = prog("global", "u32", lanes("%rd1", 2, 0), val)
		progs["stride8-u32-"+name] = prog("global", "u32", lanes("%rd1", 3, 0), val)
		progs["stride32-u64-"+name] = prog("global", "u64", lanes("%rd1", 5, 0), map[string]string{"7": "7", "%r1": "%rd2"}[val])
		progs["coalesced-u8-"+name] = prog("global", "u8", lanes("%rd1", 0, 0), val)
		progs["misaligned-u32-"+name] = prog("global", "u32", lanes("%rd1", 2, 2), val)
		progs["shared-stride0-"+name] = prog("shared", "u32", "\tmov.u64 %rd4, %rd5;\n", val)
		progs["shared-coalesced-"+name] = prog("shared", "u32", lanes("%rd5", 2, 0), val)
		progs["halfwarp-stride8-"+name] = prog("global", "u32",
			"\tsetp.lt.u32 %p1, %r1, 16;\n\t@!%p1 bra DONE;\n"+lanes("%rd1", 3, 0), val+";\nDONE:\n\tadd.u32 %r2, %r1, 1")
	}
	return progs
}

// sameValueOutcome is the report's exact text: every race with its
// dynamic count, RecordsSeen and SameValueGag.
func sameValueOutcome(t *testing.T, src string, cfg Config) string {
	t.Helper()
	s := open(t, src, cfg)
	out := s.Dev.MustAlloc(2048)
	res := detect(t, s, "k", gpusim.LaunchConfig{Grid: gpusim.D1(1), Block: gpusim.D1(32), Args: []uint64{out}})
	return res.Report.ExactText()
}

// TestSameValueGoldenEquivalence pins the rule that decides when stored
// values cross the queue. At Granularity 1, 8 and 64, with the same-value
// filter on and off, every program's races, dynamic counts and
// SameValueGag are the ones recorded at 354e1c1, where every write record
// carried all of its values (testdata/samevalue_354e1c1.json, recorded by
// a throw-away loop over sameValueOutcome in a checkout of that commit).
func TestSameValueGoldenEquivalence(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "samevalue_354e1c1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	progs := sameValuePrograms()
	if len(golden) != len(progs)*6 {
		t.Fatalf("golden has %d entries, want %d", len(golden), len(progs)*6)
	}
	filtered := 0
	for name, src := range progs {
		for _, gran := range []int{1, 8, 64} {
			for _, off := range []bool{false, true} {
				key := fmt.Sprintf("%s/%d/%v", name, gran, off)
				got := sameValueOutcome(t, src, Config{Granularity: gran, NoSameValueFilter: off})
				if want := golden[key]; got != want {
					t.Errorf("%s:\n--- 354e1c1 ---\n%s--- got ---\n%s", key, want, got)
				}
				for _, queues := range []int{1, 4} {
					if small := sameValueOutcome(t, src, Config{Granularity: gran, NoSameValueFilter: off, QueueCap: 1, Queues: queues}); small != got {
						t.Errorf("%s: outcome differs at QueueCap 1, Queues %d:\n%s", key, queues, small)
					}
				}
				var gag int
				fmt.Sscanf(got[strings.LastIndex(got, "samevalue="):], "samevalue=%d", &gag)
				filtered += gag
			}
		}
	}
	if filtered == 0 {
		t.Error("no program exercised the same-value filter")
	}
}
