package detector

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"barracuda/internal/ptx"
)

func repairSrc(t *testing.T, src string, opt RepairOptions) *RepairReport {
	t.Helper()
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rr, err := Repair(m, m.Kernels[0].Name, opt)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	return rr
}

func verifiedPatch(rr *RepairReport) (RepairCandidate, RepairPatch, bool) {
	for _, c := range rr.Candidates {
		if !c.Repaired {
			continue
		}
		for _, p := range c.Patches {
			if p.Verdict.Verified {
				return c, p, true
			}
		}
	}
	return RepairCandidate{}, RepairPatch{}, false
}

// TestRepairMissingBarrier: the classic neighbor exchange. Each thread
// stores its own shared slot then reads its neighbor's; without a
// barrier the cross-warp pairs race. The synthesizer's bar.sync must
// verify: target race gone, no new races, no divergence.
func TestRepairMissingBarrier(t *testing.T) {
	src := `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<8>;
	.shared .align 4 .b8 s[1024];
	ld.param.u64 %rd4, [out];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	mov.u64 %rd1, s;
	cvt.u64.u32 %rd2, %r2;
	add.u64 %rd3, %rd1, %rd2;
	st.shared.u32 [%rd3], %r1;
	ld.shared.u32 %r3, [%rd3+4];
	ret;
}`
	rr := repairSrc(t, src, RepairOptions{})
	if rr.BaselineRaces == 0 {
		t.Fatal("baseline detected no races on the unsynchronized exchange")
	}
	if len(rr.Candidates) != 1 || rr.Candidates[0].Description != "shared write at line 11 vs read at line 12" {
		t.Errorf("candidates %+v, want the one cross-slot pair", rr.Candidates)
	}
	_, patch, ok := verifiedPatch(rr)
	if !ok {
		t.Fatalf("no verified patch: %+v", rr.Candidates)
	}
	if patch.Kind != "insert-barrier" {
		t.Errorf("patch kind = %s, want insert-barrier", patch.Kind)
	}
	if !strings.Contains(patch.Diff, "+\tbar.sync 0;") {
		t.Errorf("diff does not insert a barrier:\n%s", patch.Diff)
	}
	if rr.PatchedPTX == "" {
		t.Fatal("no composed patched module")
	}
	if rr.FinalRaces != 0 {
		t.Errorf("composed module still races: %d", rr.FinalRaces)
	}
}

// TestRepairAtomicIncrement: every thread does a plain ld/add/st on one
// global counter. The atomicize template rewrites the triple to
// red.global.add and the patched module must be race-free.
func TestRepairAtomicIncrement(t *testing.T) {
	src := `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	ld.global.u32 %r2, [%rd1];
	add.u32 %r3, %r2, 1;
	st.global.u32 [%rd1], %r3;
	ret;
}`
	rr := repairSrc(t, src, RepairOptions{})
	if rr.BaselineRaces == 0 {
		t.Fatal("baseline detected no races on the lost-update kernel")
	}
	_, patch, ok := verifiedPatch(rr)
	if !ok {
		t.Fatalf("no verified patch: %+v", rr.Candidates)
	}
	if patch.Kind != "atomicize" {
		t.Errorf("patch kind = %s, want atomicize", patch.Kind)
	}
	if !strings.Contains(patch.Diff, "+\tred.global.add.u32 [%rd1], 1;") {
		t.Errorf("diff does not atomicize:\n%s", patch.Diff)
	}
	if rr.FinalRaces != 0 {
		t.Errorf("composed module still races: %d", rr.FinalRaces)
	}
}

// TestRepairHandshakeFences: message passing with no fences. Thread 0
// of block 0 stores data then raises a flag; block 1 spins on the flag
// then reads the data. The fence patch must add a release fence before
// the flag store and an acquire fence after the spin load, after which
// the happens-before edge removes both the flag race and the data race.
func TestRepairHandshakeFences(t *testing.T) {
	src := `.visible .entry mp(.param .u64 data, .param .u64 flag) {
	.reg .u32 %r<8>;
	.reg .u64 %rd<4>;
	.reg .pred %p<4>;
	ld.param.u64 %rd1, [data];
	ld.param.u64 %rd2, [flag];
	mov.u32 %r1, %ctaid.x;
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra READER;
	mov.u32 %r4, %tid.x;
	setp.ne.u32 %p2, %r4, 0;
	@%p2 bra DONE;
	st.global.u32 [%rd1], 42;
	st.global.u32 [%rd2], 1;
	bra DONE;
READER:
WAIT:
	ld.global.u32 %r2, [%rd2];
	setp.eq.u32 %p1, %r2, 0;
	@%p1 bra WAIT;
	ld.global.u32 %r3, [%rd1];
DONE:
	ret;
}`
	rr := repairSrc(t, src, RepairOptions{})
	if rr.BaselineRaces == 0 {
		t.Fatal("baseline detected no races on the unfenced handshake")
	}
	_, patch, ok := verifiedPatch(rr)
	if !ok {
		t.Fatalf("no verified patch: %+v", rr.Candidates)
	}
	if patch.Kind != "insert-fence" {
		t.Errorf("patch kind = %s, want insert-fence", patch.Kind)
	}
	if got := strings.Count(patch.Diff, "+\tmembar.gl;"); got != 2 {
		t.Errorf("diff inserts %d membar.gl, want 2:\n%s", got, patch.Diff)
	}
	if rr.FinalRaces != 0 {
		t.Errorf("composed module still races: %d", rr.FinalRaces)
	}
}

// TestRepairDeclinesWarringWrites: every thread stores its tid to one
// address — an algorithmic race with no mechanical fix. The synthesizer
// must propose nothing and the report must say so honestly.
func TestRepairDeclinesWarringWrites(t *testing.T) {
	src := `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<4>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	st.global.u32 [%rd1], %r1;
	ret;
}`
	rr := repairSrc(t, src, RepairOptions{})
	if rr.BaselineRaces == 0 {
		t.Fatal("baseline detected no races")
	}
	if rr.Verified != 0 {
		t.Errorf("Verified = %d, want 0", rr.Verified)
	}
	if rr.Unrepaired == 0 {
		t.Error("a reported race with no fix must count as unrepaired")
	}
	if len(rr.Candidates) != 1 || rr.Candidates[0].Description != "global write at line 6 vs itself across threads" {
		t.Errorf("candidates %+v, want the one self-race at line 6", rr.Candidates)
	}
	for _, c := range rr.Candidates {
		if len(c.Patches) != 0 {
			t.Errorf("candidate %q got %d proposals, want none", c.Description, len(c.Patches))
		}
	}
	if rr.PatchedPTX != "" {
		t.Error("no patch verified, yet a patched module was emitted")
	}
}

// TestRepairBudgetRejectsDeadlock: with an artificially tiny step
// budget every patched launch exhausts it, so no patch may verify even
// though the static proposal is sound.
func TestRepairBudgetRejectsDeadlock(t *testing.T) {
	src := `.visible .entry k(.param .u64 out) {
	.reg .u32 %r<6>;
	.reg .u64 %rd<4>;
	ld.param.u64 %rd1, [out];
	ld.global.u32 %r2, [%rd1];
	add.u32 %r3, %r2, 1;
	st.global.u32 [%rd1], %r3;
	ret;
}`
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Budget of 1: the baseline itself cannot complete.
	_, err = Repair(m, "k", RepairOptions{MaxInstrs: 1})
	if err == nil {
		t.Fatal("expected the baseline run to fail under a 1-instruction budget")
	}
}

// TestRepairUnknownKernel: a helpful error, not a panic.
func TestRepairUnknownKernel(t *testing.T) {
	m, err := ptx.Parse(`.visible .entry k() { ret; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Repair(m, "nope", RepairOptions{}); err == nil {
		t.Fatal("expected an error for an unknown kernel")
	}
}

// repairGoldenReports runs the repair loop on every kernel of each
// fixable_* and unfixable_* example, with `barracuda vet -fix`'s launch
// (2 blocks of 64 threads, one zeroed 4096-byte buffer per parameter), by
// file name.
func repairGoldenReports(t *testing.T) map[string][]*RepairReport {
	t.Helper()
	var files []string
	for _, pat := range []string{"fixable_*.ptx", "unfixable_*.ptx"} {
		m, err := filepath.Glob(filepath.Join("..", "..", "examples", "vet", pat))
		if err != nil || len(m) == 0 {
			t.Fatalf("examples/vet/%s: %v (%d files)", pat, err, len(m))
		}
		files = append(files, m...)
	}
	out := make(map[string][]*RepairReport)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ptx.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, k := range m.Kernels {
			rr, err := Repair(m, k.Name, vetLaunch(k))
			if err != nil {
				t.Fatalf("%s: kernel %s: %v", f, k.Name, err)
			}
			out[filepath.Base(f)] = append(out[filepath.Base(f)], rr)
		}
	}
	return out
}

// vetLaunch is `barracuda vet -fix`'s verification launch for kernel k.
func vetLaunch(k *ptx.Kernel) RepairOptions {
	buffers := make([]int, len(k.Params))
	for i := range buffers {
		buffers[i] = 4096
	}
	return RepairOptions{Grid: 2, Block: 64, Buffers: buffers}
}

// TestRepairGolden pins what the repair loop reports for the example
// corpus — every candidate, proposal, diff and verdict. The reports were
// recorded at 10dc98b, before the barrier and fence templates shared their
// idiom finders with the lint pass, and re-recorded when the candidates
// became the reported races alone: the static-only candidates, their
// scores and their patch runs left, and every verified patch, patched
// module and final race count stayed as recorded.
func TestRepairGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "repair_10dc98b.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := repairGoldenReports(t)
	if len(got) != len(want) {
		t.Errorf("%d files repaired, %d recorded", len(got), len(want))
	}
	for f, reps := range got {
		g, err := json.MarshalIndent(reps, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var w bytes.Buffer
		if err := json.Indent(&w, want[f], "", "  "); err != nil {
			t.Errorf("%s: no recorded report: %v", f, err)
			continue
		}
		if !bytes.Equal(g, w.Bytes()) {
			t.Errorf("%s: repair report moved:\n got %s\nwant %s", f, g, w.Bytes())
		}
	}
}

// TestRepairTargetsReportedRaces: on the example corpus, a repair targets
// the races its baseline run reported and nothing else — each candidate
// is a line pair of that report, there are no more candidates than
// reported races, and the detection runs are the baseline, one per
// proposal and the composition of the verified patches.
func TestRepairTargetsReportedRaces(t *testing.T) {
	for f, reps := range repairGoldenReports(t) {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "vet", f))
		if err != nil {
			t.Fatal(err)
		}
		m, err := ptx.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, rr := range reps {
			k := m.Kernel(rr.Kernel)
			opt := vetLaunch(k).withDefaults()
			base, err := runOnce(m, k.Name, opt, opt.Buffers)
			if err != nil {
				t.Fatal(err)
			}
			reported := map[[2]int]string{}
			for _, r := range base.Races {
				lo, hi := int(r.Prev.PC), int(r.Cur.PC)
				reported[[2]int{min(lo, hi), max(lo, hi)}] = r.Space.String()
			}
			runs := 1
			for _, c := range rr.Candidates {
				if sp, ok := reported[[2]int{c.LineA, c.LineB}]; !ok || sp != c.Space {
					t.Errorf("%s: candidate %q is not a race of the baseline report", f, c.Description)
				}
				runs += len(c.Patches)
			}
			if rr.Verified > 0 {
				runs++
			}
			if len(rr.Candidates) > rr.BaselineRaces {
				t.Errorf("%s: %d candidates for %d reported races", f, len(rr.Candidates), rr.BaselineRaces)
			}
			if rr.PatchRuns != runs {
				t.Errorf("%s: %d patch runs, want %d (baseline, proposals, composition)", f, rr.PatchRuns, runs)
			}
		}
	}
}
