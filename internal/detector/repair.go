// Verified repair synthesis: run detection once on the module, take
// each race it reported as a candidate, ask package staticanalysis for
// patch proposals, apply each proposal to a clone of the module, and
// re-run full dynamic detection on the patched module. A patch is
// accepted only when the targeted race is gone, no new races appeared,
// no new barrier divergence appeared, and the launch still completes
// within its step budget. The dynamic detector — not the synthesizer —
// is the judge, so the static layer is free to propose aggressively and
// unrepairable kernels are declined honestly.
package detector

import (
	"errors"
	"fmt"
	"time"

	"barracuda/internal/core"
	"barracuda/internal/gpusim"
	"barracuda/internal/kernel"
	"barracuda/internal/logging"
	"barracuda/internal/ptx"
	"barracuda/internal/staticanalysis"
)

// RepairOptions configures one repair run.
type RepairOptions struct {
	// Grid and Block give the verification launch shape (defaults 2 and
	// 64: two blocks expose inter-block races, two warps expose
	// cross-warp intra-block ones that lockstep execution would hide
	// inside a single warp).
	Grid  int
	Block int
	// Buffers lists byte sizes of zeroed global buffers allocated fresh
	// for every launch, passed as the kernel arguments in order. When
	// empty, one 4096-byte buffer per kernel parameter is used.
	Buffers []int
	// MaxInstrs is the per-launch warp-instruction budget (default
	// 1<<22). A patch that deadlocks — e.g. a barrier a divergent
	// thread never reaches — exhausts it and is rejected.
	MaxInstrs uint64
	// Deadline bounds every verification launch (zero = none). Passing it
	// ends the repair with gpusim.ErrDeadline; it rejects no patch.
	Deadline time.Time
	// WarpSize optionally narrows the warp (0 = architecture default).
	WarpSize int
}

// maxCandidates bounds the reported races a repair targets, in report
// order; maxPatchesPerCandidate bounds the proposals tried per race.
const (
	maxCandidates          = 8
	maxPatchesPerCandidate = 3
)

func (o RepairOptions) withDefaults() RepairOptions {
	if o.Grid <= 0 {
		o.Grid = 2
	}
	if o.Block <= 0 {
		o.Block = 64
	}
	if o.MaxInstrs == 0 {
		o.MaxInstrs = 1 << 22
	}
	return o
}

// RepairVerdict is the dynamic verification outcome for one patch.
type RepairVerdict struct {
	Verified       bool   `json:"verified"`
	TargetGone     bool   `json:"target_gone"`
	NewRaces       int    `json:"new_races"`
	NewDivergences int    `json:"new_divergences"`
	LaunchError    string `json:"launch_error,omitempty"`
	Reason         string `json:"reason"`
}

// RepairPatch is one attempted patch with its verification verdict.
type RepairPatch struct {
	Kind    string        `json:"kind"`
	Note    string        `json:"note"`
	Diff    string        `json:"diff"`
	Verdict RepairVerdict `json:"verdict"`
}

// RepairCandidate is one reported race the repair targeted.
type RepairCandidate struct {
	Description string        `json:"description"`
	LineA       int           `json:"line_a"`
	LineB       int           `json:"line_b"`
	Space       string        `json:"space"`
	Patches     []RepairPatch `json:"patches"`
	Repaired    bool          `json:"repaired"` // some patch was verified
}

// RepairReport is the full outcome of a repair run on one kernel.
type RepairReport struct {
	Kernel              string            `json:"kernel"`
	BaselineRaces       int               `json:"baseline_races"`
	BaselineDivergences int               `json:"baseline_divergences"`
	Candidates          []RepairCandidate `json:"candidates"`
	Verified            int               `json:"verified"` // candidates with an accepted patch
	Unrepaired          int               `json:"unrepaired"`
	// PatchedPTX is the module with every accepted patch applied, empty
	// when nothing was verified. FinalRaces re-verifies the composition;
	// when no patch was accepted it is the baseline count (unchanged module).
	PatchedPTX string `json:"patched_ptx,omitempty"`
	FinalRaces int    `json:"final_races"`
	// PatchRuns counts dynamic detection launches: the baseline, one per
	// patch that applied, and the composition.
	PatchRuns int `json:"patch_runs"`
}

// raceKey identifies a race independent of address and thread
// identity: the unordered pair of source lines with access roles, plus
// the space. Patched modules run from the cloned AST, so line numbers
// are stable across the baseline and every patched run.
type raceKey struct {
	lineLo, lineHi uint32
	wLo, wHi       bool
	space          logging.SpaceID
}

func keyOf(r core.Race) raceKey {
	a, b := r.Prev, r.Cur
	if a.PC > b.PC || (a.PC == b.PC && a.Write && !b.Write) {
		a, b = b, a
	}
	return raceKey{lineLo: a.PC, lineHi: b.PC, wLo: a.Write, wHi: b.Write, space: r.Space}
}

func raceKeys(rep *core.Report) map[raceKey]bool {
	out := make(map[raceKey]bool, len(rep.Races))
	for _, r := range rep.Races {
		out[keyOf(r)] = true
	}
	return out
}

func divergencePCs(rep *core.Report) map[uint32]bool {
	out := make(map[uint32]bool, len(rep.Divergences))
	for _, d := range rep.Divergences {
		out[d.PC] = true
	}
	return out
}

// Repair runs the full report → patch → verify loop on one kernel of the
// module under the default detector. The module itself is never modified.
func Repair(m *ptx.Module, kernelName string, opt RepairOptions) (*RepairReport, error) {
	opt = opt.withDefaults()
	k := m.Kernel(kernelName)
	if k == nil {
		return nil, fmt.Errorf("detector: unknown kernel %q", kernelName)
	}
	buffers := opt.Buffers
	if len(buffers) == 0 {
		for range k.Params {
			buffers = append(buffers, 4096)
		}
	}
	rr := &RepairReport{Kernel: kernelName}

	// Baseline detection on the unpatched module.
	base, err := runOnce(m, kernelName, opt, buffers)
	rr.PatchRuns++
	if err != nil {
		return nil, fmt.Errorf("detector: baseline run: %w", err)
	}
	baseKeys := raceKeys(base)
	baseDivs := divergencePCs(base)
	rr.BaselineRaces = len(base.Races)
	rr.BaselineDivergences = len(base.Divergences)

	c, err := kernel.Build(k)
	if err != nil {
		return nil, err
	}
	analysis := staticanalysis.Analyze(c)
	origText := ptx.Print(m)
	var acceptedEdits []ptx.Edit
	// The candidates are the reported races, one per race key, in report
	// order.
	seen := map[raceKey]bool{}
	for _, r := range base.Races {
		target := keyOf(r)
		if len(rr.Candidates) == maxCandidates {
			break
		}
		if seen[target] {
			continue
		}
		seen[target] = true
		cand, ok := candidateOf(analysis, r)
		if !ok {
			continue
		}
		rc := RepairCandidate{
			Description: cand.Describe(),
			LineA:       cand.LineA,
			LineB:       cand.LineB,
			Space:       cand.Space.String(),
		}
		for _, prop := range staticanalysis.ProposePatches(analysis, cand, maxPatchesPerCandidate) {
			patched, err := ptx.ApplyEdits(m, prop.Edits)
			if err != nil {
				rc.Patches = append(rc.Patches, RepairPatch{
					Kind: string(prop.Kind), Note: prop.Note,
					Verdict: RepairVerdict{Reason: "patch did not apply: " + err.Error()},
				})
				continue
			}
			rp := RepairPatch{
				Kind: string(prop.Kind),
				Note: prop.Note,
				Diff: ptx.UnifiedDiff("a/"+kernelName+".ptx", "b/"+kernelName+".ptx", origText, ptx.Print(patched)),
			}
			rep, err := runOnce(patched, kernelName, opt, buffers)
			rr.PatchRuns++
			if errors.Is(err, gpusim.ErrDeadline) {
				return nil, fmt.Errorf("detector: verification run: %w", err)
			}
			rp.Verdict = verdict(target, baseKeys, baseDivs, rep, err)
			rc.Patches = append(rc.Patches, rp)
			if rp.Verdict.Verified {
				rc.Repaired = true
				acceptedEdits = append(acceptedEdits, prop.Edits...)
				break
			}
		}
		if rc.Repaired {
			rr.Verified++
		} else {
			rr.Unrepaired++
		}
		rr.Candidates = append(rr.Candidates, rc)
	}

	// Compose every accepted patch into one module and re-verify: the
	// individually verified patches could in principle interfere. With
	// nothing accepted the module is unchanged, so the final race count
	// is the baseline's — not zero.
	rr.FinalRaces = rr.BaselineRaces
	if len(acceptedEdits) > 0 {
		composed, err := ptx.ApplyEdits(m, dedupeEdits(acceptedEdits))
		if err == nil {
			rep, err := runOnce(composed, kernelName, opt, buffers)
			rr.PatchRuns++
			if errors.Is(err, gpusim.ErrDeadline) {
				return nil, fmt.Errorf("detector: composition run: %w", err)
			}
			if err == nil {
				rr.PatchedPTX = ptx.Print(composed)
				rr.FinalRaces = len(rep.Races)
			}
		}
	}
	return rr, nil
}

// runOnce opens a fresh default-detector session for the module
// (original or patched), allocates zeroed buffers, and runs one detection
// launch.
func runOnce(m *ptx.Module, kernelName string, opt RepairOptions, buffers []int) (*core.Report, error) {
	sess, err := Open(m, Config{})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	args, err := sess.AllocArgs(buffers)
	if err != nil {
		return nil, err
	}
	launch := Launch1D(opt.Grid, opt.Block, args, opt.MaxInstrs, opt.WarpSize)
	launch.Deadline = opt.Deadline
	res, err := sess.Detect(kernelName, launch)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

// verdict applies the acceptance contract to one patched run.
func verdict(target raceKey, baseKeys map[raceKey]bool,
	baseDivs map[uint32]bool, rep *core.Report, err error) RepairVerdict {
	if err != nil {
		return RepairVerdict{
			LaunchError: err.Error(),
			Reason:      "patched kernel failed to launch cleanly",
		}
	}
	v := RepairVerdict{TargetGone: true}
	for _, r := range rep.Races {
		k := keyOf(r)
		if k == target {
			v.TargetGone = false
		}
		if !baseKeys[k] {
			v.NewRaces++
		}
	}
	for _, d := range rep.Divergences {
		if !baseDivs[d.PC] {
			v.NewDivergences++
		}
	}
	switch {
	case !v.TargetGone:
		v.Reason = "targeted race still detected after the patch"
	case v.NewRaces > 0:
		v.Reason = fmt.Sprintf("patch introduced %d new race(s)", v.NewRaces)
	case v.NewDivergences > 0:
		v.Reason = fmt.Sprintf("patch introduced %d new barrier divergence(s)", v.NewDivergences)
	default:
		v.Verified = true
		v.Reason = "targeted race gone, no new races, no new divergence"
	}
	return v
}

// candidateOf places a reported race in the kernel: the access sites at
// its two lines, each side in the role the report gave it. It fails when a
// line holds no memory access.
func candidateOf(a *staticanalysis.Analysis, r core.Race) (staticanalysis.Candidate, bool) {
	pa, pb := r.Prev, r.Cur
	ia, ib := siteAtLine(a, int(pa.PC)), siteAtLine(a, int(pb.PC))
	if ia < 0 || ib < 0 {
		return staticanalysis.Candidate{}, false
	}
	if ia > ib {
		ia, ib, pa, pb = ib, ia, pb, pa
	}
	return staticanalysis.Candidate{
		Kernel: a.CFG.Kernel.Name,
		A:      ia, B: ib,
		LineA: int(pa.PC), LineB: int(pb.PC),
		Space:  a.CFG.Instrs[ia].Space,
		WriteA: pa.Write, WriteB: pb.Write,
		AtomicA: pa.Atomic, AtomicB: pb.Atomic,
	}, true
}

// siteAtLine finds the memory-access instruction at a source line.
func siteAtLine(a *staticanalysis.Analysis, line int) int {
	for i, in := range a.CFG.Instrs {
		if in.Line == line && in.MemoryAccess() {
			return i
		}
	}
	return -1
}

// dedupeEdits drops exact-duplicate edits (two candidates can propose
// the same fence insertion).
func dedupeEdits(edits []ptx.Edit) []ptx.Edit {
	var out []ptx.Edit
	for _, e := range edits {
		dup := false
		for _, o := range out {
			if e.Kernel == o.Kernel && e.At == o.At && e.After == o.After &&
				e.Remove == o.Remove && len(e.Ins) == len(o.Ins) && sameIns(e.Ins, o.Ins) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e)
		}
	}
	return out
}

func sameIns(a, b []*ptx.Instr) bool {
	for i := range a {
		if ptx.FormatInstr(a[i]) != ptx.FormatInstr(b[i]) {
			return false
		}
	}
	return true
}
