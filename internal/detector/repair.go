// Verified repair synthesis: take the static race candidates and patch
// proposals from package staticanalysis, apply each proposal to a clone
// of the module, and re-run full dynamic detection on the patched
// module. A patch is accepted only when the targeted race is gone, no
// new races appeared, no new barrier divergence appeared, and the
// launch still completes within its step budget. The dynamic detector —
// not the synthesizer — is the judge, so the static layer is free to
// propose aggressively and unrepairable kernels are declined honestly.
package detector

import (
	"fmt"
	"sort"

	"barracuda/internal/core"
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
	// WarpSize optionally narrows the warp (0 = architecture default).
	WarpSize int
	// MaxCandidates bounds how many candidates are evaluated, dynamic
	// ones first (default 8).
	MaxCandidates int
	// MaxPatchesPerCandidate bounds proposals tried per candidate
	// (default 3).
	MaxPatchesPerCandidate int
}

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
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 8
	}
	if o.MaxPatchesPerCandidate <= 0 {
		o.MaxPatchesPerCandidate = 3
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

// RepairCandidate is one evaluated race candidate.
type RepairCandidate struct {
	Description string        `json:"description"`
	LineA       int           `json:"line_a"`
	LineB       int           `json:"line_b"`
	Space       string        `json:"space"`
	Score       int           `json:"score"`
	Dynamic     bool          `json:"dynamic"` // confirmed by the baseline detection run
	Patches     []RepairPatch `json:"patches"`
	Repaired    bool          `json:"repaired"` // some patch was verified
}

// RepairReport is the full outcome of a repair run on one kernel.
type RepairReport struct {
	Kernel              string            `json:"kernel"`
	BaselineRaces       int               `json:"baseline_races"`
	BaselineDivergences int               `json:"baseline_divergences"`
	StaticCandidates    int               `json:"static_candidates"`
	Candidates          []RepairCandidate `json:"candidates"`
	Verified            int               `json:"verified"` // candidates with an accepted patch
	Unrepaired          int               `json:"unrepaired"`
	// PatchedPTX is the module with every accepted patch applied, empty
	// when nothing was verified. FinalRaces re-verifies the composition;
	// when no patch was accepted it is the baseline count (unchanged module).
	PatchedPTX string `json:"patched_ptx,omitempty"`
	FinalRaces int    `json:"final_races"`
	// PatchRuns counts dynamic detection launches (baseline + patches +
	// composition); the repair benchmarks derive evaluated/sec from it.
	PatchRuns int `json:"patch_runs"`
}

// raceKey identifies a static race independent of address and thread
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

// Repair runs the full candidate → patch → verify loop on one kernel of
// the module. The module itself is never modified.
func Repair(m *ptx.Module, kernelName string, cfg Config, opt RepairOptions) (*RepairReport, error) {
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
	base, err := runOnce(m, kernelName, cfg, opt, buffers)
	rr.PatchRuns++
	if err != nil {
		return nil, fmt.Errorf("detector: baseline run: %w", err)
	}
	baseKeys := raceKeys(base)
	baseDivs := divergencePCs(base)
	rr.BaselineRaces = len(base.Races)
	rr.BaselineDivergences = len(base.Divergences)

	// Static candidates, then feed the dynamically observed races back:
	// a candidate matching a reported race is boosted to the front, and
	// races with no static candidate are synthesized into one.
	c, err := kernel.Build(k)
	if err != nil {
		return nil, err
	}
	analysis := staticanalysis.Analyze(c)
	cands := staticanalysis.RaceCandidates(analysis)
	rr.StaticCandidates = len(cands)
	cands = mergeDynamic(analysis, cands, base.Races)

	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Dynamic != cands[j].Dynamic {
			return cands[i].Dynamic
		}
		return cands[i].Score > cands[j].Score
	})
	if len(cands) > opt.MaxCandidates {
		cands = cands[:opt.MaxCandidates]
	}

	origText := ptx.Print(m)
	var acceptedEdits []ptx.Edit
	for _, cand := range cands {
		rc := RepairCandidate{
			Description: cand.Describe(),
			LineA:       cand.LineA,
			LineB:       cand.LineB,
			Space:       cand.SpaceStr,
			Score:       cand.Score,
			Dynamic:     cand.Dynamic,
		}
		target := candidateKeys(cand)
		for _, prop := range staticanalysis.ProposePatches(analysis, cand, opt.MaxPatchesPerCandidate) {
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
			rep, err := runOnce(patched, kernelName, cfg, opt, buffers)
			rr.PatchRuns++
			rp.Verdict = verdict(cand, target, baseKeys, baseDivs, rep, err)
			rc.Patches = append(rc.Patches, rp)
			if rp.Verdict.Verified {
				rc.Repaired = true
				acceptedEdits = append(acceptedEdits, prop.Edits...)
				break
			}
		}
		if rc.Repaired {
			rr.Verified++
		} else if rc.Dynamic {
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
			rep, err := runOnce(composed, kernelName, cfg, opt, buffers)
			rr.PatchRuns++
			if err == nil {
				rr.PatchedPTX = ptx.Print(composed)
				rr.FinalRaces = len(rep.Races)
			}
		}
	}
	return rr, nil
}

// runOnce opens a fresh session for the module (original or patched),
// allocates zeroed buffers, and runs one detection launch.
func runOnce(m *ptx.Module, kernelName string, cfg Config, opt RepairOptions, buffers []int) (*core.Report, error) {
	sess, err := Open(m, cfg)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	args, err := sess.AllocArgs(buffers)
	if err != nil {
		return nil, err
	}
	res, err := sess.Detect(kernelName, Launch1D(opt.Grid, opt.Block, args, opt.MaxInstrs, opt.WarpSize))
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

// candidateKeys enumerates the race keys a candidate explains: both
// role assignments of its line pair, in its space. Atomic sides match
// either write polarity (an atomic access reports Write=true in some
// detectors and carries the Atomic flag in ours), so atomic candidates
// expand to all polarities on that side.
func candidateKeys(cd staticanalysis.Candidate) map[raceKey]bool {
	space := logging.SpaceGlobal
	if cd.SpaceStr == "shared" {
		space = logging.SpaceShared
	}
	la, lb := uint32(cd.LineA), uint32(cd.LineB)
	wa := polarities(cd.WriteA, cd.AtomicA)
	wb := polarities(cd.WriteB, cd.AtomicB)
	out := map[raceKey]bool{}
	for _, a := range wa {
		for _, b := range wb {
			out[normKey(la, a, lb, b, space)] = true
		}
	}
	return out
}

func polarities(write, atomic bool) []bool {
	if atomic {
		return []bool{true, false}
	}
	return []bool{write}
}

func normKey(la uint32, wa bool, lb uint32, wb bool, space logging.SpaceID) raceKey {
	if la > lb || (la == lb && wa && !wb) {
		la, lb, wa, wb = lb, la, wb, wa
	}
	return raceKey{lineLo: la, lineHi: lb, wLo: wa, wHi: wb, space: space}
}

// verdict applies the acceptance contract to one patched run.
func verdict(cand staticanalysis.Candidate, target, baseKeys map[raceKey]bool,
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
		if target[k] {
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
	case !cand.Dynamic:
		v.Reason = "candidate race was not observed dynamically; patch is speculative and not certified"
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

// mergeDynamic marks candidates confirmed by the baseline run and
// synthesizes candidates for reported races no static pair explains.
func mergeDynamic(a *staticanalysis.Analysis, cands []staticanalysis.Candidate, races []core.Race) []staticanalysis.Candidate {
	covered := map[raceKey]bool{}
	for i := range cands {
		for k := range candidateKeys(cands[i]) {
			covered[k] = true
		}
	}
	for _, r := range races {
		k := keyOf(r)
		matched := false
		for i := range cands {
			if candidateKeys(cands[i])[k] {
				if !cands[i].Dynamic {
					cands[i].Dynamic = true
					cands[i].Score += 1000
					cands[i].Reason = "dynamically confirmed: " + cands[i].Reason
				}
				matched = true
			}
		}
		if matched || covered[k] {
			continue
		}
		covered[k] = true
		if cd, ok := synthesizeCandidate(a, r); ok {
			cands = append(cands, cd)
		}
	}
	return cands
}

// synthesizeCandidate builds a candidate from a dynamic race whose line
// pair the static analysis did not propose (e.g. both sites behind
// unknown addresses it declined to pair).
func synthesizeCandidate(a *staticanalysis.Analysis, r core.Race) (staticanalysis.Candidate, bool) {
	ia := siteAtLine(a, int(r.Prev.PC))
	ib := siteAtLine(a, int(r.Cur.PC))
	if ia < 0 || ib < 0 {
		return staticanalysis.Candidate{}, false
	}
	if ia > ib {
		ia, ib = ib, ia
	}
	in := a.CFG.Instrs[ia]
	cd := staticanalysis.Candidate{
		Kernel: a.CFG.Kernel.Name,
		A:      ia, B: ib,
		LineA: a.CFG.Instrs[ia].Line, LineB: a.CFG.Instrs[ib].Line,
		Space: in.Space, SpaceStr: in.Space.String(),
		WriteA: a.Class[ia].Writes(), WriteB: a.Class[ib].Writes(),
		Score: 1000, Dynamic: true,
		Reason: "reported by the dynamic detector",
	}
	return cd, true
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
