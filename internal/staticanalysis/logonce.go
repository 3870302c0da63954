package staticanalysis

import (
	"slices"

	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

// LogOnceSites marks, by instruction index, the memory sites the
// producer-side filter may elide statically (instrument marks them as
// ptx.Instr.LogOnce). A site qualifies when every dynamic repeat within
// one synchronization interval is provably an exact duplicate of the
// first emission:
//
//   - it is a plain global-space read (shared races are digested exactly
//     and writes need per-lane value tracking, so neither is marked);
//   - it is unguarded, so the active mask at the site is determined by
//     the SIMT stack alone (the runtime still compares masks);
//   - its effective address has an affine symbolic form built purely from
//     launch-structural terms (parameters, tid/ctaid/ntid/nctaid,
//     symbols, constants) on every path — such an address is a fixed
//     function of (launch, block, thread), so every lane recomputes the
//     identical address on every visit;
//   - it sits inside a natural loop whose body contains no barrier,
//     fence, or atomic, so back-to-back repeats within one generation
//     are the expected dynamic behavior (profitability; soundness rests
//     on the runtime generation/epoch/mask/address checks).
//
// The result is a hint: eliding a marked site is sound only under the
// runtime checks the simulator applies (same generation, no intervening
// global writes, same mask, matching first-lane address). It is nil when
// no site qualifies. A nil aff is computed here, and only when some read
// sits in a quiet loop: most kernels have none, and then the affine
// analysis never runs.
func LogOnceSites(c *kernel.CFG, class []trace.OpKind, aff *Affine) []bool {
	if len(c.Blocks) == 0 {
		return nil
	}
	// A block is "quiet" when executing it cannot bump the warp's filter
	// generation: no barrier, no fence, no atomic.
	quiet := make([]bool, len(c.Blocks))
	for bi, b := range c.Blocks {
		q := true
		for i := b.Start; i < b.End; i++ {
			switch c.Instrs[i].Op {
			case ptx.OpBar, ptx.OpMembar, ptx.OpAtom, ptx.OpRed:
				q = false
			}
		}
		quiet[bi] = q
	}
	// Mark blocks inside at least one all-quiet natural loop. Back edge:
	// an edge u->h where h dominates u; the loop body is h plus every
	// block that reaches u without passing through h. body lists a loop's
	// blocks, and stamp marks them with the back edge's number, so nothing
	// is cleared between loops.
	inQuiet := make([]bool, len(c.Blocks))
	stamp := make([]int, len(c.Blocks))
	var body []int
	edge := 0
	for ui, u := range c.Blocks {
		for _, h := range u.Succs {
			if !c.Dominates(h, ui) {
				continue
			}
			edge++
			add := func(v int) {
				if stamp[v] != edge {
					stamp[v] = edge
					body = append(body, v)
				}
			}
			body = body[:0]
			add(h)
			add(ui)
			for j := 1; j < len(body); j++ { // h's predecessors stay out
				for _, p := range c.Blocks[body[j]].Preds {
					add(p)
				}
			}
			if !slices.ContainsFunc(body, func(v int) bool { return !quiet[v] }) {
				for _, v := range body {
					inQuiet[v] = true
				}
			}
		}
	}
	// The candidates: plain, unguarded global reads in quiet loops.
	var out []bool
	for i, kind := range class {
		in := c.Instrs[i]
		if kind != trace.OpRead || in.Space != ptx.SpaceGlobal || in.Guard != nil || !inQuiet[c.BlockOf[i]] {
			continue
		}
		if out == nil {
			out = make([]bool, len(c.Instrs))
		}
		out[i] = true
	}
	if out == nil {
		return nil
	}
	if aff == nil {
		aff = computeAffine(c)
	}
	found := false
	for i, cand := range out {
		out[i] = cand && aff.AddrKnown(i)
		found = found || out[i]
	}
	if !found {
		return nil
	}
	return out
}
