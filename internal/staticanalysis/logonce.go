package staticanalysis

import (
	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

// LogOnceSites returns the instruction indices of memory sites the
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
// global writes, same mask, matching first-lane address). A nil aff is
// computed here, and only when some read sits in a quiet loop: most
// kernels have none, and then the affine analysis never runs.
func LogOnceSites(c *kernel.CFG, class map[int]trace.OpKind, aff *Affine) map[int]bool {
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
	// block that reaches u without passing through h.
	inQuiet := make([]bool, len(c.Blocks))
	for ui, u := range c.Blocks {
		for _, h := range u.Succs {
			if !c.Dominates(h, ui) {
				continue
			}
			body := make(map[int]bool, 8)
			body[h] = true
			stack := []int{}
			if !body[ui] {
				body[ui] = true
				stack = append(stack, ui)
			}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range c.Blocks[v].Preds {
					if !body[p] {
						body[p] = true
						stack = append(stack, p)
					}
				}
			}
			allQuiet := true
			for v := range body {
				if !quiet[v] {
					allQuiet = false
					break
				}
			}
			if allQuiet {
				for v := range body {
					inQuiet[v] = true
				}
			}
		}
	}
	var out map[int]bool
	for i, kind := range class {
		if kind != trace.OpRead {
			continue
		}
		in := c.Instrs[i]
		if in.Space != ptx.SpaceGlobal || in.Guard != nil {
			continue
		}
		if !inQuiet[c.BlockOf[i]] {
			continue
		}
		if aff == nil {
			aff = computeAffine(c)
		}
		if !aff.AddrKnown(i) {
			continue
		}
		if out == nil {
			out = make(map[int]bool)
		}
		out[i] = true
	}
	return out
}
