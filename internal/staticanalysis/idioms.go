package staticanalysis

import (
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

// The shapes of §3.1's synchronization idioms, found once for both
// clients: the lint pass reports them (lint.go) and the repair templates
// patch them (repair.go). Each finder runs when a client asks for it;
// AnalyzeCFG computes none of them.

// divergence maps each block to the first tid-dependent conditional
// branch, by instruction index, whose influence region holds it, or to
// -1. The influence region is every block reachable from the branch's
// successors without passing through its reconvergence block (the
// immediate post-dominator, matching the simulator's SIMT stack): under a
// varying branch only part of the warp runs those blocks, so a barrier
// there may not be reached by every thread of the block. A guarded ret or
// exit is such a branch too; it reconverges only at the exit, so its
// region is everything its fall-through reaches.
func divergence(a *Analysis) []int {
	c := a.CFG
	by := make([]int, len(c.Blocks))
	seen := make([]int, len(c.Blocks)) // the last branch, plus one, whose walk reached the block
	for b := range by {
		by[b] = -1
	}
	var stack []int
	for i, in := range c.Instrs {
		if in.Op != ptx.OpBra && in.Op != ptx.OpRet && in.Op != ptx.OpExit {
			continue
		}
		if in.Guard == nil || !a.Affine.GuardTainted(i) {
			continue
		}
		bi, stop := c.BlockOf[i], -1
		if r := c.ReconvergencePC(c.Blocks[bi].End - 1); r < len(c.Instrs) {
			stop = c.BlockOf[r]
		}
		stack = append(stack[:0], bi)
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range c.Blocks[b].Succs {
				if s < len(c.Blocks) && s != stop && seen[s] != i+1 {
					seen[s] = i + 1
					if by[s] < 0 {
						by[s] = i
					}
					stack = append(stack, s)
				}
			}
		}
	}
	return by
}

// spinFeeds returns the definitions that feed a spin-wait, in the order
// found: each instruction inside a loop closed by a backward conditional
// branch (at or after the branch's target, before the branch) whose
// result reaches, through a setp, that branch's guard. A flag
// handshake's wait is a load among them, a lock's acquire an atom.cas.
func spinFeeds(a *Analysis) []int {
	c := a.CFG
	var out []int
	seen := map[int]bool{}
	var defs *FlowResult[DefSet]
	for i, in := range c.Instrs {
		if in.Op != ptx.OpBra || in.Guard == nil {
			continue
		}
		t, ok := c.LabelAt[in.Args[0].Sym]
		if !ok || t > i {
			continue
		}
		if defs == nil {
			defs = ReachingDefs(c)
		}
		for _, sp := range DefsAt(c, defs, i, in.Guard.Num) {
			if c.Instrs[sp].Op != ptx.OpSetp {
				continue
			}
			for _, arg := range c.Instrs[sp].Args {
				if arg.Kind != ptx.OpndReg {
					continue
				}
				for _, d := range DefsAt(c, defs, sp, arg.Num) {
					if d >= t && d < i && !seen[d] {
						seen[d] = true
						out = append(out, d)
					}
				}
			}
		}
	}
	return out
}

// lockSites finds the cas/exch lock idiom, each side in instruction
// order. The acquires are the atom.cas instructions that classify as
// plain atomics: no fence follows them, so the acquire/release inference
// cannot see the acquire. The releases are the unguarded plain stores of
// 0 through a register that bases an atom.cas or atom.exch: no fence
// precedes them, so the release is invisible too.
func lockSites(a *Analysis) (acquires, releases []int) {
	c := a.CFG
	lockBase := map[string]bool{}
	for i, in := range c.Instrs {
		if in.Op == ptx.OpAtom && (in.Atom == ptx.AtomCas || in.Atom == ptx.AtomExch) {
			if adr, ok := in.AddrOperand(); ok && adr.Reg != "" {
				lockBase[adr.Reg] = true
			}
			if in.Atom == ptx.AtomCas && a.Class[i] == trace.OpAtom {
				acquires = append(acquires, i)
			}
		}
	}
	for i, in := range c.Instrs {
		if in.Op != ptx.OpSt || a.Class[i] != trace.OpWrite || in.Guard != nil {
			continue
		}
		if adr, ok := in.AddrOperand(); ok && adr.Reg != "" && lockBase[adr.Reg] &&
			len(in.Args) > 1 && in.Args[1].Kind == ptx.OpndImm && in.Args[1].Imm == 0 {
			releases = append(releases, i)
		}
	}
	return acquires, releases
}
