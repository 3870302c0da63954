package staticanalysis

import (
	"fmt"
	"strings"

	"barracuda/internal/kernel"
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

// Patch synthesis: for one reported race, propose concrete PTX edits
// that could eliminate it. Three templates, in decreasing precision:
//
//   - atomicize: a ld/arith/st read-modify-write on one address becomes
//     a single red.{space}.{op} instruction;
//   - barrier: insert bar.sync at a divergence-safe point that
//     dominates the later access (only meaningful for shared memory,
//     or global memory within one block);
//   - fence: complete a flag handshake or lock protocol by inserting
//     the membar that acquire/release inference needs next to the
//     synchronizing access.
//
// Every proposal is *speculative*: the synthesizer aims for plausible,
// not provably sufficient. The verification loop (package detector)
// re-runs full dynamic detection on each patched module and is the only
// judge of whether a patch is accepted. A proposal that would deadlock,
// diverge at the new barrier, or leave the race in place is rejected
// there, which keeps this layer free to be aggressive.

// PatchKind labels a repair template.
type PatchKind string

// Repair templates.
const (
	PatchBarrier   PatchKind = "insert-barrier"
	PatchFence     PatchKind = "insert-fence"
	PatchAtomicize PatchKind = "atomicize"
)

// Candidate is one race a detection run reported, placed in the kernel:
// the pair of access sites and each side's role as the report gave it.
// A == B is the self-race of one instruction executed by many threads.
type Candidate struct {
	Kernel           string
	A, B             int // flat instruction indices, A <= B
	LineA, LineB     int
	Space            ptx.Space
	WriteA, WriteB   bool
	AtomicA, AtomicB bool
}

// Describe renders a one-line human description of the candidate.
func (cd Candidate) Describe() string {
	role := func(w, at bool) string {
		switch {
		case at:
			return "atomic"
		case w:
			return "write"
		default:
			return "read"
		}
	}
	if cd.A == cd.B {
		return fmt.Sprintf("%s %s at line %d vs itself across threads",
			cd.Space, role(cd.WriteA, cd.AtomicA), cd.LineA)
	}
	return fmt.Sprintf("%s %s at line %d vs %s at line %d",
		cd.Space, role(cd.WriteA, cd.AtomicA), cd.LineA, role(cd.WriteB, cd.AtomicB), cd.LineB)
}

// ProposedPatch is one synthesized repair for a candidate race.
type ProposedPatch struct {
	Kind   PatchKind
	Kernel string
	Note   string
	Edits  []ptx.Edit
}

// ProposePatches synthesizes up to max patches for the candidate,
// ordered most-precise first.
func ProposePatches(a *Analysis, cand Candidate, max int) []ProposedPatch {
	var out []ProposedPatch
	if p, ok := proposeAtomicize(a, cand); ok {
		out = append(out, p)
	}
	if p, ok := proposeBarrier(a, cand); ok {
		out = append(out, p)
	}
	out = append(out, proposeFences(a, cand)...)
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// --- barrier insertion ----------------------------------------------------

// proposeBarrier inserts a bar.sync immediately before the later access
// of the pair, hoisted out of any divergent influence region so the new
// barrier cannot itself cause barrier divergence. The hoist climbs the
// dominator tree; when the landing block ends in a branch, ret or exit
// the barrier goes in front of it.
func proposeBarrier(a *Analysis, cand Candidate) (ProposedPatch, bool) {
	if cand.A == cand.B {
		return ProposedPatch{}, false // a barrier cannot order a site against itself
	}
	if cand.Space != ptx.SpaceShared {
		// bar.sync is per-block: with more than one block in flight a
		// global-space pair still races across blocks, so a barrier can
		// never be certified for it. Shared memory is per-block by
		// construction, where the barrier argument is sound.
		return ProposedPatch{}, false
	}
	c := a.CFG
	div := divergence(a)
	pos := cand.B
	bi := c.BlockOf[pos]
	for div[bi] >= 0 {
		d := c.Dom[bi]
		if d < 0 || d == bi {
			return ProposedPatch{}, false // entry (or unreachable): nowhere safe
		}
		bi = d
		blk := c.Blocks[bi]
		pos = blk.End
		if blk.End > blk.Start {
			if op := c.Instrs[blk.End-1].Op; op == ptx.OpBra || op == ptx.OpRet || op == ptx.OpExit {
				pos = blk.End - 1
			}
		}
	}
	line := 0
	if pos < len(c.Instrs) {
		line = c.Instrs[pos].Line
	}
	return ProposedPatch{
		Kind:   PatchBarrier,
		Kernel: cand.Kernel,
		Note: fmt.Sprintf("insert bar.sync before line %d, separating the accesses at lines %d and %d",
			line, cand.LineA, cand.LineB),
		Edits: []ptx.Edit{{Kernel: cand.Kernel, At: pos, Ins: []*ptx.Instr{ptx.NewBarSync(line)}}},
	}, true
}

// --- fence insertion ------------------------------------------------------

// proposeFences synthesizes membar insertions that complete the two
// synchronization idioms the acquire/release inference recognizes:
//
//   - a flag handshake: a spin-wait load needs a trailing fence
//     (acquire), and the matching flag store needs a leading fence
//     (release);
//   - a cas/exch lock: the acquiring atomic needs a trailing fence and
//     the releasing store-of-zero a leading fence.
//
// Both sides of an idiom are patched together — half a handshake does
// not create the happens-before edge and would fail verification.
func proposeFences(a *Analysis, cand Candidate) []ProposedPatch {
	var out []ProposedPatch
	level := "cta"
	if cand.Space == ptx.SpaceGlobal {
		level = "gl"
	}
	if p, ok := proposeHandshakeFences(a, cand, level); ok {
		out = append(out, p)
	}
	if p, ok := proposeLockFences(a, cand, level); ok {
		out = append(out, p)
	}
	return out
}

// proposeHandshakeFences finds spin-wait loads (the memory loads among
// spinFeeds) and plain stores to the same flag location, then inserts the
// missing fences on both sides.
func proposeHandshakeFences(a *Analysis, cand Candidate, level string) (ProposedPatch, bool) {
	c := a.CFG
	f := fences{kernel: cand.Kernel, level: level}
	patched := map[int]bool{}
	for _, sp := range spinFeeds(a) {
		if in := c.Instrs[sp]; in.Op != ptx.OpLd || !in.MemoryAccess() {
			continue
		}
		flagSyms := addrSyms(a, sp)
		if len(flagSyms) == 0 {
			continue
		}
		// Acquire side: fence directly after the spin load, unless one is
		// already adjacent (the load would classify as an acquire).
		if !a.Class[sp].IsAcquire() && !patched[sp] {
			patched[sp] = true
			f.add(a, sp, true, "spin-wait load")
		}
		// Release side: fence before every plain store to the flag.
		for i, k := range a.Class {
			if k != trace.OpWrite || c.Instrs[i].Op != ptx.OpSt || patched[i] {
				continue
			}
			if !symsIntersect(addrSyms(a, i), flagSyms) {
				continue
			}
			patched[i] = true
			f.add(a, i, false, "flag store")
		}
	}
	return f.patch("flag handshake")
}

// proposeLockFences completes a cas/exch lock protocol (lockSites):
// membar after the acquiring atomic, membar before the store-of-zero
// release.
func proposeLockFences(a *Analysis, cand Candidate, level string) (ProposedPatch, bool) {
	f := fences{kernel: cand.Kernel, level: level}
	acquires, releases := lockSites(a)
	for _, i := range acquires {
		f.add(a, i, true, "lock acquire")
	}
	for _, i := range releases {
		f.add(a, i, false, "lock release")
	}
	return f.patch("lock protocol")
}

// fences collects one fence template's membar insertions at one level,
// each with its note.
type fences struct {
	kernel, level string
	edits         []ptx.Edit
	notes         []string
}

// add inserts a membar before instruction i, or after it, noting it as
// fencing what.
func (f *fences) add(a *Analysis, i int, after bool, what string) {
	line, where := a.CFG.Instrs[i].Line, "before"
	if after {
		where = "after"
	}
	f.edits = append(f.edits, ptx.Edit{Kernel: f.kernel, At: i, After: after, Ins: []*ptx.Instr{ptx.NewMembar(f.level, line)}})
	f.notes = append(f.notes, fmt.Sprintf("membar.%s %s the %s at line %d", f.level, where, what, line))
}

// patch is the fence patch that completes idiom, false when no fence was
// added.
func (f *fences) patch(idiom string) (ProposedPatch, bool) {
	if len(f.edits) == 0 {
		return ProposedPatch{}, false
	}
	return ProposedPatch{
		Kind:   PatchFence,
		Kernel: f.kernel,
		Note:   "complete the " + idiom + ": " + strings.Join(f.notes, "; "),
		Edits:  f.edits,
	}, true
}

// addrSyms returns the param/symbol names anchoring site i's address,
// nil when the address is not affine-decomposable.
func addrSyms(a *Analysis, i int) []string {
	s, ok := siteDecomp(a, i)
	if !ok {
		return nil
	}
	return s.syms()
}

func symsIntersect(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// --- atomicize ------------------------------------------------------------

var redOps = map[ptx.Op]ptx.AtomOp{
	ptx.OpAdd: ptx.AtomAdd,
	ptx.OpMin: ptx.AtomMin,
	ptx.OpMax: ptx.AtomMax,
	ptx.OpAnd: ptx.AtomAnd,
	ptx.OpOr:  ptx.AtomOr,
	ptx.OpXor: ptx.AtomXor,
}

// proposeAtomicize matches the exact lost-update shape
//
//	ld.space.T  %v, [addr]
//	op.T        %w, %v, X      (or op.T %w, X, %v for commutative ops)
//	st.space.T  [addr], %w
//
// as three consecutive unguarded instructions in one block whose
// intermediate registers are used nowhere else, and replaces the triple
// with `red.space.op.T [addr], X`. sub with an immediate becomes
// red.add of the negated immediate.
func proposeAtomicize(a *Analysis, cand Candidate) (ProposedPatch, bool) {
	c := a.CFG
	for _, idx := range []int{cand.B, cand.A} {
		in := c.Instrs[idx]
		if in.Op != ptx.OpSt {
			continue
		}
		if p, ok := atomicizeAt(a, cand, idx); ok {
			return p, ok
		}
	}
	return ProposedPatch{}, false
}

func atomicizeAt(a *Analysis, cand Candidate, st int) (ProposedPatch, bool) {
	c := a.CFG
	if st < 2 {
		return ProposedPatch{}, false
	}
	ld, op := st-2, st-1
	if c.BlockOf[ld] != c.BlockOf[st] {
		return ProposedPatch{}, false
	}
	ldIn, opIn, stIn := c.Instrs[ld], c.Instrs[op], c.Instrs[st]
	if ldIn.Op != ptx.OpLd || ldIn.Guard != nil || opIn.Guard != nil || stIn.Guard != nil {
		return ProposedPatch{}, false
	}
	if ldIn.Vec > 1 || stIn.Vec > 1 || ldIn.Space != stIn.Space {
		return ProposedPatch{}, false
	}
	if ldIn.Type.Float() || ldIn.Type.Size() != 4 && ldIn.Type.Size() != 8 {
		return ProposedPatch{}, false
	}
	la, oka := ldIn.AddrOperand()
	sa, oks := stIn.AddrOperand()
	if !oka || !oks || la != sa {
		return ProposedPatch{}, false
	}
	atom, known := redOps[opIn.Op]
	isSub := opIn.Op == ptx.OpSub
	if !known && !isSub {
		return ProposedPatch{}, false
	}
	if !ldIn.HasDst || !opIn.HasDst || len(opIn.Args) != 2 || len(stIn.Args) != 2 {
		return ProposedPatch{}, false
	}
	loaded, result := ldIn.Dst.Reg, opIn.Dst.Reg
	if stIn.Args[1].Kind != ptx.OpndReg || stIn.Args[1].Reg != result {
		return ProposedPatch{}, false
	}
	// Identify the non-loaded operand X of the arithmetic op.
	var x ptx.Operand
	switch {
	case opIn.Args[0].Kind == ptx.OpndReg && opIn.Args[0].Reg == loaded:
		x = opIn.Args[1]
	case !isSub && opIn.Args[1].Kind == ptx.OpndReg && opIn.Args[1].Reg == loaded:
		x = opIn.Args[0] // commutative ops only
	default:
		return ProposedPatch{}, false
	}
	if isSub {
		if x.Kind != ptx.OpndImm {
			return ProposedPatch{}, false
		}
		x = ptx.ImmOp(-x.Imm)
		atom = ptx.AtomAdd
	}
	// min/max need a signedness-carrying type; b32/b64 only support
	// bitwise and exchange-style ops in red.
	switch atom {
	case ptx.AtomMin, ptx.AtomMax:
		if ldIn.Type != ptx.U32 && ldIn.Type != ptx.S32 && ldIn.Type != ptx.U64 && ldIn.Type != ptx.S64 {
			return ProposedPatch{}, false
		}
	}
	// The intermediate registers must be dead outside the triple.
	if regUsedOutside(c, loaded, ld, st) || regUsedOutside(c, result, ld, st) {
		return ProposedPatch{}, false
	}
	red := &ptx.Instr{
		Op:    ptx.OpRed,
		Space: stIn.Space,
		Atom:  atom,
		Type:  stIn.Type,
		Args:  []ptx.Operand{sa, x},
		Line:  stIn.Line,
		Col:   stIn.Col,
	}
	return ProposedPatch{
		Kind:   PatchAtomicize,
		Kernel: cand.Kernel,
		Note: fmt.Sprintf("replace the ld/%s/st at lines %d-%d with %s",
			opIn.Op, ldIn.Line, stIn.Line, ptx.FormatInstr(red)),
		Edits: []ptx.Edit{{Kernel: cand.Kernel, At: ld, Remove: 3, Ins: []*ptx.Instr{red}}},
	}, true
}

// regUsedOutside reports whether reg is read, written, or used as a
// guard by any instruction outside the inclusive range [lo, hi].
func regUsedOutside(c *kernel.CFG, reg string, lo, hi int) bool {
	for i, in := range c.Instrs {
		if i >= lo && i <= hi {
			continue
		}
		if in.Guard != nil && in.Guard.Reg == reg {
			return true
		}
		if in.HasDst && in.Dst.Kind == ptx.OpndReg && in.Dst.Reg == reg {
			return true
		}
		for _, arg := range in.Args {
			if arg.Kind == ptx.OpndReg && arg.Reg == reg {
				return true
			}
			if arg.Kind == ptx.OpndMem && arg.Reg == reg {
				return true
			}
		}
	}
	return false
}
