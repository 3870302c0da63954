// The exclusive-ownership fast tier (SmartTrack-style, below FastTrack).
//
// Soundness. The fast path skips EVERY per-epoch check of the baseline
// rules, so it may only run when each skipped check provably passes:
//
//  1. Convergence invariant: while a warp's active group is fully
//     converged (g.Mask == g.FullMask), every epoch previously stored
//     by that warp has clock < g.L. (Sibling divergence paths that
//     could hold overlapping clock ranges always carry disjoint,
//     strictly smaller masks; Merge and Barrier relabel the group
//     strictly above everything both paths stored.) Hence every
//     same-warp epoch e passes both the own-epoch check (e.C <= g.L)
//     and the active-lane-mate check (e.C <= g.L-1) — and, because
//     e.C < g.L, no prior epoch can trigger the same-instruction
//     same-value filter either.
//  2. Region ownership: the region's ownership word says which warps
//     can have stored epochs at all. Under Exclusive(warp == r.Warp),
//     invariant 1 covers every resident epoch. Under Exclusive(block),
//     cross-warp same-block epochs additionally need clock <= g.B (the
//     group's last barrier relabel), which the region's tracked clock
//     bounds (lastMax/otherMax) certify in O(1).
//  3. Intra-record isolation: lanes of the current record must touch
//     pairwise-disjoint cells, otherwise the record races (or
//     inflates read state) against itself and only the per-cell rules
//     handle that exactly.
//
// When all three hold, the baseline would report nothing and leave
// exactly the state this path stores raw — so reports stay
// byte-identical. Anything unprovable bails to the span/per-cell slow
// paths untouched (no stores happen before the final verdict).
//
// TOCTOU: the ownership word is probed lock-free in tryOwned's callers'
// hot loop, but every decision here re-reads it AFTER taking the region
// lock — another queue's worker may have inflated the region between
// probe and lock (global pages are shared across block-affine workers).
package core

import (
	"math/bits"

	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/shadow"
	"barracuda/internal/trace"
	"barracuda/internal/vc"
)

// tryOwned attempts the exclusive-ownership fast path for one memory
// record. It reports whether the record was fully handled; false means
// no state was changed (beyond ownership bookkeeping) and the caller
// must run the span/per-cell path.
func (d *Detector) tryOwned(r *logging.Record, g *ptvc.Group, w *Worker) bool {
	if !d.owned || r.Size == 0 || r.Mask == 0 || g.Mask != g.FullMask {
		return false
	}
	if r.Space != logging.SpaceGlobal && r.Space != logging.SpaceShared {
		return false
	}
	ws := d.geo.WarpSize
	if ws > logging.WarpWidth {
		ws = logging.WarpWidth
	}
	if ws < 32 && r.Mask>>uint(ws) != 0 {
		// The per-cell path ignores lanes beyond the simulated warp
		// width; this path would not.
		return false
	}
	blk := int32(-1)
	if r.Space == logging.SpaceShared {
		blk = int32(r.Block)
	}
	if r.Coalesced() {
		return d.ownedCoalesced(r, g, w.cache(), blk)
	}
	return d.ownedLanes(r, g, w.cache(), blk)
}

// ownedValidate re-reads the ownership word under the region lock and
// decides whether every resident epoch is provably ordered before the
// record's lanes (see the file comment). On success it also advances
// the ownership state (claim / retain / rotate / promote); on failure
// it leaves the region for the slow path — inflating only when
// exclusivity itself is disproven, not when a clock bound is merely
// unprovable.
func (d *Detector) ownedValidate(reg *shadow.Region, r *logging.Record, g *ptvc.Group) bool {
	st, id := reg.Owner()
	switch st {
	case shadow.OwnNone:
		// Virgin region: every check passes against zero epochs.
		d.mem.Claim(reg, r.Warp, g.L)
		return true
	case shadow.OwnWarp:
		if id == r.Warp {
			// Same warp + convergence: invariant 1 covers everything.
			reg.Retain(g.L)
			return true
		}
		if d.geo.BlockOfWarp(int(id)) != d.geo.BlockOfWarp(int(r.Warp)) {
			d.mem.Inflate(reg)
			return false
		}
		// Second warp of the same block: promote if the owner's epochs
		// are all below our last barrier.
		_, lastMax, _ := reg.OwnerClocks()
		if lastMax <= g.B {
			d.mem.Rotate(reg, shadow.OwnBlock, uint32(d.geo.BlockOfWarp(int(r.Warp))), r.Warp, g.L)
			return true
		}
		return false
	case shadow.OwnBlock:
		myBlock := uint32(d.geo.BlockOfWarp(int(r.Warp)))
		if id != myBlock {
			d.mem.Inflate(reg)
			return false
		}
		lw, lastMax, otherMax := reg.OwnerClocks()
		if lw == r.Warp {
			// Own epochs pass by invariant 1; the other warps' are
			// bounded by otherMax.
			if otherMax <= g.B {
				reg.Retain(g.L)
				return true
			}
			return false
		}
		if lastMax <= g.B && otherMax <= g.B {
			d.mem.Rotate(reg, shadow.OwnBlock, myBlock, r.Warp, g.L)
			return true
		}
		return false
	}
	return false // OwnShared is sticky; the slow path owns this region
}

// trackOwner maintains the ownership facts from the span slow path,
// under the region lock, so exclusivity survives traffic that merely
// bypassed the fast path (diverged groups, partial masks, summary
// demotions). The record's stores all carry clock g.L, which is what
// Retain/Rotate fold into the bounds.
func (d *Detector) trackOwner(reg *shadow.Region, r *logging.Record, g *ptvc.Group) {
	st, id := reg.Owner()
	switch st {
	case shadow.OwnShared:
	case shadow.OwnNone:
		d.mem.Claim(reg, r.Warp, g.L)
	case shadow.OwnWarp:
		switch {
		case id == r.Warp:
			reg.Retain(g.L)
		case d.geo.BlockOfWarp(int(id)) == d.geo.BlockOfWarp(int(r.Warp)):
			d.mem.Rotate(reg, shadow.OwnBlock, uint32(d.geo.BlockOfWarp(int(r.Warp))), r.Warp, g.L)
		default:
			d.mem.Inflate(reg)
		}
	case shadow.OwnBlock:
		myBlock := uint32(d.geo.BlockOfWarp(int(r.Warp)))
		if id != myBlock {
			d.mem.Inflate(reg)
		} else if lw, _, _ := reg.OwnerClocks(); lw == r.Warp {
			reg.Retain(g.L)
		} else {
			d.mem.Rotate(reg, shadow.OwnBlock, myBlock, r.Warp, g.L)
		}
	}
}

// ownedCoalesced handles a coalesced record over one region: the span
// store of spanRun with every check removed.
func (d *Detector) ownedCoalesced(r *logging.Record, g *ptvc.Group, sc *shadow.SpanCache, blk int32) bool {
	if !d.lanesOwnCells(r) {
		return false // isolation condition 3
	}
	size := int(r.Size)
	n := bits.OnesCount32(r.Mask) * size
	if r.Space == logging.SpaceGlobal && r.Base/shadow.PageBytes != (r.Base+uint64(n)-1)/shadow.PageBytes {
		return false // page-crossing runs: the span path's business
	}
	reg, off := d.mem.RegionFor(sc, r.Space, blk, r.Base)
	reg.Lock()
	defer reg.Unlock()
	d.mem.Fit(reg, shadow.WordShaped(r.Base, size), off+uint64(n))
	lo, hi := reg.CellRange(off, n)
	if hi > len(reg.Cells()) {
		return false // out of the slab; per-cell clamping semantics win
	}
	runMask := r.Mask
	if !d.ownedValidate(reg, r, g) {
		return false
	}
	if exact, overlap := reg.FindSpan(lo, hi); exact != nil {
		d.spanUpdate(r, g, exact, runMask)
	} else if !overlap && !reg.Touched() {
		s := shadow.SpanSum{Lo: lo, Hi: hi}
		d.spanUpdate(r, g, &s, runMask)
		reg.Install(s)
	} else {
		reg.DemoteOverlapping(d.mem, lo, hi)
		reg.SetTouched()
		d.ownedRankCells(r, g, reg, lo, runMask)
		if r.Op != trace.OpRead {
			s := shadow.SpanSum{Lo: lo, Hi: hi}
			d.spanWriteLayer(&s, r, g, runMask)
			reg.Install(s)
		}
	}
	d.mem.NoteOwnedFast()
	return true
}

// ownedLanes handles a non-coalesced record whose lanes all land in one
// region with strictly ascending, pairwise-disjoint cell ranges: one
// region lock and raw per-cell stores, the unchecked twin of the
// VisitLanes walk.
func (d *Detector) ownedLanes(r *logging.Record, g *ptvc.Group, sc *shadow.SpanCache, blk int32) bool {
	// Lock-free pass: one region, no lane crossing a page, and whether
	// every lane is whole words (a word-granular region can stay so).
	var reg *shadow.Region
	var buf [logging.WarpWidth]shadow.Lane
	var offs [logging.WarpWidth]uint64
	lanes := d.activeLanes(r, &buf)
	nl := len(lanes)
	whole := true
	var maxEnd uint64
	for i, ln := range lanes {
		addr := ln.Addr
		end := addr + uint64(r.Size) - 1
		if r.Space == logging.SpaceGlobal && addr/shadow.PageBytes != end/shadow.PageBytes {
			return false
		}
		rg, off := d.mem.RegionFor(sc, r.Space, blk, addr)
		if reg == nil {
			reg = rg
		} else if rg != reg {
			return false // lanes span regions
		}
		whole = whole && shadow.WordShaped(addr, int(r.Size))
		maxEnd = max(maxEnd, off+uint64(r.Size))
		offs[i] = off
	}
	if reg == nil {
		return false
	}
	reg.Lock()
	defer reg.Unlock()
	// Cell indices depend on the region's granule, so they are computed
	// under its lock, after the one refinement this record can cause.
	d.mem.Fit(reg, whole, maxEnd)
	var los, his [logging.WarpWidth]int
	prevHi := 0
	for i := 0; i < nl; i++ {
		lo, hi := reg.CellRange(offs[i], int(r.Size))
		if hi > len(reg.Cells()) {
			return false // out of the slab; per-cell clamping semantics win
		}
		if lo < prevHi {
			return false // overlapping or unsorted lanes (condition 3)
		}
		prevHi = hi
		los[i], his[i] = lo, hi
	}
	if !d.ownedValidate(reg, r, g) {
		return false
	}
	for i := 0; i < nl; i++ {
		reg.DemoteOverlapping(d.mem, los[i], his[i])
	}
	reg.SetTouched()
	tid0 := d.geo.TIDOf(int(r.Warp), 0)
	for i, ln := range lanes {
		for idx := los[i]; idx < his[i]; idx++ {
			rawStore(reg, idx, r.Op, tid0+vc.TID(ln.Index), g.L, r.PC)
		}
	}
	d.mem.NoteOwnedFast()
	return true
}

// ownedRankCells is the raw-store twin of spanPerCell: same cells, same
// order, no checks (they provably pass), under the same region lock.
func (d *Detector) ownedRankCells(r *logging.Record, g *ptvc.Group, reg *shadow.Region, lo int, runMask uint32) {
	cellsPerLane := int(r.Size) / reg.Gran()
	idx := lo
	for rm := runMask; rm != 0; rm &= rm - 1 {
		lane := bits.TrailingZeros32(rm)
		tid := d.geo.TIDOf(int(r.Warp), lane)
		for k := 0; k < cellsPerLane; k++ {
			rawStore(reg, idx, r.Op, tid, g.L, r.PC)
			idx++
		}
	}
}

// rawStore leaves exactly the state applyRead/applyWrite/applyAtomic
// leave when every happens-before check passes: reads keep an inflated
// read map inflated (READSHARED) or advance the read epoch (READEXCL);
// writes and atomics install the write epoch and clear reads.
func rawStore(reg *shadow.Region, idx int, op trace.OpKind, tid vc.TID, clock vc.Clock, pc uint32) {
	c := &reg.Cells()[idx]
	if op == trace.OpRead {
		if c.ReadShared {
			reg.Readers(idx)[tid] = clock
		} else {
			c.R = vc.Epoch{T: tid, C: clock}
		}
		c.ReadPC = pc
		return
	}
	c.W = vc.Epoch{T: tid, C: clock}
	c.Atomic = op == trace.OpAtom
	c.WritePC = pc
	reg.ClearReads(idx)
}

// maybeCompactShared drops a block's shared-memory shadow slab after a
// barrier release at which every populated warp of the block arrived
// fully converged. At such a barrier, every epoch stored in the slab
// has clock < its warp's pre-barrier L <= m (the convergence
// invariant), and Barrier(m) relabels every warp to B = m, L = m+1 — so
// each resident epoch is forever ordered before every future access by
// the block, and the slab is block-private, so no other accessor
// exists. Dropping it (a later access reallocates virgin cells) is
// therefore report-identical. A warp that did not arrive, or arrived
// diverged, can hold unrelabeled sibling clocks above m, making the
// drop unsafe — hence both checks.
func (d *Detector) maybeCompactShared(r *logging.Record, base, wpb int) {
	if wpb > 32 {
		return // the release mask cannot certify warps beyond bit 31
	}
	for wi := 0; wi < wpb; wi++ {
		w := d.warps[base+wi]
		if w == nil {
			continue // never ran: stored nothing
		}
		if r.Mask&(1<<uint(wi)) == 0 {
			return // populated but not arrived
		}
		if len(w.stack) != 1 || w.top().Mask != w.top().FullMask {
			return // not converged at the barrier
		}
	}
	d.mem.CompactSharedSlab(int32(r.Block))
}
