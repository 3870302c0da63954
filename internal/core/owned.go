// The exclusive-ownership tier (SmartTrack-style, below FastTrack): a
// verdict per region run, taken under the region lock the walk already
// holds, that every check of the rules on the run passes.
//
// Soundness. A run that takes the verdict skips EVERY per-epoch check
// (applyRun's raw mode), so it may only take it when each skipped check
// provably passes:
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
//  2. Region ownership: the region's owner says which warps can have
//     stored epochs at all. Under Exclusive(warp == r.Warp), invariant 1
//     covers every resident epoch. Under Exclusive(block), cross-warp
//     same-block epochs additionally need clock <= g.B (the group's last
//     barrier relabel), which the region's tracked clock bounds
//     (lastMax/otherMax) certify in O(1).
//  3. Intra-record isolation: lanes of the current record must touch
//     pairwise-disjoint cells, otherwise the record races (or inflates
//     read state) against itself and only the checked rules handle that
//     exactly. A coalesced record's lanes are contiguous, so trySpan's
//     lanesOwnCells is enough; any other record's lanes must pass a
//     lock-free check of their addresses (ownedEligible), and no lane
//     may clamp to a shared slab's last cell (ownedWalkRun).
//
// When all three hold, the checked rules would report nothing and leave
// exactly the state the raw mode stores — so reports stay byte-identical.
// A run that does not take the verdict runs the checked rules, and no
// store happens before the verdict. The owner is read and changed only
// under the region lock, so the verdict cannot be overtaken by another
// queue's worker between decision and store.
package core

import (
	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/shadow"
)

// ownedSpanRun is the verdict for one region run of a coalesced record
// (spanRun). A run that does not take it still keeps the ownership facts
// alive (trackOwner): every store spanRun makes carries clock g.L under
// warp r.Warp, so exclusivity survives traffic the verdict declined
// (diverged groups, clock bounds not provably below the barrier).
func (d *Detector) ownedSpanRun(reg *shadow.Region, r *logging.Record, g *ptvc.Group) bool {
	if g.Mask == g.FullMask && d.ownedValidate(reg, r, g) {
		return true
	}
	d.trackOwner(reg, r, g)
	return false
}

// ownedWalkRun is the verdict for one run of the VisitLanes walk
// (walkRecord). eligible is the record's own part of it, decided once
// before the walk (ownedEligible); the run's own is that no lane reaches
// past the region's last cell, where a shared slab clamps out-of-slab
// bytes together. A run that does not take the verdict goes to
// OwnShared: the checked rules store epochs ownership does not track.
func (d *Detector) ownedWalkRun(run *shadow.Run, r *logging.Record, g *ptvc.Group, eligible bool) bool {
	for _, lc := range run.Lanes {
		eligible = eligible && lc.Hi <= run.Last+1
	}
	if eligible && d.ownedValidate(run.Reg, r, g) {
		return true
	}
	d.mem.Inflate(run.Reg)
	return false
}

// ownedEligible is the lock-free, per-record part of the walk's verdict:
// the tier is on, the group converged (condition 1), the space one the
// tier tracks, and the lanes isolated (condition 3): their size-byte
// ranges strictly ascending and pairwise disjoint, none wrapping past
// 2^64, and — with a configured granularity above one byte — aligned to
// it. Then no two lanes share a cell at any granule a region takes: a
// word-granular region holds only whole aligned words, and a refined one
// cells of the granularity.
func (d *Detector) ownedEligible(r *logging.Record, g *ptvc.Group, lanes []shadow.Lane) bool {
	if !d.spans || g.Mask != g.FullMask || r.Space != logging.SpaceGlobal && r.Space != logging.SpaceShared {
		return false
	}
	size, gran := uint64(r.Size), uint64(d.mem.Granularity())
	if size == 0 || size%gran != 0 {
		return false
	}
	var next uint64
	for _, ln := range lanes {
		end := ln.Addr + size
		if ln.Addr < next || end < ln.Addr || ln.Addr%gran != 0 {
			return false
		}
		next = end
	}
	return true
}

// ownedValidate reads the owner under the region lock and decides whether
// every resident epoch is provably ordered before the record's lanes
// (condition 2 of the file comment). On success it also advances
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
