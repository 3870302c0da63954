package core

import (
	"math/bits"

	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/shadow"
	"barracuda/internal/trace"
	"barracuda/internal/vc"
)

// forEachLaneCell visits every shadow cell of every active lane of a
// memory record as (region, index), with the region lock held — the
// per-cell iteration shared by the epoch detector's fallback path and the
// full-VC ablation: one shadow.Memory.VisitLanes walk per record. weight
// is shadow.Memory.Weight of the cell's region. A warp's thread ids are
// consecutive, so a visitor derives a lane's from TIDOf(warp, 0), once
// per record.
func (d *Detector) forEachLaneCell(sc *shadow.SpanCache, r *logging.Record, visit func(lane int, reg *shadow.Region, idx, weight int)) {
	blk := int32(-1)
	if r.Space == logging.SpaceShared {
		blk = int32(r.Block)
	}
	var buf [logging.WarpWidth]shadow.Lane
	d.mem.VisitLanes(sc, r.Space, blk, d.activeLanes(r, &buf), int(r.Size), visit)
}

// activeLanes resolves the active lanes of a memory record, below the
// simulated warp width, and their addresses into buf: the unlocked
// pre-pass of forEachLaneCell and ownedLanes. Addresses go through
// LaneAddr so records that crossed the compact wire (no address array)
// resolve identically.
func (d *Detector) activeLanes(r *logging.Record, buf *[logging.WarpWidth]shadow.Lane) []shadow.Lane {
	n := 0
	for lane := 0; lane < d.geo.WarpSize && lane < logging.WarpWidth; lane++ {
		if r.Mask&(1<<uint(lane)) != 0 {
			buf[n] = shadow.Lane{Index: lane, Addr: r.LaneAddr(lane)}
			n++
		}
	}
	return buf[:n]
}

// trySpan is the coalesced-span fast path: process an entire coalesced
// warp access as one span operation per region run — one region lock,
// one representative FastTrack check against the run's uniform-span
// summary, and one bulk metadata store — instead of per-cell loops. It
// reports whether the record was handled; false sends the caller down
// the exact per-cell path. The fast path NEVER reports a race itself:
// any rank whose check fails (a potential race, or state a summary
// cannot express) demotes the summary and replays the per-cell rules,
// which keeps race reports and digests byte-identical to the per-cell
// baseline.
func (d *Detector) trySpan(r *logging.Record, g *ptvc.Group, w *Worker) bool {
	if !d.spans || !r.Coalesced() || r.Size == 0 || r.Mask == 0 {
		return false
	}
	if r.Space != logging.SpaceGlobal && r.Space != logging.SpaceShared {
		return false
	}
	if !d.lanesOwnCells(r) {
		return false
	}
	ws := d.geo.WarpSize
	if ws > logging.WarpWidth {
		ws = logging.WarpWidth
	}
	if ws < 32 && r.Mask>>uint(ws) != 0 {
		// The per-cell path ignores lanes beyond the simulated warp
		// width; a span over the full mask would not.
		return false
	}
	blk := int32(-1)
	if r.Space == logging.SpaceShared {
		blk = int32(r.Block)
	}
	var sc *shadow.SpanCache
	if w.caching {
		sc = &w.span
	}
	n := bits.OnesCount32(r.Mask)
	return d.mem.SpanRuns(sc, r.Space, blk, r.Base, n*int(r.Size), int(r.Size),
		func(reg *shadow.Region, lo, hi, byteOff int) {
			d.spanRun(r, g, w, reg, lo, hi, byteOff)
		})
}

// lanesOwnCells reports whether the lanes of a coalesced record are
// guaranteed pairwise-disjoint cells at the finest granule: with a
// configured granularity above one byte, an unaligned base or lane size
// lets neighbouring lanes share a cell, and only the per-cell rules (and
// the same-value filter) handle that exactly.
func (d *Detector) lanesOwnCells(r *logging.Record) bool {
	gran := d.mem.Granularity()
	return gran == 1 || (r.Base%uint64(gran) == 0 && int(r.Size)%gran == 0)
}

// spanRun processes one region-contiguous part of a coalesced record;
// SpanRuns hands the region over locked and fitted to the record, with
// [lo, hi) at the region's own granule.
func (d *Detector) spanRun(r *logging.Record, g *ptvc.Group, w *Worker, reg *shadow.Region, lo, hi, byteOff int) {
	// Keep the ownership facts alive for traffic that bypassed the
	// ownership fast path (diverged groups, clock bounds not provably
	// below the barrier): every store below carries clock g.L under
	// warp r.Warp, which is exactly what trackOwner folds in.
	if d.owned {
		d.trackOwner(reg, r, g)
	}

	nRanks := (hi - lo) * reg.Gran() / int(r.Size)
	runMask := spanRunMask(r.Mask, byteOff/int(r.Size), nRanks)

	exact, overlap := reg.FindSpan(lo, hi)
	if exact != nil && d.spanCheck(r, g, exact, runMask) {
		d.spanUpdate(r, g, exact, runMask)
		return
	}
	if !overlap && !reg.Touched() {
		// Virgin cells: every FastTrack check against zero epochs passes
		// trivially — install the summary in O(1).
		s := shadow.SpanSum{Lo: lo, Hi: hi}
		d.spanUpdate(r, g, &s, runMask)
		reg.Install(s)
		return
	}
	// Demotion: materialize overlapping summaries into exact per-cell
	// epochs, replay the per-cell rules (which report any races exactly
	// as the baseline would), then re-summarize the uniform state a
	// write leaves behind.
	reg.DemoteOverlapping(d.mem, lo, hi)
	reg.SetTouched()
	d.spanPerCell(r, g, w, reg, lo, runMask)
	if r.Op != trace.OpRead {
		s := shadow.SpanSum{Lo: lo, Hi: hi}
		d.spanWriteLayer(&s, r, g, runMask)
		reg.Install(s)
	}
}

// spanRunMask extracts the active-lane bits of ranks [rankLo,
// rankLo+n) from a record mask.
func spanRunMask(mask uint32, rankLo, n int) uint32 {
	for ; rankLo > 0; rankLo-- {
		mask &= mask - 1
	}
	var out uint32
	for ; n > 0 && mask != 0; n-- {
		out |= mask & -mask
		mask &= mask - 1
	}
	return out
}

// spanCheck reports whether every epoch summarized for [Lo, Hi) is
// ordered before the record's accessing lanes, i.e. whether the span
// can be answered without any per-cell work. Size mismatches between
// the summary layers and the record fail conservatively (the rank→lane
// mapping would differ), as does anything not ordered.
func (d *Detector) spanCheck(r *logging.Record, g *ptvc.Group, s *shadow.SpanSum, runMask uint32) bool {
	// ATOMEXCL: atomic-over-atomic skips the write check (atomics do
	// not race with each other), exactly like applyAtomic.
	skipW := r.Op == trace.OpAtom && s.Atomic
	if s.W.Valid() && !skipW {
		if s.W.Size != r.Size {
			return false
		}
		if !d.spanLayerOrdered(g, r, &s.W, runMask) {
			return false
		}
	}
	if s.R.Valid() {
		if s.R.Size != r.Size {
			return false
		}
		if !d.spanLayerOrdered(g, r, &s.R, runMask) {
			return false
		}
	}
	return true
}

// spanLayerOrdered checks one summary layer's per-rank epochs against
// the record's per-rank thread ids: the k-th slice's epoch must happen-
// before the k-th accessing lane's current operation.
func (d *Detector) spanLayerOrdered(g *ptvc.Group, r *logging.Record, l *shadow.SpanLayer, runMask uint32) bool {
	if l.Clock == 0 {
		return true
	}
	if l.Warp == r.Warp && l.Mask == runMask {
		// The uniform resweep: every rank checks its own previous
		// epoch, so the whole span is one representative compare.
		return l.Clock <= g.L
	}
	lm, rm := l.Mask, runMask
	for lm != 0 && rm != 0 {
		tid := d.geo.TIDOf(int(r.Warp), bits.TrailingZeros32(rm))
		e := vc.Epoch{T: d.geo.TIDOf(int(l.Warp), bits.TrailingZeros32(lm)), C: l.Clock}
		if !ordered(g, tid, e) {
			return false
		}
		lm &= lm - 1
		rm &= rm - 1
	}
	return true
}

// spanUpdate applies a checked span to a summary — the bulk analogue of
// applyRead/applyWrite/applyAtomic on every covered cell at once.
func (d *Detector) spanUpdate(r *logging.Record, g *ptvc.Group, s *shadow.SpanSum, runMask uint32) {
	if r.Op == trace.OpRead {
		// READEXCL over the run: reads stay an epoch layer.
		s.R = shadow.SpanLayer{Warp: r.Warp, Mask: runMask, Clock: g.L, PC: r.PC, Size: r.Size}
		return
	}
	d.spanWriteLayer(s, r, g, runMask)
}

// spanWriteLayer installs the write layer of a write/atomic span and
// clears the read layer (the R' = ⊥e step of the write rules).
func (d *Detector) spanWriteLayer(s *shadow.SpanSum, r *logging.Record, g *ptvc.Group, runMask uint32) {
	s.W = shadow.SpanLayer{Warp: r.Warp, Mask: runMask, Clock: g.L, PC: r.PC, Size: r.Size}
	s.Atomic = r.Op == trace.OpAtom
	s.R = shadow.SpanLayer{}
}

// spanPerCell replays the exact per-cell rules for one region run: the
// same lanes, cells, visit order and callbacks as the per-cell walk,
// under the already-held region lock (which is all that guards a cell).
func (d *Detector) spanPerCell(r *logging.Record, g *ptvc.Group, w *Worker, reg *shadow.Region, lo int, runMask uint32) {
	cellsPerLane := int(r.Size) / reg.Gran()
	weight := d.mem.Weight(reg)
	idx := lo
	for rm := runMask; rm != 0; rm &= rm - 1 {
		lane := bits.TrailingZeros32(rm)
		tid := d.geo.TIDOf(int(r.Warp), lane)
		for k := 0; k < cellsPerLane; k++ {
			d.apply(reg, idx, g, tid, r, lane, weight, w)
			idx++
		}
	}
}
