package core

import (
	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/shadow"
)

// walk runs one shadow.Memory.VisitLanes walk over lanes, the active lanes
// of a memory record, and hands visit each region run, its lock held: the
// per-cell iteration of the epoch detector and of the full-VC ablation. A
// warp's thread ids are consecutive, so a visitor derives a lane's from
// TIDOf(warp, 0), once per record.
func (d *Detector) walk(w *Worker, r *logging.Record, lanes []shadow.Lane, visit func(*shadow.Run)) {
	blk := int32(-1)
	if r.Space == logging.SpaceShared {
		blk = int32(r.Block)
	}
	d.mem.VisitLanes(&w.span, r.Space, blk, lanes, int(r.Size), visit)
}

// walkRecord is the epoch detector's path for every memory record: the
// checked rules on every run of the walk.
func (d *Detector) walkRecord(r *logging.Record, g *ptvc.Group, w *Worker) {
	var buf [logging.WarpWidth]shadow.Lane
	d.walk(w, r, d.activeLanes(r, &buf), func(run *shadow.Run) {
		d.applyRun(run, g, r, w)
	})
}

// activeLanes resolves the active lanes of a memory record, below the
// simulated warp width, and their addresses into buf: the unlocked
// pre-pass of every walk. Addresses go through LaneAddr so records that
// crossed the compact wire (no address array) resolve identically.
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
