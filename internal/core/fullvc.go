package core

import (
	"sync"

	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/shadow"
	"barracuda/internal/trace"
	"barracuda/internal/vc"
)

// fullVCState is the uncompressed-baseline analysis state: one explicit
// vector clock per thread, exactly the C of the formal rules. It consumes
// the same record stream as the compressed detector and reports through
// the same dedup, so it serves both as the §4.3.1 ablation (how much do
// compressed PTVCs buy?) and as an independent implementation for
// cross-checking.
//
// Note how the warp-level structure disappears: every endi/if/else/fi/bar
// becomes an O(active × clock-size) join-and-fork, and storage is O(n²)
// in the worst case — the scaling wall the paper's compression removes.
type fullVCState struct {
	geo    ptvc.Geometry
	mu     sync.Mutex // protects clocks for cross-queue sync edges
	clocks []*vc.VC
	syncs  map[shadow.Key]*fullSync
}

type fullSync struct {
	perBlock map[int]*vc.VC
	global   *vc.VC
}

func newFullVCState(geo ptvc.Geometry) *fullVCState {
	s := &fullVCState{
		geo:    geo,
		clocks: make([]*vc.VC, geo.Threads()),
		syncs:  make(map[shadow.Key]*fullSync),
	}
	for i := range s.clocks {
		s.clocks[i] = vc.New()
		s.clocks[i].Inc(vc.TID(i))
	}
	return s
}

// joinFork implements the shared join-and-fork of ENDINSN/IF/ELSE/FI/BAR:
// vc = ⊔ C_t over the set, then C_t = inc_t(vc).
func (s *fullVCState) joinFork(tids []vc.TID) {
	j := vc.New()
	for _, t := range tids {
		j.Join(s.clocks[t])
	}
	for _, t := range tids {
		c := j.Copy()
		c.Inc(t)
		s.clocks[t] = c
	}
}

// laneTIDs expands a record mask into thread ids.
func (s *fullVCState) laneTIDs(warp int, mask uint32) []vc.TID {
	out := make([]vc.TID, 0, 32)
	for lane := 0; lane < s.geo.WarpSize && lane < logging.WarpWidth; lane++ {
		if mask&(1<<uint(lane)) != 0 {
			out = append(out, s.geo.TIDOf(warp, lane))
		}
	}
	return out
}

func (s *fullVCState) ordered(tid vc.TID, e vc.Epoch) bool {
	return e.C <= s.clocks[tid].Get(e.T)
}

// handleFullVC processes one record in the uncompressed baseline mode.
// The ablation keeps its single state mutex by design — it exists to
// measure what the compressed, sharded representation buys — but stats
// still go to the caller's worker shard.
func (d *Detector) handleFullVC(r *logging.Record, w *Worker) {
	s := d.fullVC
	s.mu.Lock()
	defer s.mu.Unlock()
	switch r.Op {
	case trace.OpRead, trace.OpWrite, trace.OpAtom:
		d.fullMemory(r, w)
		s.joinFork(s.laneTIDs(int(r.Warp), r.Mask))
	case trace.OpAcqBlk, trace.OpRelBlk, trace.OpArBlk,
		trace.OpAcqGlb, trace.OpRelGlb, trace.OpArGlb:
		// Cross-queue sync ordering (see Detector.awaitSyncTurn). The
		// state mutex must be released while waiting or the earlier
		// sync record could never be processed.
		s.mu.Unlock()
		d.awaitSyncTurn(r)
		s.mu.Lock()
		d.fullSyncOp(r)
		d.finishSyncTurn(r)
		s.joinFork(s.laneTIDs(int(r.Warp), r.Mask))
	case trace.OpBar:
		d.fullBarMarker(r)
	case trace.OpBarRel:
		wpb := s.geo.WarpsPerBlock()
		var tids []vc.TID
		for wi := 0; wi < wpb && wi < 32; wi++ {
			if r.Mask&(1<<uint(wi)) == 0 {
				continue
			}
			gw := int(r.Block)*wpb + wi
			full := d.fullWarpMask(gw)
			tids = append(tids, s.laneTIDs(gw, full)...)
		}
		s.joinFork(tids)
	case trace.OpIf, trace.OpElse, trace.OpFi:
		s.joinFork(s.laneTIDs(int(r.Warp), r.Mask))
	}
}

// fullWarpMask returns the populated-lane mask of a global warp.
func (d *Detector) fullWarpMask(gwid int) uint32 {
	lanes := d.geo.BlockSize - (gwid%d.geo.WarpsPerBlock())*d.geo.WarpSize
	if lanes > d.geo.WarpSize {
		lanes = d.geo.WarpSize
	}
	if lanes >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(lanes) - 1
}

func (d *Detector) fullMemory(r *logging.Record, w *Worker) {
	s := d.fullVC
	// The full-VC ablation cannot use uniform-span summaries — after a
	// joinFork every lane's own clock component differs, so a warp access
	// is not expressible as a single (warp, mask, clock) layer. It shares
	// the per-lane cell walk, and so the shadow and its word-granular
	// regions, with the epoch detector's fallback path: a check on a word
	// cell counts weight times, exactly as in apply.
	tid0 := d.geo.TIDOf(int(r.Warp), 0)
	d.forEachLaneCell(nil, r, func(lane int, reg *shadow.Region, idx, weight int) {
		c, tid := &reg.Cells()[idx], tid0+vc.TID(lane)
		myClock := s.clocks[tid].Get(tid)
		switch r.Op {
		case trace.OpRead:
			if !s.ordered(tid, c.W) {
				d.report(tid, r, lane, false, c.W.T, c.WritePC, true, c.Atomic, false, weight)
			}
			if c.ReadShared {
				reg.Readers(idx)[tid] = myClock
			} else if s.ordered(tid, c.R) {
				c.R = vc.Epoch{T: tid, C: myClock}
			} else {
				d.mem.InflateReads(reg, idx)[tid] = myClock
			}
			c.ReadPC = r.PC
		case trace.OpWrite, trace.OpAtom:
			atomic := r.Op == trace.OpAtom
			checkW := !atomic || !c.Atomic
			if checkW && !s.ordered(tid, c.W) {
				sameInstr := !c.W.IsZero() &&
					d.geo.WarpOf(c.W.T) == int(r.Warp) &&
					r.Mask&(1<<uint(d.geo.LaneOf(c.W.T))) != 0 &&
					c.W.C == s.clocks[c.W.T].Get(c.W.T)
				filtered := false
				if sameInstr && !d.opts.NoSameValueFilter && !atomic && !c.Atomic {
					if r.Vals[d.geo.LaneOf(c.W.T)] == r.Vals[lane] {
						filtered = true
						w.sameValue.Add(uint64(weight))
					}
				}
				if !filtered {
					d.report(tid, r, lane, true, c.W.T, c.WritePC, true, c.Atomic, sameInstr, weight)
				}
			}
			if c.ReadShared {
				// TID order, matching checkReaders: keeps the
				// reported representative reader deterministic.
				readers := reg.Readers(idx)
				for _, u := range sortedReaders(readers) {
					if !s.ordered(tid, vc.Epoch{T: u, C: readers[u]}) {
						d.report(tid, r, lane, true, u, c.ReadPC, false, false, false, weight)
					}
				}
			} else if !s.ordered(tid, c.R) {
				d.report(tid, r, lane, true, c.R.T, c.ReadPC, false, false, false, weight)
			}
			c.W = vc.Epoch{T: tid, C: myClock}
			c.Atomic = atomic
			c.WritePC = r.PC
			reg.ClearReads(idx)
		}
	})
}

func (d *Detector) fullSyncOp(r *logging.Record) {
	s := d.fullVC
	block := d.geo.BlockOfWarp(int(r.Warp))
	blk := int32(-1)
	if r.Space == logging.SpaceShared {
		blk = int32(r.Block)
	}
	for lane := 0; lane < d.geo.WarpSize && lane < logging.WarpWidth; lane++ {
		if r.Mask&(1<<uint(lane)) == 0 {
			continue
		}
		tid := d.geo.TIDOf(int(r.Warp), lane)
		key := shadow.Key{Space: r.Space, Block: blk, Addr: r.LaneAddr(lane)}
		loc := s.syncs[key]
		if loc == nil {
			loc = &fullSync{perBlock: make(map[int]*vc.VC)}
			s.syncs[key] = loc
		}
		if r.Op.IsAcquire() {
			if r.Op.GlobalScope() {
				for _, v := range loc.perBlock {
					s.clocks[tid].Join(v)
				}
				if loc.global != nil && len(loc.perBlock) < d.geo.Blocks {
					s.clocks[tid].Join(loc.global)
				}
			} else {
				if v := loc.perBlock[block]; v != nil {
					s.clocks[tid].Join(v)
				} else if loc.global != nil {
					s.clocks[tid].Join(loc.global)
				}
			}
		}
		if r.Op.IsRelease() {
			snap := s.clocks[tid].Copy()
			if r.Op.GlobalScope() {
				loc.perBlock = make(map[int]*vc.VC)
				loc.global = snap
			} else {
				loc.perBlock[block] = snap
			}
		}
	}
}

func (d *Detector) fullBarMarker(r *logging.Record) {
	if r.Mask == d.fullWarpMask(int(r.Warp)) {
		return
	}
	key := [2]uint32{r.Warp, r.PC}
	d.repMu.Lock()
	if !d.divergeK[key] {
		d.divergeK[key] = true
		d.diverge = append(d.diverge, BarrierDivergence{
			Block: int(r.Block), Warp: int(r.Warp), PC: r.PC, Mask: r.Mask,
		})
	}
	d.repMu.Unlock()
}
