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
//
// It is also the clockView of the memory rules (applyCell): a thread's
// clock is its own vector clock, and cur is the memory record being
// checked, which the same-instruction test reads.
type fullVCState struct {
	geo    ptvc.Geometry
	mu     sync.Mutex // protects clocks for cross-queue sync edges
	clocks []*vc.VC
	syncs  map[shadow.Key]*fullSync
	cur    *logging.Record
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

func (s *fullVCState) clock(tid vc.TID) vc.Clock { return s.clocks[tid].Get(tid) }

// sameInstr reports whether the epoch is the current clock of a thread
// active in the record: every record advances its threads' own clocks, so
// only this very instruction can have stored it.
func (s *fullVCState) sameInstr(e vc.Epoch, _ vc.TID) bool {
	return !e.IsZero() &&
		s.geo.WarpOf(e.T) == int(s.cur.Warp) &&
		s.cur.Mask&(1<<uint(s.geo.LaneOf(e.T))) != 0 &&
		e.C == s.clock(e.T)
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
		if r.Mask != d.laneMask(int(r.Warp)) {
			d.noteDivergence(r)
		}
	case trace.OpBarRel:
		wpb := s.geo.WarpsPerBlock()
		var tids []vc.TID
		for wi := 0; wi < wpb; wi++ {
			if r.Mask&(1<<uint(wi)) == 0 {
				continue
			}
			gw := int(r.Block)*wpb + wi
			tids = append(tids, s.laneTIDs(gw, d.laneMask(gw))...)
		}
		s.joinFork(tids)
	case trace.OpIf, trace.OpElse, trace.OpFi:
		s.joinFork(s.laneTIDs(int(r.Warp), r.Mask))
	}
}

// fullMemory checks a memory record with the epoch detector's rules
// (applyCell), against the per-thread clocks. It shares the run walk, and
// so the shadow, its word-granular regions, their weights and the byte
// cap, with the epoch detector.
func (d *Detector) fullMemory(r *logging.Record, w *Worker) {
	s := d.fullVC
	s.cur = r
	tid0 := d.geo.TIDOf(int(r.Warp), 0)
	var buf [logging.WarpWidth]shadow.Lane
	d.walk(w, r, d.activeLanes(r, &buf), func(run *shadow.Run) {
		run.Each(func(lane, idx int) {
			d.applyCell(run.Reg, idx, s, tid0+vc.TID(lane), r, lane, run.Weight, w)
		})
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
