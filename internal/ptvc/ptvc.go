// Package ptvc implements BARRACUDA's lossless per-thread vector-clock
// (PTVC) compression (§4.3.1, Figure 7).
//
// A conventional race detector keeps one vector clock per thread — O(n²)
// space, crippling for GPU kernels with a million threads. BARRACUDA
// exploits the massive redundancy induced by lockstep warp execution:
// threads in a warp almost always have identical clock structure, so PTVCs
// are managed at warp granularity in one of four formats:
//
//	CONVERGED        all lanes in lockstep: {active mask, local clock,
//	                 block clock}
//	DIVERGED         non-nested control flow: adds a scalar warp clock for
//	                 the inactive lanes
//	NESTEDDIVERGED   nested control flow: the warp clock generalises to a
//	                 per-lane vector
//	SPARSEVC         arbitrary point-to-point synchronization: adds an
//	                 unordered map from threads/blocks to clocks
//
// A Group is the shared clock state of a set of lanes executing in
// lockstep; the race detector keeps a stack of Groups per warp, mirroring
// the GPU's reconvergence stack. The represented full vector clock of an
// active thread t is
//
//	C_t(t)  = L                 (the local clock)
//	C_t(u)  = L-1               for active lane-mates u ≠ t
//	C_t(v)  = W or Inact[lane]  for inactive lanes of the same warp
//	C_t(r)  = B                 for same-block threads outside the warp
//	C_t(s)  = Ext lookup        for everything else (0 by default)
//
// all joined with the sparse Ext overlay. The compression is lossless:
// every operation below is a clock relabeling that preserves the
// happens-before order of the formal rules in the paper's Figures 2–3
// (property-tested against a full-vector-clock reference in package core).
package ptvc

import (
	"fmt"

	"barracuda/internal/vc"
)

// Format identifies the storage format a Group is currently using.
type Format int

// The four PTVC formats of Figure 7.
const (
	Converged Format = iota
	Diverged
	NestedDiverged
	SparseVC
)

func (f Format) String() string {
	switch f {
	case Converged:
		return "CONVERGED"
	case Diverged:
		return "DIVERGED"
	case NestedDiverged:
		return "NESTEDDIVERGED"
	case SparseVC:
		return "SPARSEVC"
	}
	return "?"
}

// Geometry maps between global thread ids and the grid hierarchy.
type Geometry struct {
	WarpSize  int
	BlockSize int // threads per block
	Blocks    int
}

// WarpsPerBlock returns the number of warps in each block.
func (g Geometry) WarpsPerBlock() int {
	return (g.BlockSize + g.WarpSize - 1) / g.WarpSize
}

// Threads returns the total thread count.
func (g Geometry) Threads() int { return g.BlockSize * g.Blocks }

// BlockOf returns the block index of a thread.
func (g Geometry) BlockOf(t vc.TID) int { return int(t) / g.BlockSize }

// WarpOf returns the global warp index of a thread.
func (g Geometry) WarpOf(t vc.TID) int {
	b := g.BlockOf(t)
	lin := int(t) - b*g.BlockSize
	return b*g.WarpsPerBlock() + lin/g.WarpSize
}

// LaneOf returns the lane index of a thread within its warp.
func (g Geometry) LaneOf(t vc.TID) int {
	lin := int(t) % g.BlockSize
	return lin % g.WarpSize
}

// TIDOf returns the thread id of (global warp, lane).
func (g Geometry) TIDOf(warp, lane int) vc.TID {
	wpb := g.WarpsPerBlock()
	b := warp / wpb
	return vc.TID(b*g.BlockSize + (warp%wpb)*g.WarpSize + lane)
}

// BlockOfWarp returns the block index of a global warp.
func (g Geometry) BlockOfWarp(warp int) int { return warp / g.WarpsPerBlock() }

// ext is the sparse overlay acquired through point-to-point
// synchronization: per-thread entries plus per-foreign-block entries.
type ext struct {
	threads map[vc.TID]vc.Clock
	blocks  map[int]vc.Clock
}

func (e *ext) empty() bool {
	return e == nil || (len(e.threads) == 0 && len(e.blocks) == 0)
}

func (e *ext) clone() *ext {
	if e.empty() {
		return nil
	}
	c := &ext{}
	if len(e.threads) > 0 {
		c.threads = make(map[vc.TID]vc.Clock, len(e.threads))
		for t, cl := range e.threads {
			c.threads[t] = cl
		}
	}
	if len(e.blocks) > 0 {
		c.blocks = make(map[int]vc.Clock, len(e.blocks))
		for b, cl := range e.blocks {
			c.blocks[b] = cl
		}
	}
	return c
}

func (e *ext) thread(t vc.TID) vc.Clock {
	if e == nil {
		return 0
	}
	return e.threads[t]
}

func (e *ext) block(b int) vc.Clock {
	if e == nil {
		return 0
	}
	return e.blocks[b]
}

func (e *ext) setThread(t vc.TID, c vc.Clock) *ext {
	if e == nil {
		e = &ext{}
	}
	if e.threads == nil {
		e.threads = make(map[vc.TID]vc.Clock, 4)
	}
	if c > e.threads[t] {
		e.threads[t] = c
	}
	return e
}

func (e *ext) setBlock(b int, c vc.Clock) *ext {
	if e == nil {
		e = &ext{}
	}
	if e.blocks == nil {
		e.blocks = make(map[int]vc.Clock, 2)
	}
	if c > e.blocks[b] {
		e.blocks[b] = c
	}
	return e
}

// join merges o into e (component-wise max), returning the result.
func (e *ext) join(o *ext) *ext {
	if o.empty() {
		return e
	}
	for t, c := range o.threads {
		e = e.setThread(t, c)
	}
	for b, c := range o.blocks {
		e = e.setBlock(b, c)
	}
	return e
}

// Group is the shared clock state of a set of warp lanes in lockstep: one
// SIMT-stack path. The zero value is not useful; use NewGroup.
type Group struct {
	Geo     Geometry
	Warp    int    // global warp index
	BaseTID vc.TID // thread id of lane 0

	Mask     uint32 // lanes this group represents (currently active set)
	FullMask uint32 // lanes populated in the warp

	L vc.Clock // local clock of the active lanes
	B vc.Clock // block clock (same-block threads outside the warp)

	// Inactive-lane clocks: when inact is nil, every lane outside Mask
	// (but inside FullMask) has clock W (DIVERGED); otherwise per-lane
	// values (NESTEDDIVERGED).
	W     vc.Clock
	inact *[32]vc.Clock

	ext *ext
}

// NewGroup creates the initial CONVERGED group of a warp: each thread
// starts with inc_t(⊥), i.e. local clock 1 and everything else 0.
func NewGroup(geo Geometry, warp int, fullMask uint32) *Group {
	return &Group{
		Geo:      geo,
		Warp:     warp,
		BaseTID:  geo.TIDOf(warp, 0),
		Mask:     fullMask,
		FullMask: fullMask,
		L:        1,
	}
}

// Block returns the block index of the group's warp.
func (g *Group) Block() int { return g.Geo.BlockOfWarp(g.Warp) }

// Format reports the current storage format (Figure 7).
func (g *Group) Format() Format {
	switch {
	case !g.ext.empty():
		return SparseVC
	case g.inact != nil:
		return NestedDiverged
	case g.Mask != g.FullMask:
		return Diverged
	default:
		return Converged
	}
}

// Epoch returns E(t) = C_t(t)@t for the thread at the given lane.
func (g *Group) Epoch(lane int) vc.Epoch {
	return vc.Epoch{T: g.Geo.TIDOf(g.Warp, lane), C: g.L}
}

// inactClock returns the clock this group holds for an inactive lane.
func (g *Group) inactClock(lane int) vc.Clock {
	if g.inact != nil {
		return g.inact[lane]
	}
	return g.W
}

// ClockOf returns C_t(u) for any active thread t of this group and any
// thread u ≠ t. (All active lanes share the same view of other threads;
// only the self-entry differs, which Epoch covers.)
func (g *Group) ClockOf(u vc.TID) vc.Clock {
	var structural vc.Clock
	uw := g.Geo.WarpOf(u)
	switch {
	case uw == g.Warp:
		lane := g.Geo.LaneOf(u)
		if g.Mask&(1<<uint(lane)) != 0 {
			structural = g.L - 1 // active lane-mate
		} else {
			structural = g.inactClock(lane)
		}
	case g.Geo.BlockOf(u) == g.Block():
		structural = g.B
	default:
		structural = g.ext.block(g.Geo.BlockOf(u))
	}
	if t := g.ext.thread(u); t > structural {
		return t
	}
	return structural
}

// EpochOrdered reports whether epoch c@u ⪯ C_t for the active lanes of
// this group, i.e. c ≤ C_t(u). The self lane (if u is an active lane of
// this group) uses the local clock.
func (g *Group) EpochOrdered(e vc.Epoch) bool {
	if e.C == 0 {
		return true
	}
	if g.Geo.WarpOf(e.T) == g.Warp {
		lane := g.Geo.LaneOf(e.T)
		if g.Mask&(1<<uint(lane)) != 0 {
			// An active lane's own clock is L; its mates see L-1. An
			// epoch c@u with c == L is the lane's *current* epoch and
			// is ordered only for u itself — callers handle the
			// same-lane case; for mates it must compare against L-1.
			return e.C <= g.L-1
		}
	}
	return e.C <= g.ClockOf(e.T)
}

// EndInstr implements the ENDINSN join-and-fork for the group: because all
// active lanes share the structure, joining them and incrementing each
// lane's own entry is a single increment of the local clock. This O(1)
// step is the heart of the warp-granularity optimization.
func (g *Group) EndInstr() { g.L++ }

// Split implements the IF rule: the group's active set splits into the
// first- and second-executing paths. The receiver becomes the
// reconvergence continuation; the two returned groups carry clocks
// L+1 with the lanes of the sibling path frozen at L-1.
func (g *Group) Split(firstMask uint32) (first, second *Group) {
	secondMask := g.Mask &^ firstMask
	mk := func(mask uint32) *Group {
		child := &Group{
			Geo:      g.Geo,
			Warp:     g.Warp,
			BaseTID:  g.BaseTID,
			Mask:     mask,
			FullMask: g.FullMask,
			L:        g.L + 1,
			B:        g.B,
			ext:      g.ext.clone(),
		}
		// Lanes outside `mask`: sibling-path lanes froze at L-1; lanes
		// that were already inactive keep their previous clocks. Use a
		// scalar W when all inactive clocks agree, else the per-lane
		// vector (the DIVERGED → NESTEDDIVERGED transition).
		var vec [32]vc.Clock
		var first vc.Clock
		got, uniform := false, true
		for lane := 0; lane < 32; lane++ {
			bit := uint32(1) << uint(lane)
			if g.FullMask&bit == 0 || mask&bit != 0 {
				continue
			}
			var v vc.Clock
			if g.Mask&bit != 0 {
				v = g.L - 1 // sibling path, frozen at the split
			} else {
				v = g.inactClock(lane)
			}
			vec[lane] = v
			if !got {
				first, got = v, true
			} else if v != first {
				uniform = false
			}
		}
		if uniform {
			child.W = first
		} else {
			vv := vec
			child.inact = &vv
		}
		return child
	}
	return mk(firstMask), mk(secondMask)
}

// Merge implements the FI reconvergence: the receiver (the reconvergence
// continuation pushed aside by Split) absorbs both completed paths. All
// merged lanes jump to max(L_first, L_second)+1 — a clock relabeling with
// the same order structure as the formal join-and-fork.
func (g *Group) Merge(first, second *Group) {
	m := first.L
	if second.L > m {
		m = second.L
	}
	if g.L > m {
		m = g.L
	}
	g.L = m + 1
	if first.B > g.B {
		g.B = first.B
	}
	if second.B > g.B {
		g.B = second.B
	}
	g.ext = g.ext.join(first.ext).join(second.ext)
	g.compress()
}

// Barrier implements the block-wide BAR rule for this warp: every thread
// in the block synchronizes; m is the maximum local clock across the
// block's warps. All lanes jump to m+1 and the block clock becomes m.
func (g *Group) Barrier(m vc.Clock) {
	g.B = m
	g.L = m + 1
	// The whole block is converged at the barrier, so warp-internal
	// divergence history is subsumed by the block clock.
	g.W = m
	g.inact = nil
	g.compress()
}

// compress drops redundant representation pieces (the "check for
// opportunities to use a simpler PTVC format" step).
func (g *Group) compress() {
	// A per-lane vector whose populated entries are all equal collapses
	// to the scalar W.
	if g.inact != nil {
		var first vc.Clock
		got := false
		uniform := true
		for lane := 0; lane < 32; lane++ {
			bit := uint32(1) << uint(lane)
			if g.FullMask&bit == 0 || g.Mask&bit != 0 {
				continue
			}
			if !got {
				first = g.inact[lane]
				got = true
			} else if g.inact[lane] != first {
				uniform = false
				break
			}
		}
		if uniform {
			g.inact = nil
			g.W = first
		}
	}
	// Ext entries subsumed by the structure can be dropped.
	if g.ext != nil {
		for t, c := range g.ext.threads {
			var structural vc.Clock
			uw := g.Geo.WarpOf(t)
			switch {
			case uw == g.Warp:
				lane := g.Geo.LaneOf(t)
				if g.Mask&(1<<uint(lane)) != 0 {
					structural = g.L - 1
				} else {
					structural = g.inactClock(lane)
				}
			case g.Geo.BlockOf(t) == g.Block():
				structural = g.B
			default:
				structural = g.ext.block(g.Geo.BlockOf(t))
			}
			if c <= structural {
				delete(g.ext.threads, t)
			}
		}
		if g.ext.empty() {
			g.ext = nil
		}
	}
}

// Snapshot materialises the compressed vector clock C_t of the thread at
// the given active lane, for storing into a synchronization location
// (the RELBLOCK/RELGLOBAL rules). The snapshot stays compressed.
func (g *Group) Snapshot(lane int) *Snapshot {
	s := &Snapshot{
		Geo:     g.Geo,
		Warp:    g.Warp,
		BlockID: g.Block(),
		Lane:    lane,
		Mask:    g.Mask,
		Full:    g.FullMask,
		L:       g.L,
		B:       g.B,
		W:       g.W,
		ext:     g.ext.clone(),
	}
	if g.inact != nil {
		vec := *g.inact
		s.inact = &vec
	}
	return s
}

// Acquire joins a released snapshot into the group (the ACQBLOCK /
// ACQGLOBAL join C_t ⊔ S_x[...]), updating the sparse overlay.
func (g *Group) Acquire(s *Snapshot) {
	if s == nil {
		return
	}
	// The releasing lane's own entry.
	g.absorbThread(s.Geo.TIDOf(s.Warp, s.Lane), s.L)
	// Its warp-mates.
	for lane := 0; lane < 32; lane++ {
		bit := uint32(1) << uint(lane)
		if s.Full&bit == 0 || lane == s.Lane {
			continue
		}
		var c vc.Clock
		if s.Mask&bit != 0 {
			c = s.L - 1
		} else if s.inact != nil {
			c = s.inact[lane]
		} else {
			c = s.W
		}
		if c > 0 {
			g.absorbThread(s.Geo.TIDOf(s.Warp, lane), c)
		}
	}
	// Its block clock covers every same-block thread outside its warp.
	if s.B > 0 {
		g.absorbBlock(s.BlockID, s.B)
	}
	// Its own sparse overlay.
	if s.ext != nil {
		for t, c := range s.ext.threads {
			g.absorbThread(t, c)
		}
		for b, c := range s.ext.blocks {
			g.absorbBlock(b, c)
		}
	}
	g.compress()
}

// absorbThread raises C(u) to at least c.
func (g *Group) absorbThread(u vc.TID, c vc.Clock) {
	if c == 0 || c <= g.ClockOf(u) {
		return
	}
	g.ext = g.ext.setThread(u, c)
}

// absorbBlock raises the view of every thread of block b (outside this
// group's warp when b is the group's own block) to at least c.
func (g *Group) absorbBlock(b int, c vc.Clock) {
	if c == 0 {
		return
	}
	if b == g.Block() {
		if c > g.B {
			g.B = c
		}
		return
	}
	if c > g.ext.block(b) {
		g.ext = g.ext.setBlock(b, c)
	}
}

// MergeExt combines the sparse overlays of all groups (the warps of one
// block meeting at a barrier): after a barrier every thread has seen the
// point-to-point synchronization any of its block-mates had seen. Call
// before Barrier.
func MergeExt(groups []*Group) {
	var combined *ext
	for _, g := range groups {
		combined = combined.join(g.ext)
	}
	if combined.empty() {
		return
	}
	for _, g := range groups {
		g.ext = g.ext.join(combined) // join copies entries; no aliasing
	}
}

// String renders the group for debugging.
func (g *Group) String() string {
	return fmt.Sprintf("warp %d %s mask=%#x L=%d W=%d B=%d",
		g.Warp, g.Format(), g.Mask, g.L, g.W, g.B)
}

// Snapshot is a compressed vector clock captured at a release operation;
// it is the value type of the S_x per-block synchronization metadata.
type Snapshot struct {
	Geo     Geometry
	Warp    int
	BlockID int
	Lane    int
	Mask    uint32
	Full    uint32
	L       vc.Clock
	B       vc.Clock
	W       vc.Clock
	inact   *[32]vc.Clock
	ext     *ext
}

// ClockOf returns the snapshot's component for thread u (the materialized
// C_t(u) of the releasing thread t at release time).
func (s *Snapshot) ClockOf(u vc.TID) vc.Clock {
	var structural vc.Clock
	uw := s.Geo.WarpOf(u)
	switch {
	case uw == s.Warp:
		lane := s.Geo.LaneOf(u)
		switch {
		case lane == s.Lane:
			structural = s.L
		case s.Mask&(1<<uint(lane)) != 0:
			structural = s.L - 1
		case s.inact != nil:
			structural = s.inact[lane]
		default:
			structural = s.W
		}
	case s.Geo.BlockOf(u) == s.BlockID:
		structural = s.B
	default:
		if s.ext != nil {
			structural = s.ext.blocks[s.Geo.BlockOf(u)]
		}
	}
	if s.ext != nil {
		if t := s.ext.threads[u]; t > structural {
			return t
		}
	}
	return structural
}

// ToVC expands the snapshot to an explicit sparse vector clock (test and
// diagnostic use; O(threads) — never on the hot path).
func (s *Snapshot) ToVC() *vc.VC {
	out := vc.New()
	for t := 0; t < s.Geo.Threads(); t++ {
		if c := s.ClockOf(vc.TID(t)); c > 0 {
			out.Set(vc.TID(t), c)
		}
	}
	return out
}
