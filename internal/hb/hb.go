// Package hb is a reference happens-before checker that materialises the
// synchronization-order partial order of §3.2 directly: it expands the
// record stream into thread-level trace operations, builds the
// synchronization-order DAG (program order, endi/bar/if/else/fi
// barrier-style edges, scoped release→acquire edges), computes its
// transitive closure, and reports races straight from the definition —
// two accesses to the same location, at least one write, not both
// atomics, unordered both ways.
//
// It is deliberately simple and quadratic: its only job is to provide an
// independent ground truth for the BARRACUDA detector (the empirical
// Theorem 1 check), so it shares no code with the vector-clock machinery.
package hb

import (
	"fmt"

	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/trace"
	"barracuda/internal/vc"
)

// op is one trace operation.
type op struct {
	kind   trace.OpKind
	tids   []vc.TID // involved threads (singleton for thread-level ops)
	tidSet map[vc.TID]bool
	space  logging.SpaceID
	block  int32 // shared-memory block, -1 otherwise
	addr   uint64
	size   int
	pc     uint32
	warp   int
}

func (o *op) isBarrierStyle() bool {
	switch o.kind {
	case trace.OpBar, trace.OpIf, trace.OpElse, trace.OpFi:
		return true
	}
	return o.kind == endiKind
}

// endiKind is a private marker for synthesized endi operations.
const endiKind trace.OpKind = 200

// Access is one side of a race: one thread's access at a PC to an address.
type Access struct {
	TID  vc.TID
	PC   uint32
	Addr uint64
	Op   trace.OpKind
}

// Race is one unordered conflicting pair, Prev before Cur in the trace.
type Race struct {
	Space     logging.SpaceID
	Block     int32 // shared-memory block, -1 for global
	Prev, Cur Access
}

// Checker accumulates a trace and checks it on demand.
type Checker struct {
	geo   ptvc.Geometry
	ops   []*op
	masks map[int][]uint32 // per-warp SIMT mask stack (amask on top)
}

// New creates a checker for the given launch geometry.
func New(geo ptvc.Geometry) *Checker {
	return &Checker{geo: geo, masks: make(map[int][]uint32)}
}

// amask returns the current active mask of a warp (the K_w.peek() of the
// formal rules).
func (c *Checker) amask(gwid int) uint32 {
	if s := c.masks[gwid]; len(s) > 0 {
		return s[len(s)-1]
	}
	return c.fullMask(gwid)
}

// Handle appends the trace operations of one record.
func (c *Checker) Handle(r *logging.Record) {
	switch r.Op {
	case trace.OpRead, trace.OpWrite, trace.OpAtom,
		trace.OpAcqBlk, trace.OpRelBlk, trace.OpArBlk,
		trace.OpAcqGlb, trace.OpRelGlb, trace.OpArGlb:
		blk := int32(-1)
		if r.Space == logging.SpaceShared {
			blk = int32(r.Block)
		}
		for lane := 0; lane < c.geo.WarpSize && lane < logging.WarpWidth; lane++ {
			if r.Mask&(1<<uint(lane)) == 0 {
				continue
			}
			tid := c.geo.TIDOf(int(r.Warp), lane)
			c.ops = append(c.ops, &op{
				kind:  r.Op,
				tids:  []vc.TID{tid},
				space: r.Space,
				block: blk,
				addr:  r.LaneAddr(lane),
				size:  int(r.Size),
				pc:    r.PC,
				warp:  int(r.Warp),
			})
		}
		// Each warp memory instruction is followed by endi(w) over the
		// warp's currently-active threads (feasible-trace condition 2
		// of §3.1; ENDINSN uses K_w.peek(), not the record mask, which
		// may be narrower for a predicated instruction).
		c.ops = append(c.ops, &op{
			kind: endiKind,
			tids: c.laneTIDs(int(r.Warp), c.amask(int(r.Warp))),
			warp: int(r.Warp),
		})
	case trace.OpIf:
		c.masks[int(r.Warp)] = append(c.masks[int(r.Warp)], 0) // placeholder
		s := c.masks[int(r.Warp)]
		s[len(s)-1] = r.Mask
		c.ops = append(c.ops, &op{
			kind: r.Op,
			tids: c.laneTIDs(int(r.Warp), r.Mask),
			warp: int(r.Warp),
		})
	case trace.OpElse:
		if s := c.masks[int(r.Warp)]; len(s) > 0 {
			s[len(s)-1] = r.Mask
		}
		c.ops = append(c.ops, &op{
			kind: r.Op,
			tids: c.laneTIDs(int(r.Warp), r.Mask),
			warp: int(r.Warp),
		})
	case trace.OpFi:
		if s := c.masks[int(r.Warp)]; len(s) > 0 {
			c.masks[int(r.Warp)] = s[:len(s)-1]
		}
		c.ops = append(c.ops, &op{
			kind: r.Op,
			tids: c.laneTIDs(int(r.Warp), r.Mask),
			warp: int(r.Warp),
		})
	case trace.OpBarRel:
		// The released barrier covers every thread of the arrived warps.
		var tids []vc.TID
		wpb := c.geo.WarpsPerBlock()
		for wi := 0; wi < wpb && wi < 32; wi++ {
			if r.Mask&(1<<uint(wi)) == 0 {
				continue
			}
			gw := int(r.Block)*wpb + wi
			full := c.fullMask(gw)
			tids = append(tids, c.laneTIDs(gw, full)...)
		}
		c.ops = append(c.ops, &op{kind: trace.OpBar, tids: tids})
	case trace.OpBar, trace.OpEnd, trace.OpNone:
		// Per-warp barrier markers carry no synchronization of their
		// own (the BarRel event does); stream control ops are ignored.
	}
}

func (c *Checker) laneTIDs(warp int, mask uint32) []vc.TID {
	var out []vc.TID
	for lane := 0; lane < c.geo.WarpSize && lane < logging.WarpWidth; lane++ {
		if mask&(1<<uint(lane)) != 0 {
			out = append(out, c.geo.TIDOf(warp, lane))
		}
	}
	return out
}

func (c *Checker) fullMask(gwid int) uint32 {
	lanes := c.geo.BlockSize - (gwid%c.geo.WarpsPerBlock())*c.geo.WarpSize
	if lanes > c.geo.WarpSize {
		lanes = c.geo.WarpSize
	}
	if lanes >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(lanes) - 1
}

// bitset is a dense reachability row.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << uint(i%64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }
func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// syncKey identifies a synchronization location.
type syncKey struct {
	space logging.SpaceID
	block int32
	addr  uint64
}

// syncSlot mirrors the S_x strong-update semantics of the formal rules
// (Figure 3): a release *replaces* the slot for its scope, so an acquire
// synchronizes with the release currently occupying the visible slot(s),
// not with every earlier release.
type syncSlot struct {
	perBlock map[int]int // thread block -> release op index
	global   int         // -1 when empty
}

// acquireEdges computes, for each acquire op, the indices of the release
// ops it synchronizes with.
func (c *Checker) acquireEdges() map[int][]int {
	slots := make(map[syncKey]*syncSlot)
	edges := make(map[int][]int)
	for j, o := range c.ops {
		if !o.kind.IsSync() {
			continue
		}
		k := syncKey{o.space, o.block, o.addr}
		s := slots[k]
		if s == nil {
			s = &syncSlot{perBlock: make(map[int]int), global: -1}
			slots[k] = s
		}
		tb := c.geo.BlockOf(o.tids[0])
		if o.kind.IsAcquire() {
			if o.kind.GlobalScope() {
				for _, i := range s.perBlock {
					edges[j] = append(edges[j], i)
				}
				if s.global >= 0 && len(s.perBlock) < c.geo.Blocks {
					edges[j] = append(edges[j], s.global)
				}
			} else {
				if i, ok := s.perBlock[tb]; ok {
					edges[j] = append(edges[j], i)
				} else if s.global >= 0 {
					edges[j] = append(edges[j], s.global)
				}
			}
		}
		if o.kind.IsRelease() {
			if o.kind.GlobalScope() {
				s.perBlock = make(map[int]int)
				s.global = j
			} else {
				s.perBlock[tb] = j
			}
		}
	}
	return edges
}

// Races computes the synchronization order and returns every unordered
// conflicting pair of memory accesses.
func (c *Checker) Races() []Race {
	n := len(c.ops)
	for _, o := range c.ops {
		o.tidSet = make(map[vc.TID]bool, len(o.tids))
		for _, t := range o.tids {
			o.tidSet[t] = true
		}
	}
	acq := c.acquireEdges()
	// reach[j] = set of i < j with ops[i] <σ ops[j]. All edges point
	// forward in the (single linearized) trace, so one forward pass of
	// union-propagation computes the closure.
	reach := make([]bitset, n)
	for j := 0; j < n; j++ {
		reach[j] = newBitset(n)
		oj := c.ops[j]
		for _, i := range acq[j] {
			if !reach[j].get(i) {
				reach[j].set(i)
				reach[j].or(reach[i])
			}
		}
		for i := 0; i < j; i++ {
			if reach[j].get(i) {
				continue // already reachable transitively
			}
			if c.edge(c.ops[i], oj) {
				reach[j].set(i)
				reach[j].or(reach[i])
			}
		}
	}
	var races []Race
	for j := 0; j < n; j++ {
		oj := c.ops[j]
		if !isAccess(oj.kind) {
			continue
		}
		for i := 0; i < j; i++ {
			oi := c.ops[i]
			if !isAccess(oi.kind) || reach[j].get(i) {
				continue
			}
			if !conflict(oi, oj) {
				continue
			}
			races = append(races, Race{oj.space, oj.block, oi.access(), oj.access()})
		}
	}
	return races
}

// HasRaces reports whether the trace contains any race.
func (c *Checker) HasRaces() bool { return len(c.Races()) > 0 }

// isAccess reports whether the op participates in race checking. Sync
// accesses update S_x but are not race-checked, matching the formal
// detector rules (Figures 2–3).
func isAccess(k trace.OpKind) bool {
	return k == trace.OpRead || k == trace.OpWrite || k == trace.OpAtom
}

// conflict implements the §3.2 race condition for a pair of accesses.
func conflict(a, b *op) bool {
	if a.space != b.space || a.block != b.block {
		return false
	}
	// Byte ranges must overlap.
	if a.addr+uint64(max(a.size, 1)) <= b.addr || b.addr+uint64(max(b.size, 1)) <= a.addr {
		return false
	}
	// At least one write; atomics do not race with each other.
	if !a.kind.Writes() && !b.kind.Writes() {
		return false
	}
	if a.kind == trace.OpAtom && b.kind == trace.OpAtom {
		return false
	}
	// Same thread is ordered by program order; the closure catches it,
	// but a self-pair is never a race by definition.
	return !(len(a.tids) == 1 && len(b.tids) == 1 && a.tids[0] == b.tids[0])
}

// edge implements the direct program-order and barrier-style
// synchronization edges of §3.2 for a before b in the trace (the scoped
// release→acquire edges are computed separately by acquireEdges).
func (c *Checker) edge(a, b *op) bool {
	if !intersects(a, b) {
		return false
	}
	// Barrier-style ops (endi, bar, if, else, fi) synchronize with all
	// operations of their involved threads; thread-level pairs need the
	// same thread (intra-thread program order).
	if a.isBarrierStyle() || b.isBarrierStyle() {
		return true
	}
	return a.tids[0] == b.tids[0]
}

func intersects(a, b *op) bool {
	if len(a.tids) > len(b.tids) {
		a, b = b, a
	}
	for _, t := range a.tids {
		if b.tidSet[t] {
			return true
		}
	}
	return false
}

func (o *op) access() Access { return Access{o.tids[0], o.pc, o.addr, o.kind} }

// String renders an op for diagnostics.
func (o *op) String() string {
	return fmt.Sprintf("%v tids=%v addr=%#x pc=%d", o.kind, o.tids, o.addr, o.pc)
}
