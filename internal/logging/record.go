package logging

import (
	"math/bits"

	"barracuda/internal/trace"
)

// WarpWidth is the number of address slots in a record (one per lane).
const WarpWidth = 32

// SpaceID identifies the memory space of a logged access.
type SpaceID uint8

// Memory spaces appearing in records.
const (
	SpaceGlobal SpaceID = iota
	SpaceShared
	SpaceLocal
)

func (s SpaceID) String() string {
	switch s {
	case SpaceGlobal:
		return "global"
	case SpaceShared:
		return "shared"
	case SpaceLocal:
		return "local"
	}
	return "?"
}

// Record flags. A plain memory access (read, write, atomic) whose lane
// addresses follow one of two patterns carries the pattern in its header
// and is a compact record: LaneAddr resolves every address from
// (Base, Stride, Mask, Size), and the queue ships no address array. At
// most one of the two flags is set.
const (
	// FlagCoalesced: the active lanes form one contiguous ascending run
	// by rank — the k-th set bit of Mask accesses Base + k*Size, whatever
	// gaps the mask has: a compact record the queue ships with no
	// address array.
	FlagCoalesced uint8 = 1 << 0
	// FlagStrided: the access is lane-affine — lane l accesses
	// Base + (l - first active lane)*Stride, for any Stride: negative,
	// zero (a broadcast address) or smaller than Size.
	FlagStrided uint8 = 1 << 1

	flagCompact = FlagCoalesced | FlagStrided
)

// MaxPC is the largest PC a record carries: a shadow cell keeps its write's
// atomic bit in bit 31 of the write's PC, so a source line past it is a
// load error.
const MaxPC = 1<<31 - 1

// Record is one warp-level event, closely modeled on the paper's queue
// record: a header identifying the warp, the operation and the active
// mask, plus one address slot per lane. (The paper's record is
// 16+8*32 = 272 bytes; ours carries the block id and static PC for race
// reporting, so the header is a few bytes wider.)
//
// The in-memory record is self-describing: a producer fills Addrs for the
// active lanes even when a compact flag is set, because sinks that bypass
// the queue copy records by value. Only the active lanes of Addrs — and
// of Vals, on writes — mean anything; the rest is whatever the buffer held
// before.
type Record struct {
	Warp  uint32 // global warp index
	Block uint32 // thread block index (queue affinity, shared-memory key)
	Op    trace.OpKind
	Space SpaceID
	Size  uint8  // access size in bytes (memory ops)
	Flags uint8  // FlagCoalesced or FlagStrided
	Mask  uint32 // active thread mask (bit i = lane i)
	PC    uint32 // source line of the logged instruction, at most MaxPC
	// Base is the first active lane's address of a compact record (§4.2's
	// compact encoding of the dominant access patterns), Stride the byte
	// distance between neighbouring lanes of a strided one.
	Base   uint64
	Stride int64
	// Seq is a global sequence number stamped on synchronization
	// (acquire/release) records only. Detector threads process sync
	// records in Seq order, which — combined with per-queue FIFO order —
	// guarantees that everything a release publishes has been processed
	// before any dependent acquire is, even across queues.
	Seq   uint64
	Addrs [WarpWidth]uint64
	// Vals carries the per-lane stored values for write records, used by
	// the detector's "same-value" intra-warp race filter (§3.3.1): if
	// all lanes of a warp write the same value to a location, the
	// outcome is well-defined and not reported as a race.
	Vals [WarpWidth]uint64
}

// LaneAddr returns the address accessed by a lane: resolved from the
// header for compact records, the per-lane slot otherwise. The lane must
// be active (Mask bit set); for inactive lanes of a compact record the
// result is meaningless.
func (r *Record) LaneAddr(lane int) uint64 {
	if r.Flags&flagCompact == 0 {
		return r.Addrs[lane]
	}
	if r.Flags&FlagStrided != 0 {
		return r.Base + uint64(int64(lane-bits.TrailingZeros32(r.Mask))*r.Stride)
	}
	rank := bits.OnesCount32(r.Mask & (1<<uint(lane) - 1))
	return r.Base + uint64(rank)*uint64(r.Size)
}

// Classify tags a filled memory record with the compact form its active
// lanes' Addrs follow — coalesced where both fit (a single lane, a full
// contiguous warp) — and clears the tag otherwise. Only plain memory
// accesses with a size span shadow cells, so synchronization and control
// records are never compact.
func (r *Record) Classify() {
	r.Flags &^= flagCompact
	r.Base, r.Stride = 0, 0
	if r.Mask == 0 || r.Size == 0 || r.Op < trace.OpRead || r.Op > trace.OpAtom {
		return
	}
	first := bits.TrailingZeros32(r.Mask)
	base := r.Addrs[first]
	var stride int64
	if rest := r.Mask & (r.Mask - 1); rest != 0 {
		second := bits.TrailingZeros32(rest)
		stride = int64(r.Addrs[second]-base) / int64(second-first)
	}
	// ragged and bent turn nonzero at the first lane off the coalesced and
	// the strided form.
	var ragged, bent uint64
	next := base
	for m := r.Mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a := r.Addrs[lane]
		ragged |= a ^ next
		next += uint64(r.Size)
		bent |= a ^ (base + uint64(int64(lane-first)*stride))
	}
	switch {
	case ragged == 0:
		r.Flags |= FlagCoalesced
		r.Base = base
	case bent == 0:
		r.Flags |= FlagStrided
		r.Base, r.Stride = base, stride
	}
}

// lanesMayShareCell reports whether two lanes of one access — size bytes
// each, neighbouring lanes stride bytes apart starting at base — can
// touch the same shadow cell of gran bytes: the queue ships a write's Vals
// only when its lanes can meet in a cell, where the same-value filter
// compares them. It errs towards "may share": lanes are provably apart
// when the gap clears a whole cell at any alignment, or when every lane
// starts on a cell boundary and ends before the next lane does.
func lanesMayShareCell(base uint64, stride int64, size uint8, gran uint64) bool {
	s, sz := uint64(stride), uint64(size)
	if stride < 0 {
		s = -s
	}
	if s >= sz+gran-1 {
		return false
	}
	return s < sz || s%gran != 0 || base%gran != 0
}
