package core

import (
	"math/rand"
	"testing"

	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/trace"
)

// coalescedRec builds one classified coalesced record: full mask, lane i at
// base+i*size.
func coalescedRec(op trace.OpKind, warp uint32, base uint64, size uint8, pc uint32) *logging.Record {
	r := &logging.Record{Op: op, Warp: warp, Block: warp / 2, Space: logging.SpaceGlobal, Size: size, PC: pc, Mask: ^uint32(0)}
	for lane := 0; lane < 32; lane++ {
		r.Addrs[lane] = base + uint64(lane)*uint64(size)
		r.Vals[lane] = uint64(lane)
	}
	r.Classify()
	if r.Flags&logging.FlagCoalesced == 0 {
		panic("coalescedRec: record not coalesced")
	}
	return r
}

// TestAtomicBitLifecycle: the atomic bit set by a coalesced atomic is
// read back from the cells, and a plain write from the same warp clears
// it again.
func TestAtomicBitLifecycle(t *testing.T) {
	geo := ptvc.Geometry{WarpSize: 32, BlockSize: 64, Blocks: 4}
	d := New(geo, 0, Options{})
	w := d.NewWorker()

	w.Handle(coalescedRec(trace.OpAtom, 0, 0, 4, 1))
	c := d.Shadow().CellFor(logging.SpaceGlobal, -1, 64)
	if !c.Atomic() {
		t.Fatal("atomic bit lost")
	}

	// A fresh range: atomic, then a same-warp write.
	w.Handle(coalescedRec(trace.OpAtom, 1, 4096, 4, 2))
	w.Handle(coalescedRec(trace.OpWrite, 1, 4096, 4, 3))
	c = d.Shadow().CellFor(logging.SpaceGlobal, -1, 4096)
	if c.Atomic() {
		t.Error("plain write did not clear the atomic bit")
	}
	if c.WritePC() != 3 {
		t.Errorf("WritePC = %d, want 3 (the plain write)", c.WritePC())
	}
	if rep := d.Report(); rep.HasRaces() {
		t.Errorf("unexpected races: %+v", rep.Races)
	}
}

// TestAtomicCrossWarpNoRace: atomics from different blocks do not race
// with each other (ATOMEXCL), and the second keeps the atomic bit.
func TestAtomicCrossWarpNoRace(t *testing.T) {
	geo := ptvc.Geometry{WarpSize: 32, BlockSize: 64, Blocks: 4}
	d := New(geo, 0, Options{})
	w := d.NewWorker()

	w.Handle(coalescedRec(trace.OpAtom, 0, 0, 4, 1))
	w.Handle(coalescedRec(trace.OpAtom, 4, 0, 4, 2)) // different block, unordered
	if rep := d.Report(); rep.HasRaces() {
		t.Fatalf("atomic-atomic reported as race: %+v", rep.Races)
	}
	c := d.Shadow().CellFor(logging.SpaceGlobal, -1, 0)
	if !c.Atomic() {
		t.Error("atomic bit lost across cross-warp atomic update")
	}
	if c.W.T != geo.TIDOf(4, 0) {
		t.Errorf("W.T = %d, want the second atomic's lane 0 tid %d", c.W.T, geo.TIDOf(4, 0))
	}
}

// propStream generates a pseudo-random warp memory stream mixing every
// shape the walk has to handle: contiguous runs (including ones that
// straddle the 64 KiB page boundary), strided and scattered layouts,
// partial masks, sizes 1–8, global and shared space, reads, writes and
// atomics — with the address ranges kept small so warps genuinely
// collide and races, read inflation and refinement all occur.
func propStream(rng *rand.Rand, geo ptvc.Geometry, n int) []logging.Record {
	warps := geo.Blocks * geo.WarpsPerBlock()
	sizes := []uint8{1, 2, 4, 8}
	recs := make([]logging.Record, 0, n)
	for len(recs) < n {
		var r logging.Record
		r.Warp = uint32(rng.Intn(warps))
		r.Block = r.Warp / uint32(geo.WarpsPerBlock())
		switch rng.Intn(4) {
		case 0:
			r.Op = trace.OpWrite
		case 1:
			r.Op = trace.OpAtom
		default:
			r.Op = trace.OpRead
		}
		r.Size = sizes[rng.Intn(len(sizes))]
		r.PC = uint32(1 + rng.Intn(12))
		if rng.Intn(3) == 0 {
			r.Space = logging.SpaceShared
		} else {
			r.Space = logging.SpaceGlobal
		}
		if rng.Intn(2) == 0 {
			r.Mask = ^uint32(0)
		} else {
			r.Mask = rng.Uint32() | 1<<uint(rng.Intn(32))
		}
		var base uint64
		if r.Space == logging.SpaceShared {
			base = uint64(rng.Intn(256)) // slab is 1 KiB; runs may overrun it
		} else if rng.Intn(4) == 0 {
			// Straddle the page boundary: runs on two pages, and lanes
			// split between them.
			base = 1<<16 - uint64(rng.Intn(64))
		} else {
			base = uint64(rng.Intn(2048))
		}
		layout := rng.Intn(3)
		rank := 0
		for lane := 0; lane < 32; lane++ {
			if r.Mask&(1<<uint(lane)) == 0 {
				continue
			}
			switch layout {
			case 0: // contiguous: coalesced
				r.Addrs[lane] = base + uint64(rank)*uint64(r.Size)
			case 1: // strided
				r.Addrs[lane] = base + uint64(rank)*uint64(r.Size)*2
			default: // scattered, possibly lane-overlapping
				r.Addrs[lane] = base + uint64(rng.Intn(512))
			}
			r.Vals[lane] = uint64(rng.Intn(3)) // small: same-value filter hits
			rank++
		}
		r.Classify()
		recs = append(recs, r)
	}
	return recs
}
