package hb

import (
	"math/rand"
	"testing"

	"barracuda/internal/core"
	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/trace"
)

func testGeo() ptvc.Geometry { return ptvc.Geometry{WarpSize: 4, BlockSize: 8, Blocks: 2} }

const full4 = 0xF

func mkRec(op trace.OpKind, warp int, mask uint32, addr uint64, pc uint32) *logging.Record {
	geo := testGeo()
	r := &logging.Record{
		Op: op, Warp: uint32(warp), Block: uint32(geo.BlockOfWarp(warp)),
		Mask: mask, Size: 4, PC: pc,
	}
	for i := range r.Addrs {
		r.Addrs[i] = addr
	}
	return r
}

func TestIntraWarpConcurrentWrites(t *testing.T) {
	c := New(testGeo())
	c.Handle(mkRec(trace.OpWrite, 0, 0x3, 0x100, 1))
	races := c.Races()
	if len(races) != 1 {
		t.Fatalf("races = %v, want 1 (lanes of one instruction are concurrent)", races)
	}
}

func TestEndiOrdersSubsequentAccess(t *testing.T) {
	c := New(testGeo())
	c.Handle(mkRec(trace.OpWrite, 0, 0x1, 0x100, 1))
	c.Handle(mkRec(trace.OpRead, 0, 0x2, 0x100, 2)) // lane 1, next instr
	if c.HasRaces() {
		t.Fatalf("endi failed to order warp instructions: %v", c.Races())
	}
}

func TestCrossWarpUnordered(t *testing.T) {
	c := New(testGeo())
	c.Handle(mkRec(trace.OpWrite, 0, 0x1, 0x100, 1))
	c.Handle(mkRec(trace.OpWrite, 1, 0x1, 0x100, 2))
	if !c.HasRaces() {
		t.Fatal("cross-warp unsynchronized writes must race")
	}
}

func TestBarrierOrders(t *testing.T) {
	c := New(testGeo())
	c.Handle(mkRec(trace.OpWrite, 0, 0x1, 0x100, 1))
	c.Handle(&logging.Record{Op: trace.OpBarRel, Block: 0, Mask: 0b11})
	c.Handle(mkRec(trace.OpRead, 1, 0x1, 0x100, 2))
	if c.HasRaces() {
		t.Fatalf("barrier failed to order: %v", c.Races())
	}
	// The other block is not covered.
	c.Handle(mkRec(trace.OpWrite, 2, 0x1, 0x100, 3))
	if !c.HasRaces() {
		t.Fatal("other-block access must still race")
	}
}

func TestReleaseAcquireScopes(t *testing.T) {
	// relBlk->acqBlk same block orders.
	c := New(testGeo())
	c.Handle(mkRec(trace.OpWrite, 0, 0x1, 0x200, 1))
	c.Handle(mkRec(trace.OpRelBlk, 0, 0x1, 0x300, 2))
	c.Handle(mkRec(trace.OpAcqBlk, 1, 0x1, 0x300, 3))
	c.Handle(mkRec(trace.OpRead, 1, 0x1, 0x200, 4))
	if c.HasRaces() {
		t.Fatalf("block sync within block failed: %v", c.Races())
	}
	// relBlk->acqBlk across blocks does NOT order.
	c2 := New(testGeo())
	c2.Handle(mkRec(trace.OpWrite, 0, 0x1, 0x200, 1))
	c2.Handle(mkRec(trace.OpRelBlk, 0, 0x1, 0x300, 2))
	c2.Handle(mkRec(trace.OpAcqBlk, 2, 0x1, 0x300, 3))
	c2.Handle(mkRec(trace.OpRead, 2, 0x1, 0x200, 4))
	if !c2.HasRaces() {
		t.Fatal("cta-scope sync across blocks must not order")
	}
	// relGlb->acqBlk across blocks orders.
	c3 := New(testGeo())
	c3.Handle(mkRec(trace.OpWrite, 0, 0x1, 0x200, 1))
	c3.Handle(mkRec(trace.OpRelGlb, 0, 0x1, 0x300, 2))
	c3.Handle(mkRec(trace.OpAcqBlk, 2, 0x1, 0x300, 3))
	c3.Handle(mkRec(trace.OpRead, 2, 0x1, 0x200, 4))
	if c3.HasRaces() {
		t.Fatalf("global release + block acquire failed: %v", c3.Races())
	}
}

func TestAtomicsExemptButDontSync(t *testing.T) {
	c := New(testGeo())
	c.Handle(mkRec(trace.OpAtom, 0, 0x1, 0x100, 1))
	c.Handle(mkRec(trace.OpAtom, 1, 0x1, 0x100, 2))
	if c.HasRaces() {
		t.Fatal("atomic pair must not race")
	}
	// But they don't synchronize either.
	c.Handle(mkRec(trace.OpWrite, 0, 0x1, 0x200, 3))
	c.Handle(mkRec(trace.OpAtom, 0, 0x1, 0x100, 4))
	c.Handle(mkRec(trace.OpAtom, 1, 0x1, 0x100, 5))
	c.Handle(mkRec(trace.OpRead, 1, 0x1, 0x200, 6))
	if !c.HasRaces() {
		t.Fatal("atomics must not induce synchronization")
	}
}

func TestBranchPathsConcurrent(t *testing.T) {
	c := New(testGeo())
	c.Handle(&logging.Record{Op: trace.OpIf, Warp: 0, Mask: 0x3})
	c.Handle(mkRec(trace.OpWrite, 0, 0x3, 0x100, 1))
	c.Handle(&logging.Record{Op: trace.OpElse, Warp: 0, Mask: 0xC})
	c.Handle(mkRec(trace.OpWrite, 0, 0xC, 0x100, 2))
	c.Handle(&logging.Record{Op: trace.OpFi, Warp: 0, Mask: full4})
	races := c.Races()
	crossPath := false
	for _, r := range races {
		if r.Prev.PC == 1 && r.Cur.PC == 2 {
			crossPath = true
		}
	}
	if !crossPath {
		t.Fatalf("branch-ordering race missed: %v", races)
	}
	// After fi everything is ordered.
	c.Handle(mkRec(trace.OpRead, 0, 0x1, 0x100, 3))
	for _, r := range c.Races() {
		if r.Cur.PC == 3 {
			t.Errorf("post-fi access races: %+v", r)
		}
	}
}

func TestDisjointAddressesNoConflict(t *testing.T) {
	c := New(testGeo())
	c.Handle(mkRec(trace.OpWrite, 0, 0x1, 0x100, 1))
	c.Handle(mkRec(trace.OpWrite, 1, 0x1, 0x104, 2)) // adjacent, size 4
	if c.HasRaces() {
		t.Fatalf("disjoint 4-byte accesses raced: %v", c.Races())
	}
	// Overlapping by one byte conflicts.
	c.Handle(mkRec(trace.OpWrite, 2, 0x1, 0x101, 3))
	if !c.HasRaces() {
		t.Fatal("overlapping accesses must conflict")
	}
}

func TestSharedSpaceBlockPrivate(t *testing.T) {
	c := New(testGeo())
	w := mkRec(trace.OpWrite, 0, 0x1, 0x10, 1)
	w.Space = logging.SpaceShared
	c.Handle(w)
	w2 := mkRec(trace.OpWrite, 2, 0x1, 0x10, 2)
	w2.Space = logging.SpaceShared
	c.Handle(w2)
	if c.HasRaces() {
		t.Fatal("shared memory leaked across blocks")
	}
}

// --- Theorem 1 (empirical): detector verdict == definition verdict ----

// PageBytes is the detector's shadow page; stridedBase sits a few words
// below a page line, so strided records cross it.
const (
	PageBytes   = 1 << 16
	stridedBase = 3*PageBytes - 16
)

// genStream mirrors the well-formed random stream generator used in the
// core tests. With subword set, accesses to the location shared across
// warps are 1, 2 or 4 bytes wide at any offset inside (or straddling the
// end of) its word, so whether two of them conflict depends on their byte
// ranges — and the detector's shadow page, word-granular until the first
// such access, has to refine to bytes to agree with the definition.
func genStream(r *rand.Rand, n int, subword bool) []*logging.Record {
	var out []*logging.Record
	depth := make([]int, 4)
	elseDone := make([]bool, 4)
	masks := make([][]uint32, 4)
	pending := make([]uint32, 4)
	for w := range masks {
		masks[w] = []uint32{full4}
	}
	for len(out) < n {
		w := r.Intn(4)
		cur := masks[w][len(masks[w])-1]
		switch op := r.Intn(12); {
		case op < 5:
			kinds := []trace.OpKind{trace.OpRead, trace.OpWrite, trace.OpAtom}
			kind := kinds[r.Intn(3)]
			if r.Intn(4) == 0 {
				// A location shared across warps; reads more often
				// than writes, so race-free schedules actually occur.
				if r.Intn(3) != 0 {
					kind = trace.OpRead
				}
				rec := mkRec(kind, w, cur, 0x100, uint32(r.Intn(30)))
				if subword && r.Intn(2) == 0 {
					rec.Size = 1 << uint(r.Intn(3))
					for lane := range rec.Addrs {
						rec.Addrs[lane] = 0x100 + uint64(r.Intn(4))
					}
				}
				out = append(out, rec)
			} else if r.Intn(3) == 0 {
				// Strided words over a region all four warps share, at a
				// stride of a word, of a cache line, or of half a shadow
				// page, so the walk's runs end at a page line; mostly
				// reads, and a base that moves by words, so the warps'
				// lanes overlap only in part.
				if r.Intn(3) != 0 {
					kind = trace.OpRead
				}
				stride := []uint64{4, 64, PageBytes / 2}[r.Intn(3)]
				rec := mkRec(kind, w, cur, 0, uint32(60+r.Intn(10)))
				base := stridedBase + 4*uint64(r.Intn(4))
				for lane := range rec.Addrs {
					rec.Addrs[lane] = base + uint64(lane)*stride
				}
				out = append(out, rec)
			} else {
				// Lane-private strided addresses within a warp-private
				// region: never conflicting.
				rec := mkRec(kind, w, cur, 0, uint32(r.Intn(30)))
				for lane := range rec.Addrs {
					rec.Addrs[lane] = uint64(0x1000+w*0x100) + uint64(lane)*4
				}
				out = append(out, rec)
			}
		case op < 7 && depth[w] == 0 && onesCount(cur) >= 2:
			var first uint32
			for first == 0 || first == cur {
				first = cur & uint32(r.Intn(16))
			}
			out = append(out, &logging.Record{Op: trace.OpIf, Warp: uint32(w), Mask: first})
			pending[w] = cur &^ first
			masks[w] = append(masks[w], first)
			depth[w] = 1
			elseDone[w] = false
		case op < 8 && depth[w] == 1 && !elseDone[w]:
			out = append(out, &logging.Record{Op: trace.OpElse, Warp: uint32(w), Mask: pending[w]})
			masks[w][len(masks[w])-1] = pending[w]
			elseDone[w] = true
		case op < 9 && depth[w] == 1 && elseDone[w]:
			masks[w] = masks[w][:len(masks[w])-1]
			out = append(out, &logging.Record{Op: trace.OpFi, Warp: uint32(w), Mask: masks[w][len(masks[w])-1]})
			depth[w] = 0
		case op < 10:
			kinds := []trace.OpKind{
				trace.OpAcqBlk, trace.OpRelBlk, trace.OpArBlk,
				trace.OpAcqGlb, trace.OpRelGlb, trace.OpArGlb,
			}
			out = append(out, mkRec(kinds[r.Intn(len(kinds))], w, cur, 0x300, uint32(40+r.Intn(5))))
		default:
			blk := r.Intn(2)
			w0, w1 := blk*2, blk*2+1
			if depth[w0] != 0 || depth[w1] != 0 {
				continue
			}
			geo := testGeo()
			out = append(out,
				&logging.Record{Op: trace.OpBar, Warp: uint32(w0), Block: uint32(blk), Mask: full4, PC: 50},
				&logging.Record{Op: trace.OpBar, Warp: uint32(w1), Block: uint32(blk), Mask: full4, PC: 50},
				&logging.Record{Op: trace.OpBarRel, Block: uint32(blk), Mask: 0b11})
			_ = geo
		}
	}
	return out
}

func onesCount(m uint32) int {
	n := 0
	for ; m != 0; m >>= 1 {
		n += int(m & 1)
	}
	return n
}

// TestTheorem1Agreement judges the detector against the definition in
// two configurations: the epoch rules on the one per-cell walk, and the
// FullVC ablation. Each record is classified the way the producer
// classifies it, so coalesced and strided records reach the walk as they
// do in a launch; every configuration's verdict must equal the
// definition's on every seed.
func TestTheorem1Agreement(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"epoch", core.Options{NoSameValueFilter: true}},
		{"fullvc", core.Options{NoSameValueFilter: true, FullVC: true}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			for _, subword := range []bool{false, true} {
				theorem1(t, cfg.opts, subword)
			}
		})
	}
}

// theorem1 runs 60 seeds of one stream shape through a detector with opts
// and the definition.
func theorem1(t *testing.T, opts core.Options, subword bool) {
	agreeRacy, agreeClean := 0, 0
	stridedRacy, stridedClean := 0, 0 // seeds whose shared strided records race, and do not
	var refined uint64
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		stream := genStream(r, 60, subword)
		det := core.New(testGeo(), 256, opts)
		w := det.NewWorker()
		ref := New(testGeo())
		for _, rc := range stream {
			rc.Classify()
			cp1, cp2 := *rc, *rc
			w.Handle(&cp1)
			ref.Handle(&cp2)
		}
		rep := det.Report()
		dv := rep.HasRaces()
		rv := ref.HasRaces()
		if dv != rv {
			t.Fatalf("subword=%v seed %d: detector=%v reference=%v\nref races: %v\ndet races: %v",
				subword, seed, dv, rv, ref.Races(), rep.Races)
		}
		if dv {
			agreeRacy++
		} else {
			agreeClean++
		}
		switch strided, raced := hasStrided(stream), stridedRace(ref.Races()); {
		case strided && raced:
			stridedRacy++
		case strided:
			stridedClean++
		}
		refined += rep.Shadow.Refinements
	}
	// The generator must exercise both verdicts for the test to mean
	// anything — and the sub-word streams must actually refine pages.
	if agreeRacy == 0 || agreeClean == 0 {
		t.Fatalf("subword=%v: degenerate coverage: racy=%d clean=%d", subword, agreeRacy, agreeClean)
	}
	t.Logf("subword=%v: %d racy and %d clean streams; shared strided records raced in %d, not in %d",
		subword, agreeRacy, agreeClean, stridedRacy, stridedClean)
	if stridedRacy == 0 || stridedClean == 0 {
		t.Fatalf("subword=%v: shared strided records raced in %d seeds and not in %d: want both", subword, stridedRacy, stridedClean)
	}
	if subword != (refined > 0) {
		t.Fatalf("subword=%v: %d shadow refinements", subword, refined)
	}
}

// hasStrided reports whether a stream holds a strided record over the
// region the warps share.
func hasStrided(stream []*logging.Record) bool {
	for _, rc := range stream {
		if rc.PC >= 60 && rc.PC < 70 {
			return true
		}
	}
	return false
}

// stridedRace reports whether a race is on the shared strided region.
func stridedRace(races []Race) bool {
	for _, rc := range races {
		if rc.Cur.Addr >= stridedBase && rc.Cur.Addr < stridedBase+4*PageBytes {
			return true
		}
	}
	return false
}
