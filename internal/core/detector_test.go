package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/trace"
)

// Test geometry: 2 blocks x 2 warps x 4 lanes = 16 threads.
func testGeo() ptvc.Geometry { return ptvc.Geometry{WarpSize: 4, BlockSize: 8, Blocks: 2} }

const full4 = 0xF

// recBuilder builds records tersely.
type recBuilder struct {
	r logging.Record
}

func rec(op trace.OpKind, warp int, mask uint32) *recBuilder {
	geo := testGeo()
	b := &recBuilder{}
	b.r.Op = op
	b.r.Warp = uint32(warp)
	b.r.Block = uint32(geo.BlockOfWarp(warp))
	b.r.Mask = mask
	b.r.Size = 4
	return b
}

func (b *recBuilder) at(pc uint32) *recBuilder { b.r.PC = pc; return b }

// addr sets the same address for every lane.
func (b *recBuilder) addr(a uint64) *recBuilder {
	for i := range b.r.Addrs {
		b.r.Addrs[i] = a
	}
	return b
}

// stride sets per-lane addresses base + lane*4.
func (b *recBuilder) stride(base uint64) *recBuilder {
	for i := range b.r.Addrs {
		b.r.Addrs[i] = base + uint64(i)*4
	}
	return b
}

func (b *recBuilder) vals(vs ...uint64) *recBuilder {
	copy(b.r.Vals[:], vs)
	return b
}

func (b *recBuilder) shared() *recBuilder { b.r.Space = logging.SpaceShared; return b }

func (b *recBuilder) rec() *logging.Record { return &b.r }

// testDet is a detector driven through one worker, as a queue consumer
// drives it.
type testDet struct {
	*Detector
	w *Worker
}

func (t testDet) Handle(r *logging.Record) { t.w.Handle(r) }

func newDet(opts Options) testDet {
	d := New(testGeo(), 256, opts)
	return testDet{d, d.NewWorker()}
}

func TestIntraWarpSameInstrWriteWrite(t *testing.T) {
	d := newDet(Options{})
	// All 4 lanes write the same address with different values.
	d.Handle(rec(trace.OpWrite, 0, full4).addr(0x10000).vals(1, 2, 3, 4).at(10).rec())
	rep := d.Report()
	if rep.RaceCount() != 1 {
		t.Fatalf("races = %d, want 1: %v", rep.RaceCount(), rep.Races)
	}
	r := rep.Races[0]
	if r.Kind != IntraWarp || !r.SameInstr {
		t.Errorf("race = %+v, want intra-warp same-instruction", r)
	}
	if r.Count < 3 {
		t.Errorf("dynamic count = %d, want >= 3 (lanes 1..3 each conflict)", r.Count)
	}
}

func TestSameValueFilter(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpWrite, 0, full4).addr(0x10000).vals(7, 7, 7, 7).at(10).rec())
	rep := d.Report()
	if rep.RaceCount() != 0 {
		t.Fatalf("races = %d, want 0 (same value): %v", rep.RaceCount(), rep.Races)
	}
	if rep.SameValueGag == 0 {
		t.Error("same-value filter did not record any filtered writes")
	}
	// With the filter disabled the race appears.
	d2 := newDet(Options{NoSameValueFilter: true})
	d2.Handle(rec(trace.OpWrite, 0, full4).addr(0x10000).vals(7, 7, 7, 7).at(10).rec())
	if d2.Report().RaceCount() != 1 {
		t.Error("NoSameValueFilter did not surface the race")
	}
}

func TestDistinctAddressesNoRace(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpWrite, 0, full4).stride(0x10000).vals(1, 2, 3, 4).at(10).rec())
	d.Handle(rec(trace.OpRead, 0, full4).stride(0x10000).at(11).rec())
	if rep := d.Report(); rep.RaceCount() != 0 {
		t.Errorf("races = %v, want none", rep.Races)
	}
}

func TestSequentialSameThreadNoRace(t *testing.T) {
	d := newDet(Options{})
	// Only lane 0 active: write then read then write.
	d.Handle(rec(trace.OpWrite, 0, 0x1).addr(0x10000).at(10).rec())
	d.Handle(rec(trace.OpRead, 0, 0x1).addr(0x10000).at(11).rec())
	d.Handle(rec(trace.OpWrite, 0, 0x1).addr(0x10000).at(12).rec())
	if rep := d.Report(); rep.RaceCount() != 0 {
		t.Errorf("races = %v, want none", rep.Races)
	}
}

func TestCrossWarpIntraBlockRace(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpWrite, 0, 0x1).addr(0x10000).at(10).rec())
	d.Handle(rec(trace.OpWrite, 1, 0x1).addr(0x10000).at(20).rec())
	rep := d.Report()
	if rep.RaceCount() != 1 || rep.Races[0].Kind != IntraBlock {
		t.Fatalf("races = %v, want one intra-block", rep.Races)
	}
}

func TestCrossBlockRace(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpWrite, 0, 0x1).addr(0x10000).at(10).rec())
	d.Handle(rec(trace.OpRead, 2, 0x1).addr(0x10000).at(20).rec()) // warp 2 = block 1
	rep := d.Report()
	if rep.RaceCount() != 1 || rep.Races[0].Kind != InterBlock {
		t.Fatalf("races = %v, want one inter-block", rep.Races)
	}
	r := rep.Races[0]
	if !r.Prev.Write || r.Cur.Write {
		t.Errorf("race sides wrong: %+v", r)
	}
}

func TestBarrierOrdersBlock(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpWrite, 0, 0x1).addr(0x10000).at(10).rec())
	// Barrier: both warps of block 0 arrive (marker + release).
	d.Handle(rec(trace.OpBar, 0, full4).at(11).rec())
	d.Handle(rec(trace.OpBar, 1, full4).at(11).rec())
	d.Handle(rec(trace.OpBarRel, 0, 0b11).rec())
	d.Handle(rec(trace.OpRead, 1, 0x1).addr(0x10000).at(12).rec())
	rep := d.Report()
	if rep.RaceCount() != 0 {
		t.Errorf("races after barrier = %v, want none", rep.Races)
	}
	if len(rep.Divergences) != 0 {
		t.Errorf("divergences = %v", rep.Divergences)
	}
	// But a thread in the OTHER block is not ordered by block 0's barrier.
	d.Handle(rec(trace.OpWrite, 2, 0x1).addr(0x10000).at(30).rec())
	if d.Report().RaceCount() == 0 {
		t.Error("cross-block access wrongly ordered by a block barrier")
	}
}

func TestBarrierDivergenceDetected(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpBar, 0, 0x3).at(11).rec()) // only 2 of 4 lanes
	rep := d.Report()
	if len(rep.Divergences) != 1 {
		t.Fatalf("divergences = %v, want 1", rep.Divergences)
	}
	if rep.Divergences[0].Warp != 0 || rep.Divergences[0].Mask != 0x3 {
		t.Errorf("divergence = %+v", rep.Divergences[0])
	}
	// The same static barrier is reported once.
	d.Handle(rec(trace.OpBar, 0, 0x3).at(11).rec())
	if len(d.Report().Divergences) != 1 {
		t.Error("divergence not deduplicated")
	}
}

func TestReadInflationAndWriterRace(t *testing.T) {
	d := newDet(Options{})
	// Two concurrent readers in different warps: no race.
	d.Handle(rec(trace.OpRead, 0, 0x1).addr(0x10000).at(10).rec())
	d.Handle(rec(trace.OpRead, 1, 0x1).addr(0x10000).at(11).rec())
	if d.Report().RaceCount() != 0 {
		t.Fatal("concurrent reads reported as a race")
	}
	// A concurrent writer races with (at least) one reader.
	d.Handle(rec(trace.OpWrite, 2, 0x1).addr(0x10000).at(12).rec())
	rep := d.Report()
	if rep.RaceCount() == 0 {
		t.Fatal("read-shared vs write race missed")
	}
	for _, r := range rep.Races {
		if r.Prev.Write || !r.Cur.Write {
			t.Errorf("expected read-vs-write races, got %+v", r)
		}
	}
}

func TestAtomicsDoNotRaceWithEachOther(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpAtom, 0, 0x1).addr(0x10000).at(10).rec())
	d.Handle(rec(trace.OpAtom, 1, 0x1).addr(0x10000).at(20).rec())
	d.Handle(rec(trace.OpAtom, 2, 0x1).addr(0x10000).at(30).rec())
	if rep := d.Report(); rep.RaceCount() != 0 {
		t.Errorf("atomic-atomic races = %v, want none", rep.Races)
	}
}

func TestAtomicVsPlainWriteRaces(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpWrite, 0, 0x1).addr(0x10000).at(10).rec())
	d.Handle(rec(trace.OpAtom, 1, 0x1).addr(0x10000).at(20).rec())
	rep := d.Report()
	if rep.RaceCount() != 1 {
		t.Fatalf("INITATOM race missed: %v", rep.Races)
	}
	// And plain write over an atomic also races.
	d2 := newDet(Options{})
	d2.Handle(rec(trace.OpAtom, 0, 0x1).addr(0x10000).at(10).rec())
	d2.Handle(rec(trace.OpWrite, 1, 0x1).addr(0x10000).at(20).rec())
	if d2.Report().RaceCount() != 1 {
		t.Fatalf("write-over-atomic race missed: %v", d2.Report().Races)
	}
}

func TestAtomicsAloneDoNotSynchronize(t *testing.T) {
	d := newDet(Options{})
	// Warp 0 writes data, then "publishes" via a bare atomic; warp 1
	// "consumes" via a bare atomic and reads data. Atomics imply no
	// ordering, so the data access races.
	d.Handle(rec(trace.OpWrite, 0, 0x1).addr(0x20000).at(10).rec())
	d.Handle(rec(trace.OpAtom, 0, 0x1).addr(0x10000).at(11).rec())
	d.Handle(rec(trace.OpAtom, 1, 0x1).addr(0x10000).at(20).rec())
	d.Handle(rec(trace.OpRead, 1, 0x1).addr(0x20000).at(21).rec())
	rep := d.Report()
	if rep.RaceCount() != 1 {
		t.Fatalf("races = %v, want the data race (atomics don't sync)", rep.Races)
	}
	if rep.Races[0].Addr != 0x20000 {
		t.Errorf("race on %#x, want the data location", rep.Races[0].Addr)
	}
}

func TestBlockScopedReleaseAcquireOrders(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpWrite, 0, 0x1).addr(0x20000).at(10).rec())
	d.Handle(rec(trace.OpRelBlk, 0, 0x1).addr(0x10000).at(11).rec())
	d.Handle(rec(trace.OpAcqBlk, 1, 0x1).addr(0x10000).at(20).rec())
	d.Handle(rec(trace.OpRead, 1, 0x1).addr(0x20000).at(21).rec())
	if rep := d.Report(); rep.RaceCount() != 0 {
		t.Errorf("block-scoped sync within a block failed: %v", rep.Races)
	}
}

func TestBlockScopedSyncAcrossBlocksDoesNotOrder(t *testing.T) {
	// The Figure 4 litmus result: membar.cta is insufficient between
	// blocks.
	d := newDet(Options{})
	d.Handle(rec(trace.OpWrite, 0, 0x1).addr(0x20000).at(10).rec())
	d.Handle(rec(trace.OpRelBlk, 0, 0x1).addr(0x10000).at(11).rec())
	d.Handle(rec(trace.OpAcqBlk, 2, 0x1).addr(0x10000).at(20).rec()) // other block
	d.Handle(rec(trace.OpRead, 2, 0x1).addr(0x20000).at(21).rec())
	rep := d.Report()
	if rep.RaceCount() != 1 {
		t.Fatalf("races = %v, want 1 (cta fences don't sync across blocks)", rep.Races)
	}
	if rep.Races[0].Kind != InterBlock {
		t.Errorf("race kind = %v", rep.Races[0].Kind)
	}
}

func TestGlobalScopedSyncAcrossBlocksOrders(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpWrite, 0, 0x1).addr(0x20000).at(10).rec())
	d.Handle(rec(trace.OpRelGlb, 0, 0x1).addr(0x10000).at(11).rec())
	d.Handle(rec(trace.OpAcqGlb, 2, 0x1).addr(0x10000).at(20).rec())
	d.Handle(rec(trace.OpRead, 2, 0x1).addr(0x20000).at(21).rec())
	if rep := d.Report(); rep.RaceCount() != 0 {
		t.Errorf("global sync across blocks failed: %v", rep.Races)
	}
}

func TestGlobalReleaseBlockAcquire(t *testing.T) {
	// §3.3.4: a global release in one block synchronizes with an
	// acquire in any other block even if the latter is block-scoped.
	d := newDet(Options{})
	d.Handle(rec(trace.OpWrite, 0, 0x1).addr(0x20000).at(10).rec())
	d.Handle(rec(trace.OpRelGlb, 0, 0x1).addr(0x10000).at(11).rec())
	d.Handle(rec(trace.OpAcqBlk, 2, 0x1).addr(0x10000).at(20).rec())
	d.Handle(rec(trace.OpRead, 2, 0x1).addr(0x20000).at(21).rec())
	if rep := d.Report(); rep.RaceCount() != 0 {
		t.Errorf("global release + block acquire failed: %v", rep.Races)
	}
}

func TestAcqRelLockHandoffChain(t *testing.T) {
	// A lock bouncing between three warps: each holder's writes are
	// ordered before the next holder's.
	d := newDet(Options{})
	lock, data := uint64(0x10000), uint64(0x20000)
	holders := []int{0, 1, 2}
	for i, w := range holders {
		d.Handle(rec(trace.OpArGlb, w, 0x1).addr(lock).at(uint32(100 + i)).rec()) // acquire
		d.Handle(rec(trace.OpWrite, w, 0x1).addr(data).at(uint32(200 + i)).rec())
		d.Handle(rec(trace.OpArGlb, w, 0x1).addr(lock).at(uint32(300 + i)).rec()) // release
	}
	if rep := d.Report(); rep.RaceCount() != 0 {
		t.Errorf("lock handoff chain produced races: %v", rep.Races)
	}
}

func TestBranchOrderingRace(t *testing.T) {
	// The new bug class from the paper: writes on the two sides of a
	// divergent branch to the same location are logically concurrent.
	d := newDet(Options{})
	d.Handle(rec(trace.OpIf, 0, 0x3).rec()) // lanes 0,1 take the first path
	d.Handle(rec(trace.OpWrite, 0, 0x3).addr(0x10000).vals(1, 1).at(10).rec())
	d.Handle(rec(trace.OpElse, 0, 0xC).rec())
	d.Handle(rec(trace.OpWrite, 0, 0xC).addr(0x10000).vals(0, 0, 2, 2).at(20).rec())
	d.Handle(rec(trace.OpFi, 0, full4).rec())
	rep := d.Report()
	found := false
	for _, r := range rep.Races {
		if r.Kind == IntraWarp && !r.SameInstr && r.Prev.PC == 10 && r.Cur.PC == 20 {
			found = true
		}
	}
	if !found {
		t.Fatalf("branch-ordering race not found: %v", rep.Races)
	}
	// After reconvergence, later accesses are ordered with both paths.
	d.Handle(rec(trace.OpWrite, 0, full4).stride(0x30000).at(30).rec())
	d.Handle(rec(trace.OpRead, 0, full4).addr(0x10000).at(31).rec())
	for _, r := range d.Report().Races {
		if r.Cur.PC == 31 {
			t.Errorf("post-reconvergence read races: %+v", r)
		}
	}
}

func TestBranchPathsSeparateLocationsNoRace(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpIf, 0, 0x3).rec())
	d.Handle(rec(trace.OpWrite, 0, 0x3).addr(0x10000).vals(1, 1).at(10).rec())
	d.Handle(rec(trace.OpElse, 0, 0xC).rec())
	d.Handle(rec(trace.OpWrite, 0, 0xC).addr(0x20000).vals(0, 0, 2, 2).at(20).rec())
	d.Handle(rec(trace.OpFi, 0, full4).rec())
	if rep := d.Report(); rep.RaceCount() != 0 {
		t.Errorf("disjoint branch writes raced: %v", rep.Races)
	}
}

func TestSharedMemoryBlockPrivate(t *testing.T) {
	d := newDet(Options{})
	// Same shared address in different blocks never conflicts.
	d.Handle(rec(trace.OpWrite, 0, 0x1).shared().addr(16).at(10).rec())
	d.Handle(rec(trace.OpWrite, 2, 0x1).shared().addr(16).at(20).rec())
	if rep := d.Report(); rep.RaceCount() != 0 {
		t.Errorf("shared memory leaked across blocks: %v", rep.Races)
	}
	// Within a block it conflicts as usual.
	d.Handle(rec(trace.OpWrite, 1, 0x1).shared().addr(16).at(30).rec())
	if d.Report().RaceCount() != 1 {
		t.Error("intra-block shared race missed")
	}
}

func TestRaceDedupAndCount(t *testing.T) {
	d := newDet(Options{})
	for i := 0; i < 10; i++ {
		d.Handle(rec(trace.OpWrite, 0, 0x1).addr(0x10000 + uint64(i)*64).at(10).rec())
		d.Handle(rec(trace.OpWrite, 1, 0x1).addr(0x10000 + uint64(i)*64).at(20).rec())
	}
	rep := d.Report()
	if rep.RaceCount() != 1 {
		t.Fatalf("static races = %d, want 1", rep.RaceCount())
	}
	// Size-4 accesses at 1-byte granularity: 4 cells per conflict.
	if rep.Races[0].Count != 40 {
		t.Errorf("dynamic count = %d, want 40", rep.Races[0].Count)
	}
}

func TestReportMetadata(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpWrite, 0, 0x1).addr(0x10000).at(10).rec())
	rep := d.Report()
	if rep.RecordsSeen != 1 {
		t.Errorf("RecordsSeen = %d", rep.RecordsSeen)
	}
	if rep.HasRaces() {
		t.Error("HasRaces on clean report")
	}
	if s := (Race{Kind: InterBlock, Space: logging.SpaceGlobal, Addr: 1,
		Prev: Access{Write: true}, Cur: Access{}}).String(); s == "" {
		t.Error("Race.String empty")
	}
}

func TestFormatStats(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpWrite, 0, full4).stride(0x10000).vals(1, 2, 3, 4).at(10).rec())
	d.Handle(rec(trace.OpIf, 1, 0x3).rec())
	stats := d.FormatStats()
	if stats[ptvc.Converged] == 0 {
		t.Errorf("format stats = %v, want converged groups", stats)
	}
	if stats[ptvc.Diverged] == 0 {
		t.Errorf("format stats = %v, want a diverged group", stats)
	}
}

// --- Cross-check: compressed detector vs full-VC baseline -------------

// genRandomStream produces a well-formed random record stream.
func genRandomStream(r *rand.Rand, n int) []*logging.Record {
	var out []*logging.Record
	depth := make([]int, 4)      // divergence depth per warp
	elseDone := make([]bool, 4)  // whether the top frame switched already
	masks := make([][]uint32, 4) // active mask stack per warp
	pending := make([]uint32, 4) // second-path mask of the top frame
	for w := range masks {
		masks[w] = []uint32{full4}
	}
	addrs := []uint64{0x10000, 0x10040, 0x20000}
	for len(out) < n {
		w := r.Intn(4)
		cur := masks[w][len(masks[w])-1]
		switch op := r.Intn(12); {
		case op < 5: // memory access
			kind := []trace.OpKind{trace.OpRead, trace.OpWrite, trace.OpAtom}[r.Intn(3)]
			b := rec(kind, w, cur).addr(addrs[r.Intn(len(addrs))]).at(uint32(r.Intn(30)))
			for i := range b.r.Vals {
				b.r.Vals[i] = uint64(r.Intn(3))
			}
			out = append(out, b.rec())
		case op < 7 && depth[w] == 0 && popcnt(cur) >= 2: // diverge
			var first uint32
			for first == 0 || first == cur {
				first = cur & uint32(r.Intn(16))
			}
			out = append(out, rec(trace.OpIf, w, first).rec())
			pending[w] = cur &^ first
			masks[w] = append(masks[w], first)
			depth[w] = 1
			elseDone[w] = false
		case op < 8 && depth[w] == 1 && !elseDone[w]: // else
			out = append(out, rec(trace.OpElse, w, pending[w]).rec())
			masks[w][len(masks[w])-1] = pending[w]
			elseDone[w] = true
		case op < 9 && depth[w] == 1 && elseDone[w]: // fi
			masks[w] = masks[w][:len(masks[w])-1]
			out = append(out, rec(trace.OpFi, w, masks[w][len(masks[w])-1]).rec())
			depth[w] = 0
		case op < 10: // sync op on a lock location
			kinds := []trace.OpKind{
				trace.OpAcqBlk, trace.OpRelBlk, trace.OpArBlk,
				trace.OpAcqGlb, trace.OpRelGlb, trace.OpArGlb,
			}
			out = append(out, rec(kinds[r.Intn(len(kinds))], w, cur).addr(0x30000).at(uint32(40+r.Intn(5))).rec())
		default: // barrier over a block if both warps converged
			blk := r.Intn(2)
			w0, w1 := blk*2, blk*2+1
			if depth[w0] != 0 || depth[w1] != 0 {
				continue
			}
			out = append(out,
				rec(trace.OpBar, w0, full4).at(50).rec(),
				rec(trace.OpBar, w1, full4).at(50).rec(),
				rec(trace.OpBarRel, w0, 0b11).rec())
		}
	}
	return out
}

func popcnt(m uint32) int {
	n := 0
	for ; m != 0; m >>= 1 {
		n += int(m & 1)
	}
	return n
}

// raceSig is the comparable signature of a static race.
func raceSig(r Race) string {
	return fmt.Sprintf("%v/%v/%d/%d/%v/%v/%v", r.Kind, r.Space, r.Prev.PC, r.Cur.PC,
		r.Prev.Write, r.Cur.Write, r.SameInstr)
}

func TestPropCompressedMatchesFullVC(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		stream := genRandomStream(r, 120)
		dc := newDet(Options{})
		df := newDet(Options{FullVC: true})
		for _, rc := range stream {
			cp1, cp2 := *rc, *rc
			dc.Handle(&cp1)
			df.Handle(&cp2)
		}
		sigs := func(rep *Report) []string {
			var out []string
			for _, rc := range rep.Races {
				out = append(out, raceSig(rc))
			}
			sort.Strings(out)
			return out
		}
		a, b := sigs(dc.Report()), sigs(df.Report())
		if len(a) != len(b) {
			t.Fatalf("seed %d: compressed found %d races, full VC %d\ncompressed: %v\nfull: %v",
				seed, len(a), len(b), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: race sets differ:\ncompressed: %v\nfull: %v", seed, a, b)
			}
		}
	}
}
