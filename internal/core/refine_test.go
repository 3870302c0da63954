package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/shadow"
	"barracuda/internal/trace"
)

// laneRec builds one classified single-lane record.
func laneRec(op trace.OpKind, warp uint32, lane int, addr uint64, size uint8, pc uint32) *logging.Record {
	r := &logging.Record{Op: op, Warp: warp, Block: warp / 2, Space: logging.SpaceGlobal, Size: size, PC: pc, Mask: 1 << uint(lane)}
	r.Addrs[lane] = addr
	r.Vals[lane] = uint64(lane)
	r.Classify()
	return r
}

// exactRun drains a stream through one configuration, single worker, and
// renders the discovery order (OnRace), the exact report and whether the
// MaxRaces cap dropped anything the same way.
func exactRun(geo ptvc.Geometry, recs []*logging.Record, opts Options) (string, *Detector) {
	out := "discovered:\n"
	opts.OnRace = func(rc Race) { out += rc.ExactText() + "\n" }
	d := New(geo, 1024, opts)
	w := d.NewWorker()
	for _, r := range recs {
		cp := *r
		w.Handle(&cp)
	}
	return out + "report:\n" + d.Report().ExactText(), d
}

// TestRefineLiveState refines a page at the moment it holds everything a
// region can hold — a live write summary, a cell with an inflated read
// map and a block ownership claim — and checks that the byte store that
// caused it is convicted by the replicated read map exactly as the
// per-cell baseline convicts it.
func TestRefineLiveState(t *testing.T) {
	geo := ptvc.Geometry{WarpSize: 32, BlockSize: 64, Blocks: 2}
	recs := []*logging.Record{
		spanRec(trace.OpWrite, 0, 0, 4, 1),     // summary over words [0, 32); warp 0 claims the page
		laneRec(trace.OpRead, 0, 0, 400, 4, 2), // read summary on word 100
		laneRec(trace.OpRead, 1, 0, 400, 4, 3), // same block, unordered: demotes it, inflates the read map
	}
	store := laneRec(trace.OpWrite, 1, 3, 401, 1, 4) // first sub-word access: races with warp 0's read

	want, _ := exactRun(geo, append(recs, store), Options{PerCellShadow: true})
	for _, opts := range []Options{{}, {Ownership: true}} {
		_, d := exactRun(geo, recs, opts)
		reg, _ := d.Shadow().RegionFor(nil, logging.SpaceGlobal, -1, 0)
		reg.Lock()
		c := &reg.Cells()[100]
		if reg.Gran() != 4 || len(reg.Sums()) != 1 || reg.Sums()[0].Hi != 32 || !c.ReadShared || len(reg.Readers(100)) != 2 {
			t.Fatalf("%+v: before the byte store: granule %d, sums %+v, word 100 %+v", opts, reg.Gran(), reg.Sums(), c)
		}
		st, id := reg.Owner()
		if opts.Ownership && (st != shadow.OwnBlock || id != 0) {
			t.Fatalf("before the byte store: owner %v/%d, want block/0", st, id)
		}
		reg.Unlock()

		got, d := exactRun(geo, append(recs, store), opts)
		if got != want {
			t.Errorf("%+v: report diverged from the per-cell baseline:\n--- per-cell ---\n%s--- got ---\n%s", opts, want, got)
		}
		reg, _ = d.Shadow().RegionFor(nil, logging.SpaceGlobal, -1, 0)
		reg.Lock()
		if reg.Gran() != 1 || len(reg.Sums()) == 0 || reg.Sums()[0].Lo != 0 || reg.Sums()[0].Hi != 128 {
			t.Errorf("%+v: after the byte store: granule %d, sums %+v; want 1 and the write summary over bytes [0, 128)", opts, reg.Gran(), reg.Sums())
		}
		for b := 400; b < 404; b++ {
			c := &reg.Cells()[b]
			if wrote := b == 401; wrote == c.ReadShared || (!wrote && len(reg.Readers(b)) != 2) {
				t.Errorf("%+v: byte %d after the store: %+v", opts, b, c)
			}
		}
		if st, id := reg.Owner(); opts.Ownership && (st != shadow.OwnBlock || id != 0) {
			t.Errorf("refinement disturbed the ownership claim: %v/%d", st, id)
		}
		reg.Unlock()
		if n := d.Report().Shadow.Refinements; n != 1 {
			t.Errorf("%+v: %d refinements, want 1", opts, n)
		}
	}
	if want == "discovered:\nreport:\nrecords=4 samevalue=0\n" {
		t.Fatal("the baseline found no race; the test proves nothing")
	}
}

// TestRefineWeightedReports: everything a report observes must be what
// the per-byte detector observes, while pages are word-granular, as they
// refine and after — discovery order and the Count-1 snapshots OnRace
// sees, which races a tight MaxRaces keeps, dynamic counts, addresses and
// the same-value counter — on random streams mixing widths 1 to 8.
func TestRefineWeightedReports(t *testing.T) {
	geo := ptvc.Geometry{WarpSize: 32, BlockSize: 64, Blocks: 4}
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	var refined uint64
	for seed := 0; seed < seeds; seed++ {
		stream := propStream(rand.New(rand.NewSource(int64(1000+seed))), geo, 300)
		recs := make([]*logging.Record, len(stream))
		for i := range stream {
			recs[i] = &stream[i]
		}
		for _, gran := range []int{1, 2} {
			for _, max := range []int{0, 3} {
				want, _ := exactRun(geo, recs, Options{Granularity: gran, MaxRaces: max, PerCellShadow: true})
				for _, own := range []bool{false, true} {
					got, d := exactRun(geo, recs, Options{Granularity: gran, MaxRaces: max, Ownership: own})
					if got != want {
						t.Fatalf("seed %d granularity %d MaxRaces %d ownership %v: diverged\n--- per-cell ---\n%s--- span ---\n%s",
							seed, gran, max, own, want, got)
					}
					refined += d.Report().Shadow.Refinements
				}
			}
		}
	}
	if refined == 0 {
		t.Fatal("no stream refined a region; the test proves nothing")
	}
}

// TestRefineConcurrentWorkers is the data-race check of the refinement
// protocol (run under -race in CI): four workers, one per block, hammer
// the SAME shadow pages and one slab each — blocks 0 and 2 with whole-word
// accesses, blocks 1 and 3 with byte and halfword accesses — so pages are
// refined by one goroutine while the others resolve, lock and index them,
// through the per-cell, span and ownership paths alike. Every block keeps
// to its own bytes, so the verdict is known: no race, every record seen,
// every touched page refined exactly once.
func TestRefineConcurrentWorkers(t *testing.T) {
	geo := ptvc.Geometry{WarpSize: 32, BlockSize: 64, Blocks: 4}
	const pages, rounds = 3, 200
	for _, opts := range []Options{{}, {Ownership: true}, {Ownership: true, ShadowCapBytes: 64 << 20}} {
		d := New(geo, 1024, opts)
		var wg sync.WaitGroup
		for blk := 0; blk < geo.Blocks; blk++ {
			wg.Add(1)
			go func(blk int) {
				defer wg.Done()
				w := d.NewWorker()
				rng := rand.New(rand.NewSource(int64(blk)))
				size := uint8(4)
				if blk%2 == 1 {
					size = uint8(1 + blk/2) // block 1: bytes, block 3: halfwords
				}
				for i := 0; i < rounds; i++ {
					r := &logging.Record{
						Op: trace.OpWrite, Warp: uint32(2*blk + i%2), Block: uint32(blk),
						Space: logging.SpaceGlobal, Size: size, PC: uint32(1 + blk), Mask: ^uint32(0),
					}
					if i%3 == 0 {
						r.Op = trace.OpRead
					}
					if i%7 == 0 {
						r.Space = logging.SpaceShared
					}
					// The block's own 1 KiB of a random page (or of its slab).
					base := uint64(rng.Intn(pages))*shadow.PageBytes + uint64(blk)*1024
					if r.Space == logging.SpaceShared {
						base = 0
					}
					// Even rounds are the block's first warp, coalesced, rows 0
					// and 2 of the slice; odd rounds its second warp, strided,
					// rows 1 and 3 (two rows wide): the two unordered warps
					// never meet either.
					stride := uint64(size) * uint64(1+i%2)
					for lane := 0; lane < 32; lane++ {
						r.Addrs[lane] = base + uint64(lane)*stride + uint64(i%4)*uint64(size)*64
					}
					r.Classify()
					w.Handle(r)
				}
			}(blk)
		}
		wg.Wait()
		rep := d.Report()
		if rep.HasRaces() {
			t.Errorf("%+v: races between blocks that share no byte: %v", opts, rep.Races)
		}
		if rep.RecordsSeen != uint64(geo.Blocks*rounds) {
			t.Errorf("%+v: RecordsSeen = %d, want %d", opts, rep.RecordsSeen, geo.Blocks*rounds)
		}
		// Three global pages and the two sub-word blocks' slabs.
		if sh := rep.Shadow; sh.Refinements != pages+2 || sh.WordRegions != 2 || sh.ByteRegions != pages+2 {
			t.Errorf("%+v: %d refinements, %d word and %d byte regions; want %d, 2, %d",
				opts, sh.Refinements, sh.WordRegions, sh.ByteRegions, pages+2, pages+2)
		}
	}
}

// TestReportWeight: one weighted report is weight back-to-back reports.
func TestReportWeight(t *testing.T) {
	geo := ptvc.Geometry{WarpSize: 32, BlockSize: 64, Blocks: 2}
	var seen []string
	d := New(geo, 0, Options{MaxRaces: 1, OnRace: func(rc Race) { seen = append(seen, fmt.Sprint(rc.Count)) }})
	r := laneRec(trace.OpWrite, 0, 0, 64, 4, 9)
	d.report(0, r, 0, true, 70, 5, true, false, false, 4)  // discovers: Count 4, observer saw 1
	d.report(0, r, 0, true, 70, 5, true, false, false, 2)  // bumps by 2
	d.report(0, r, 0, false, 70, 6, true, false, false, 4) // a second race: over MaxRaces, dropped whole
	rep := d.Report()
	if len(rep.Races) != 1 || rep.Races[0].Count != 6 || rep.Races[0].Addr != 64 {
		t.Fatalf("races = %+v, want one with Count 6 at 0x40", rep.Races)
	}
	if len(seen) != 1 || seen[0] != "1" {
		t.Fatalf("OnRace saw counts %v, want one snapshot with Count 1", seen)
	}
}

// TestStridedLockHoldStress: the record-level walk holds a page's lock
// across a run of lanes and swaps it for the next page's in mid-record.
// Four workers, one per block, drive records whose lanes interleave over
// the same three pages — runs of eleven lanes per page (ascending and
// descending strides), one page per lane in rotation, now and then
// halfwords that refine a page under the held lock — all on the same
// words, so every page is contended, read maps inflate in the side
// tables, and under a cap pages are evicted between lanes. The
// canonical digest must equal the one-worker run's and the run must end:
// a walk that waited on a second lock would hang it.
func TestStridedLockHoldStress(t *testing.T) {
	geo := ptvc.Geometry{WarpSize: 32, BlockSize: 32, Blocks: 4}
	const rounds = 240
	stream := func(blk int) []*logging.Record {
		recs := make([]*logging.Record, rounds)
		for i := range recs {
			r := &logging.Record{
				Op: trace.OpWrite, Warp: uint32(blk), Block: uint32(blk),
				Space: logging.SpaceGlobal, Size: 4, PC: 5, Mask: ^uint32(0) >> uint(i%5),
			}
			if (i+blk)%3 == 0 {
				r.Op, r.PC = trace.OpRead, 6
			}
			if i%16 == 13 { // a descending strided record of halfwords
				r.Size = 2
			}
			word := uint64(i%8) * 16 // the same words whichever block
			for lane := 0; lane < 32; lane++ {
				switch i % 4 {
				case 0: // strided: lanes 0-10, 11-21, 22-31 on pages 0, 1, 2
					r.Addrs[lane] = word + uint64(lane)*(3*shadow.PageBytes/32)
				case 1: // the same, descending
					r.Addrs[lane] = word + uint64(31-lane)*(3*shadow.PageBytes/32)
				case 2: // a different page every lane
					r.Addrs[lane] = uint64((lane+i)%3)*shadow.PageBytes + word + uint64(lane)*8
				case 3: // block-private slab: no cross-worker traffic, still one held lock
					r.Space = logging.SpaceShared
					r.Addrs[lane] = uint64(lane) * 12
				}
				r.Vals[lane] = uint64(lane)
			}
			r.Classify()
			recs[i] = r
		}
		return recs
	}
	// The cap is two refined pages: nothing is evicted while the three
	// pages are word-granular (both race kinds are seen by then), and once
	// they have refined one of them is always out.
	for _, capBytes := range []int64{0, 2 * shadow.PageBytes * int64(New(geo, 0, Options{}).Report().Shadow.CellBytes)} {
		opts := Options{ShadowCapBytes: capBytes}
		serial := New(geo, 512, opts)
		w := serial.NewWorker()
		streams := make([][]*logging.Record, geo.Blocks)
		for blk := range streams {
			streams[blk] = stream(blk)
		}
		for i := 0; i < rounds; i++ {
			for blk := range streams {
				cp := *streams[blk][i]
				w.Handle(&cp)
			}
		}
		want := serial.Report()
		if n := strings.Count(want.CanonicalDigest(), "race inter-block global"); n != 2 {
			t.Fatalf("cap %d: the one-worker digest has %d race lines, want the inter-block write-write and read-write pair:\n%s", capBytes, n, want.CanonicalDigest())
		}

		d := New(geo, 512, opts)
		done := make(chan struct{})
		var wg sync.WaitGroup
		for blk := range streams {
			wg.Add(1)
			go func(recs []*logging.Record) {
				defer wg.Done()
				w := d.NewWorker()
				for _, r := range recs {
					cp := *r
					w.Handle(&cp)
				}
			}(streams[blk])
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("cap %d: four workers did not finish: a walk is waiting on a lock", capBytes)
		}
		got := d.Report()
		if got.CanonicalDigest() != want.CanonicalDigest() {
			t.Errorf("cap %d: digest differs from the one-worker run:\n--- one worker ---\n%s--- four ---\n%s", capBytes, want.CanonicalDigest(), got.CanonicalDigest())
		}
		sh := got.Shadow
		if sh.ReadInflations == 0 || sh.Refinements == 0 {
			t.Errorf("cap %d: %d read inflations, %d refinements; the stream should cause both", capBytes, sh.ReadInflations, sh.Refinements)
		}
		if (capBytes > 0) != (sh.Evictions > 0) {
			t.Errorf("cap %d: %d evictions", capBytes, sh.Evictions)
		}
	}
}
