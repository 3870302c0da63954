package core

import (
	"strings"
	"testing"

	"barracuda/internal/trace"
)

// TestWorkerShardMerge: counters recorded through every worker shard
// must all appear in Report and FormatHistogram.
func TestWorkerShardMerge(t *testing.T) {
	d := New(testGeo(), 256, Options{})
	w0 := d.NewWorker()
	w1 := d.NewWorker()

	// Block 0 through w0, block 1 through w1.
	w0.Handle(rec(trace.OpWrite, 0, full4).at(10).stride(0x100).rec())
	w0.Handle(rec(trace.OpRead, 0, full4).at(11).stride(0x100).rec())
	w1.Handle(rec(trace.OpWrite, 2, full4).at(12).stride(0x200).rec())
	w1.Handle(rec(trace.OpRead, 2, full4).at(13).stride(0x200).rec())

	rep := d.Report()
	if rep.RecordsSeen != 4 {
		t.Errorf("RecordsSeen = %d, want 4 (shards not merged)", rep.RecordsSeen)
	}
	if rep.HasRaces() {
		t.Errorf("unexpected races: %v", rep.Races)
	}
	var total uint64
	for _, n := range d.FormatHistogram() {
		total += n
	}
	if total != 4 {
		t.Errorf("format histogram total = %d, want 4 (memory records)", total)
	}
}

// TestWorkerSameValueShard: the same-value filter count lands in the
// worker shard and is merged into the report.
func TestWorkerSameValueShard(t *testing.T) {
	d := newDet(Options{})
	w := d.NewWorker()
	// Two lanes of one warp write the same value to one address in the
	// same instruction: filtered, not a race.
	w.Handle(rec(trace.OpWrite, 0, 0x3).at(20).addr(0x40).vals(7, 7).rec())
	rep := d.Report()
	if rep.HasRaces() {
		t.Fatalf("same-value write reported as race: %v", rep.Races)
	}
	// One filtered pair per covered shadow cell: Size=4 at granularity 1.
	if rep.SameValueGag != 4 {
		t.Errorf("SameValueGag = %d, want 4", rep.SameValueGag)
	}
}

// TestWorkerWarpCacheConsistency: the worker's last-warp cache must
// return the same mirror the detector owns, across warp switches.
func TestWorkerWarpCacheConsistency(t *testing.T) {
	d := newDet(Options{})
	w := d.NewWorker()
	for i := 0; i < 3; i++ {
		for warp := 0; warp < 4; warp++ {
			w.Handle(rec(trace.OpWrite, warp, full4).at(uint32(30 + warp)).stride(uint64(0x1000 * warp)).rec())
		}
	}
	for warp := 0; warp < 4; warp++ {
		if w.warp(warp) != d.warp(warp) {
			t.Errorf("warp %d: cached mirror differs from detector's", warp)
		}
	}
	if rep := d.Report(); rep.HasRaces() {
		t.Errorf("unexpected races: %v", rep.Races)
	}
}

// TestCanonicalDigestOrientationInvariant: the digest must be identical
// whichever side of a race was processed first.
func TestCanonicalDigestOrientationInvariant(t *testing.T) {
	// Orientation A: warp 0 (block 0) writes, then warp 2 (block 1)
	// writes the same global address — inter-block, prev = warp 0.
	dA := newDet(Options{})
	dA.Handle(rec(trace.OpWrite, 0, 0x1).at(10).addr(0x80).rec())
	dA.Handle(rec(trace.OpWrite, 2, 0x1).at(20).addr(0x80).rec())

	// Orientation B: same two accesses, opposite processing order.
	dB := newDet(Options{})
	dB.Handle(rec(trace.OpWrite, 2, 0x1).at(20).addr(0x80).rec())
	dB.Handle(rec(trace.OpWrite, 0, 0x1).at(10).addr(0x80).rec())

	a, b := dA.Report(), dB.Report()
	if !a.HasRaces() || !b.HasRaces() {
		t.Fatalf("races not detected: A=%d B=%d", a.RaceCount(), b.RaceCount())
	}
	da, db := a.CanonicalDigest(), b.CanonicalDigest()
	if da != db {
		t.Errorf("digest depends on processing order:\n--- A ---\n%s--- B ---\n%s", da, db)
	}
	if !strings.Contains(da, "inter-block") {
		t.Errorf("digest missing race kind:\n%s", da)
	}
}

// TestCanonicalDigestReadWriteOrientation: a read/write pair detected in
// either orientation (write-sees-reader vs read-sees-writer) merges to
// the same digest line.
func TestCanonicalDigestReadWriteOrientation(t *testing.T) {
	dA := newDet(Options{})
	dA.Handle(rec(trace.OpRead, 0, 0x1).at(10).addr(0x80).rec())
	dA.Handle(rec(trace.OpWrite, 2, 0x1).at(20).addr(0x80).rec())

	dB := newDet(Options{})
	dB.Handle(rec(trace.OpWrite, 2, 0x1).at(20).addr(0x80).rec())
	dB.Handle(rec(trace.OpRead, 0, 0x1).at(10).addr(0x80).rec())

	da, db := dA.Report().CanonicalDigest(), dB.Report().CanonicalDigest()
	if da != db {
		t.Errorf("read/write orientation not normalized:\n--- A ---\n%s--- B ---\n%s", da, db)
	}
}

// TestCanonicalDigestTiers: every race is digested with both PCs,
// global reader PCs included — a read map keeps each reader's own PC, so
// a write that races with two concurrent readers names each reader's
// line — and only shared-space races carry their dynamic count, which on
// a cross-queue global word is scheduling-dependent.
func TestCanonicalDigestTiers(t *testing.T) {
	d := newDet(Options{})
	// Shared: two warps of block 0, unsynchronized write-write.
	d.Handle(rec(trace.OpWrite, 0, 0x1).at(10).addr(0x80).shared().rec())
	d.Handle(rec(trace.OpWrite, 1, 0x1).at(20).addr(0x80).shared().rec())
	// Global: blocks 0 and 1 read the same word at two lines, which
	// inflates its read map; the other warp of block 0 writes it.
	d.Handle(rec(trace.OpRead, 0, 0x1).at(30).addr(0x200).rec())
	d.Handle(rec(trace.OpRead, 2, 0x1).at(35).addr(0x200).rec())
	d.Handle(rec(trace.OpWrite, 1, 0x1).at(40).addr(0x200).rec())
	dig := d.Report().CanonicalDigest()
	if !strings.Contains(dig, "shared {10 write | 20 write} sameInstr=false x") {
		t.Errorf("shared race not digested exactly:\n%s", dig)
	}
	for _, want := range []string{"global {30 read | 40 write} sameInstr=false\n", "global {35 read | 40 write} sameInstr=false\n"} {
		if !strings.Contains(dig, want) {
			t.Errorf("global race %q not digested with its reader's PC and without a count:\n%s", want, dig)
		}
	}
}

// TestCanonicalDigestDistinguishesRaces: different static races must not
// collapse into one digest line.
func TestCanonicalDigestDistinguishesRaces(t *testing.T) {
	d := newDet(Options{})
	d.Handle(rec(trace.OpWrite, 0, 0x1).at(10).addr(0x80).rec())
	d.Handle(rec(trace.OpWrite, 2, 0x1).at(20).addr(0x80).rec())
	d.Handle(rec(trace.OpWrite, 0, 0x1).at(11).addr(0x180).rec())
	d.Handle(rec(trace.OpWrite, 1, 0x1).at(21).addr(0x180).rec())
	dig := d.Report().CanonicalDigest()
	if n := strings.Count(dig, "race "); n != 2 {
		t.Errorf("digest has %d race lines, want 2:\n%s", n, dig)
	}
}
