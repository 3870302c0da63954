package core

import (
	"fmt"
	"sort"
	"strings"

	"barracuda/internal/logging"
)

// CanonicalDigest renders the queue-count-invariant projection of a
// report: the determinism contract the multi-queue pipeline upholds.
// Two reports of the same kernel run are "equivalent" for caching and
// for the scaling experiments iff their digests are byte-identical.
//
// Every static race is rendered by kind, space, both PCs, access modes
// and sameInstr. Shared-space cells are per-block, every record of a block
// flows through that block's queue in FIFO order, and cross-queue
// happens-before edges are applied in Seq order (awaitSyncTurn), so a
// block's shared-memory detection state evolves identically at any queue
// count, and shared races carry their dynamic count too. Each reader is
// named by its own PC: a read map keeps each reader's PC beside its clock.
//
// Three things stay schedule-dependent, all in global memory, where one
// word is touched from several queues:
//   - a global race's dynamic count (whether an access lands before or
//     after the conflicting epoch is overwritten), which the digest omits;
//   - the block scope of a write–write pair: a word keeps one write epoch,
//     so whether a store races with a writer of its own block or of another
//     turns on which queue's store reached the word last, and so does the
//     same-value gag of a same-block pair (bugsuite's gl-bfs-frontier-racy);
//   - which of one thread's reads a write races with: a word keeps each
//     thread's latest read only, so a write handled between two reads
//     names both lines, one handled after them the later (detector's
//     TestGlobalReaderLinesAcrossQueues). Every line names a read that raced.
//
// The digest keeps the latter two (goldens record their bytes); the suites
// that compare digests across queue counts drop them from global lines
// (bugsuite's provableDigest, bench's queueProvable).
//
// Orientation (which side was "previous" vs "current") is normalized
// away: for a cross-queue pair it depends only on scheduling. The Block
// and Addr fields of a Race are dropped: a static race deduplicates
// dynamic occurrences from every block, and those fields keep whichever
// occurrence was seen first.
//
// The record count is invariant (every record is handled exactly once)
// and is included; the same-value filter count is NOT — the filter fires
// only when a lane's write conflicts with the cell's current write epoch,
// and on a global word that epoch can be overwritten from another queue
// between any two lanes — so SameValueGag stays in the human-readable
// report but out of the digest.
func (r *Report) CanonicalDigest() string {
	type side struct {
		pc            uint32
		write, atomic bool
	}
	type key struct {
		kind      RaceKind
		space     logging.SpaceID
		a, b      side
		sameInstr bool
	}
	counts := make(map[key]int)
	for _, rc := range r.Races {
		a := side{rc.Prev.PC, rc.Prev.Write, rc.Prev.Atomic}
		b := side{rc.Cur.PC, rc.Cur.Write, rc.Cur.Atomic}
		if b.pc < a.pc || (b.pc == a.pc && !b.write && a.write) ||
			(b.pc == a.pc && b.write == a.write && !b.atomic && a.atomic) {
			a, b = b, a
		}
		counts[key{rc.Kind, rc.Space, a, b, rc.SameInstr}] += rc.Count
	}
	lines := make([]string, 0, len(counts)+len(r.Divergences))
	rw := func(s side) string {
		mode := "read"
		switch {
		case s.atomic:
			mode = "atomic"
		case s.write:
			mode = "write"
		}
		return fmt.Sprintf("%d %s", s.pc, mode)
	}
	for k, n := range counts {
		line := fmt.Sprintf("race %s %s {%s | %s} sameInstr=%v",
			k.kind, k.space, rw(k.a), rw(k.b), k.sameInstr)
		if k.space == logging.SpaceShared {
			line += fmt.Sprintf(" x%d", n)
		}
		lines = append(lines, line)
	}
	for _, d := range r.Divergences {
		lines = append(lines, fmt.Sprintf("divergence block=%d warp=%d pc=%d mask=%#x",
			d.Block, d.Warp, d.PC, d.Mask))
	}
	sort.Strings(lines)
	lines = append(lines, fmt.Sprintf("records=%d", r.RecordsSeen))
	return strings.Join(lines, "\n") + "\n"
}

// ExactText renders every field of a race on one line: String's kind,
// space, address and both sides, plus the block, the same-instruction
// flag and the dynamic count.
func (r Race) ExactText() string {
	return fmt.Sprintf("%s block=%d sameInstr=%v count=%d", r.String(), r.Block, r.SameInstr, r.Count)
}

// ExactText renders everything a single-queue run determines about a
// report, one item per line: every race in full (sorted, because Report
// orders ties by map iteration), the barrier divergences in discovery
// order, and the record and same-value counters. Where CanonicalDigest
// is the projection that survives any queue count, this is the whole
// report; the recorded goldens (internal/bugsuite/testdata/README.md)
// compare it byte for byte.
func (r *Report) ExactText() string {
	lines := make([]string, 0, len(r.Races))
	for _, rc := range r.Races {
		lines = append(lines, rc.ExactText())
	}
	sort.Strings(lines)
	for _, d := range r.Divergences {
		lines = append(lines, fmt.Sprintf("%+v", d))
	}
	lines = append(lines, fmt.Sprintf("records=%d samevalue=%d", r.RecordsSeen, r.SameValueGag))
	return strings.Join(lines, "\n") + "\n"
}
