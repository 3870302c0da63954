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
// The projection has two tiers, matching what is actually provable:
//
// Shared-memory races are rendered exactly — kind, both PCs, access
// modes, sameInstr, and the dynamic count. Shared-space shadow
// cells are per-block, every record of a block flows through that
// block's queue in FIFO order, and cross-queue happens-before edges are
// applied in Seq order (awaitSyncTurn), so a block's shared-memory
// detection state evolves identically at any queue count.
//
// Global-memory races are rendered structurally — kind, space, block,
// sameInstr, the PCs of write/atomic sides, and the *presence* of a
// read side, but not reader PCs and not dynamic counts. A global word
// can be touched from several queues, and the interleaving of those
// touches is real concurrency: the FastTrack-style shadow cell keeps
// one write epoch and a bounded read set with a single PC
// representative, so (a) how many dynamic pairs are witnessed for one
// static race depends on whether an access lands before or after the
// conflicting epoch is overwritten, and (b) a write that races against
// a read-shared cell reports the cell's representative reader, which is
// whichever reader was processed last. Write-side PCs stay exact
// because the write slot always names the actual last conflicting
// writer. This is not an implementation artifact to fix but the
// documented cost of parallel FastTrack detection; the race *set* the
// user sees is the same, its attribution detail for global reads is
// scheduling-dependent. So is the block scope of a global write–write
// pair whose writers all store one value: bugsuite's gl-bfs-frontier-racy
// (warp size 5, four queues) reports `inter-block global {12 write | 12
// write}` in every run and the intra-block line of the same store only
// when the same-value filter did not gag the same-block pair, which turns
// on which queue's store reached the word first. The digest keeps the
// kind — its bytes are recorded in goldens — and the suites that compare
// digests across queue counts drop it from global lines (bugsuite's
// provableDigest).
//
// Orientation (which side was "previous" vs "current") is normalized
// away in both tiers: for a cross-queue pair it depends only on
// scheduling. The Block and Addr fields of a Race are dropped in both
// tiers: a static race deduplicates dynamic occurrences from every
// block, and those fields keep whichever occurrence was seen first.
//
// The record count is invariant (every record is handled exactly once)
// and is included; the same-value filter count is NOT — the filter
// fires only when a lane's write conflicts with the cell's current
// write epoch, and on a global word that epoch can be overwritten from
// another queue between any two lanes — so SameValueGag stays in the
// human-readable report but out of the digest.
//
// The multi-queue stress test and every equivalence suite compare
// reports through this digest.
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
		exact     bool // shared-space tier: count is meaningful
	}
	counts := make(map[key]int)
	for _, rc := range r.Races {
		exact := rc.Space == logging.SpaceShared
		a := side{rc.Prev.PC, rc.Prev.Write, rc.Prev.Atomic}
		b := side{rc.Cur.PC, rc.Cur.Write, rc.Cur.Atomic}
		if !exact {
			// Structural tier: reader PCs are representative-dependent.
			if !a.write && !a.atomic {
				a.pc = 0
			}
			if !b.write && !b.atomic {
				b.pc = 0
			}
		}
		if b.pc < a.pc || (b.pc == a.pc && !b.write && a.write) ||
			(b.pc == a.pc && b.write == a.write && !b.atomic && a.atomic) {
			a, b = b, a
		}
		counts[key{rc.Kind, rc.Space, a, b, rc.SameInstr, exact}] += rc.Count
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
		if s.pc == 0 && !s.write && !s.atomic {
			return mode // structural read side: no PC
		}
		return fmt.Sprintf("%d %s", s.pc, mode)
	}
	for k, n := range counts {
		line := fmt.Sprintf("race %s %s {%s | %s} sameInstr=%v",
			k.kind, k.space, rw(k.a), rw(k.b), k.sameInstr)
		if k.exact {
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
