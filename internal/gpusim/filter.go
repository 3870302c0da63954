package gpusim

import (
	"fmt"
	"math/bits"

	"barracuda/internal/logging"
	"barracuda/internal/trace"
)

// Producer-side epoch filtering.
//
// The detector's FastTrack cost is dominated by event volume, and in loop
// bodies the overwhelming majority of records are same-interval repeats of
// records the warp already emitted. This file suppresses such repeats at
// the producer — before the record is enqueued, shipped, or shadow-probed
// — under conditions that make the suppression provably invisible to the
// detector's canonical report:
//
//   - Only plain global-space read/write records are candidates. Shared
//     races are digested exactly (both PCs and dynamic counts), so shared
//     records always flow through; local accesses are never logged.
//   - A record is suppressed only if the same warp emitted a record with
//     identical (PC, op, size, mask, address shape) in the current
//     *generation*: a per-warp counter bumped by every event that can
//     change the warp's vector clock or group structure (sync accesses,
//     barriers and barrier releases, atomics, divergence events, launch
//     boundaries). Within one generation no other agent can acquire
//     knowledge of this warp's clock line, so the clock values the
//     suppressed duplicate would have installed are indistinguishable
//     from the retained original's.
//   - Reads additionally require that *no* global write/atomic/sync
//     record was emitted by anyone since the original (engine-wide
//     fWriteEpoch): otherwise an intervening write could have cleared or
//     replaced the warp's reader entry and the duplicate would have
//     re-registered it, changing which races a later writer reports.
//   - Writes additionally require that no global record of any kind was
//     emitted since the original (fAccessEpoch), and that the record's
//     lanes provably touch pairwise-disjoint shadow cells (coalesced
//     full-stride with cell-aligned granularity, or a single lane), so
//     the same-value gag counters cannot drift. Atomics are never
//     suppressed.
//
// Under these gates a suppressed record sees exactly the cell state its
// original saw, reports only races whose dedup keys were already
// reported, and installs only clock values that are invisible within the
// generation — so race reports, CanonicalDigest, and the same-value
// counters are byte-identical to the unfiltered run. The only observable
// difference would be the per-warp record/format counters; those are
// reconciled by emitting a trace.OpFlush record (Seq = suppressed count)
// before any event that changes the warp's clock or format, and at warp
// exit.
//
// A static tier sits in front of the dynamic cache: instrumentation marks
// global read sites whose address is a launch-structural affine constant
// per lane and that sit in a barrier/fence/atomic-free natural loop
// (ptx.Instr.LogOnce). On a generation/epoch/mask hit at such a site the
// record is never even built — no per-lane address or value computation —
// with a one-lane defensive address check backing the static proof.

// filterSlots is the per-warp dynamic cache size. Direct-mapped; loop
// bodies have few distinct sites, so small is plenty, and correctness
// never depends on retention (a miss just emits).
const filterSlots = 64

// fslot is one dynamic filter-cache entry.
type fslot struct {
	gen  uint64 // warp generation at install
	ep   uint64 // interference epoch at install (see probe)
	base uint64 // coalesced base / broadcast address
	pc   uint32
	mask uint32
	sig  uint32 // size | write-bit | broadcast-bit
}

// onceSlot is the dedicated cache entry for a static log-once site.
type onceSlot struct {
	gen  uint64
	wep  uint64 // fWriteEpoch at install
	base uint64 // first active lane's address (defensive check)
	mask uint32
}

const (
	fsigWrite = 1 << 8
	fsigBcast = 1 << 9
)

// filterFlush reconciles the warp's pending suppressed count with the
// detector via an OpFlush record. Uses its own scratch record so callers
// may already be holding e.rec half-built.
func (e *engine) filterFlush(w *warpState) {
	if w.fpend == 0 {
		return
	}
	header(&e.frec, w.gwid, w.blk.idx, trace.OpFlush, 0)
	e.frec.Seq = w.fpend
	w.fpend = 0
	e.cfg.Sink.Emit(&e.frec)
	e.stats.Records++
	e.stats.Filter.Flushes++
}

// filterBump flushes the pending count and starts a new generation,
// invalidating every cache slot of the warp in O(1).
func (e *engine) filterBump(w *warpState) {
	e.filterFlush(w)
	w.fgen++
}

// filterProbe checks the dynamic cache for an equivalent record emitted by
// this warp in the current generation with no invalidating interference,
// reporting whether rec may be suppressed. On a miss the slot is
// (re)installed for the record about to be emitted.
func (e *engine) filterProbe(w *warpState, rec *logging.Record, base uint64, bcast bool) bool {
	e.stats.Filter.Probes++
	if w.fslots == nil {
		w.fslots = make([]fslot, filterSlots)
	}
	sig := uint32(rec.Size)
	// Reads survive until any global write appears; writes only until any
	// global access appears. The slot stores the epoch value the world
	// will have right after this record is emitted, so an immediate
	// repeat matches.
	ep := e.fWriteEpoch
	if rec.Op == trace.OpWrite {
		sig |= fsigWrite
		ep = e.fAccessEpoch + 1
	}
	if bcast {
		sig |= fsigBcast
	}
	idx := (rec.PC ^ uint32(base>>4) ^ uint32(base>>36)) & (filterSlots - 1)
	s := &w.fslots[idx]
	if s.gen == w.fgen && s.ep == ep && s.pc == rec.PC &&
		s.mask == rec.Mask && s.base == base && s.sig == sig {
		w.fpend++
		e.stats.Filter.Hits++
		return true
	}
	*s = fslot{gen: w.fgen, ep: ep, base: base, pc: rec.PC, mask: rec.Mask, sig: sig}
	return false
}

// execLogFiltered is the ProducerFilter variant of execLog, around the
// same header and fill helpers: the additions are the static log-once
// elision before the record is built, the dynamic cache probe before Emit,
// and the generation/epoch bookkeeping around sync edges.
func (e *engine) execLogFiltered(w *warpState, ci *cInstr, exec uint32) error {
	if ci.logOnce >= 0 && w.fonce != nil {
		s := &w.fonce[ci.logOnce]
		if s.gen == w.fgen && s.wep == e.fWriteEpoch && s.mask == exec &&
			s.base == e.laneAddr(w, bits.TrailingZeros32(exec), &ci.args[0]) {
			// Statically proven repeat: the affine analysis guarantees
			// every lane's address is unchanged (the one-lane compare
			// backs the proof), and the epoch gates guarantee the cell
			// state is unchanged. Skip building the record entirely.
			w.fpend++
			e.stats.Filter.StaticElides++
			return nil
		}
	}
	rec := e.logHeader(w, ci, exec)
	if ci.logBar {
		e.filterBump(w) // the coming block-wide join changes the clock
		e.cfg.Sink.Emit(rec)
		e.stats.Records++
		return nil
	}
	if !ci.logAddrOK {
		return fmt.Errorf("_log.%v without address operand", ci.in.LogK)
	}
	if ci.logSync {
		e.filterBump(w) // acquire/release changes the warp's clock
		e.syncSeq++
		rec.Seq = e.syncSeq
	}
	e.fillLog(w, ci, exec, rec)
	// A statically uniform site that is not a single (coalesced) lane is a
	// broadcast: every lane accesses the first lane's address.
	bcast := ci.uniform && !rec.Coalesced()
	if rec.Op == trace.OpAtom {
		// Atomics mutate cells, clear reader sets, and (per the interval
		// contract) count as sync edges: never suppressed, always bump.
		e.filterBump(w)
	}
	if rec.Space == logging.SpaceGlobal && !ci.logSync {
		suppressible := false
		var base uint64
		switch rec.Op {
		case trace.OpRead:
			switch {
			case rec.Coalesced():
				suppressible, base = true, rec.Base
			case bcast:
				suppressible, base = true, rec.Addrs[bits.TrailingZeros32(exec)]
			}
		case trace.OpWrite:
			// Multi-lane writes must provably keep lanes on disjoint shadow
			// cells or intra-record same-value accounting could drift.
			if rec.Coalesced() && (exec&(exec-1) == 0 ||
				!logging.LanesMayShareCell(rec.Base, int64(rec.Size), rec.Size, e.fGran)) {
				suppressible, base = true, rec.Base
			}
		}
		if suppressible && e.filterProbe(w, rec, base, bcast) {
			return nil
		}
	}
	e.cfg.Sink.Emit(rec)
	e.stats.Records++
	if rec.Space == logging.SpaceGlobal {
		// Interference epochs count *emitted* global records: anything
		// that may mutate global shadow cells invalidates read slots, and
		// any global record at all invalidates write slots.
		if rec.Op != trace.OpRead {
			e.fWriteEpoch++
		}
		e.fAccessEpoch++
	}
	if ci.logOnce >= 0 {
		if w.fonce == nil {
			w.fonce = make([]onceSlot, e.lk.nOnce)
		}
		w.fonce[ci.logOnce] = onceSlot{
			gen:  w.fgen,
			wep:  e.fWriteEpoch,
			base: rec.Addrs[bits.TrailingZeros32(exec)],
			mask: exec,
		}
	}
	return nil
}
