package gpusim

// launchArena pools per-launch simulator state — blockState (shared memory,
// warp states, register/predicate files, lane-private local memory, SIMT
// stacks) plus the scheduler's scratch slices — so a warm kernel launch on
// a reused Module/Session allocates (almost) nothing. Retired blocks go
// onto the free list as waves complete and are re-zeroed on reuse, which
// keeps warm launches bit-identical to cold ones.
//
// Ownership: the arena hangs off the loadedKernel behind an atomic pointer.
// A launch takes sole ownership by swapping the pointer to nil and stores
// it back when it finishes. Launches on one Module are expected to be
// sequential (the detector Session contract; the server's module cache
// serializes jobs per entry) — but if a caller violates that, the loser of
// the swap simply sees nil and allocates fresh state instead of corrupting
// a shared arena.
type launchArena struct {
	// Geometry key: a pooled block is only reusable when the launch shape
	// that produced it matches.
	ws, wpb, bsz  int
	nRegs, nPreds int
	sharedBytes   int64
	localBytes    int64

	free     []*blockState // retired blocks ready for reuse
	resident []*blockState // scheduler scratch, reused across launches
	order    []*warpState  // scheduler scratch, reused across launches
}

// acquireArena takes ownership of the kernel's arena, replacing it when the
// launch geometry changed.
func (e *engine) acquireArena() *launchArena {
	ar := e.lk.arena.Swap(nil)
	if ar == nil ||
		ar.ws != e.ws || ar.wpb != e.wpb || ar.bsz != e.bsz ||
		ar.nRegs != e.lk.nRegs || ar.nPreds != e.lk.nPreds ||
		ar.sharedBytes != e.lk.sharedBytes || ar.localBytes != e.lk.localBytes {
		ar = &launchArena{
			ws: e.ws, wpb: e.wpb, bsz: e.bsz,
			nRegs: e.lk.nRegs, nPreds: e.lk.nPreds,
			sharedBytes: e.lk.sharedBytes, localBytes: e.lk.localBytes,
		}
	}
	return ar
}

// takeBlock pops a pooled block and resets it for a new block index, or
// reports none available.
func (ar *launchArena) takeBlock(e *engine, idx int) (*blockState, bool) {
	n := len(ar.free)
	if n == 0 {
		return nil, false
	}
	blk := ar.free[n-1]
	ar.free = ar.free[:n-1]
	e.resetBlock(blk, idx)
	return blk, true
}

// resetBlock re-zeroes a pooled block's memory and warp state so a reused
// block is indistinguishable from a freshly allocated one.
func (e *engine) resetBlock(blk *blockState, idx int) {
	blk.idx = idx
	clear(blk.shared)
	blk.liveWarp = e.wpb
	for wi, w := range blk.warps {
		w.gwid = idx*e.wpb + wi
		w.baseTID = idx*e.bsz + wi*e.ws
		w.exited = 0
		w.waiting = false
		w.done = false
		w.stack = w.stack[:1]
		w.stack[0] = stackEntry{pc: 0, rpc: -1, mask: w.fullMask, role: roleTop}
		clear(w.regs)
		clear(w.preds)
		clear(w.local)
	}
}
