package shadow

import "sync"

// slabCells is the length of the one slab size worth recycling: a global
// page at the word granule (16 384 cells, 384 KiB), which is every page of a
// word-only program and so nearly every slab a run allocates.
const slabCells = PageBytes / wordGranule

// maxPooledSlabs bounds the free list (96 MiB of cells). The largest of
// the 26 paper programs holds 164 page slabs at once; a list of 64 left it
// faulting in a hundred fresh ones per job and read 7–10 % slower there.
const maxPooledSlabs = 256

// slabPool is a free list of page slabs. A fresh 384 KiB slab is 96 page
// faults on first touch — ten times what clearing a resident one costs —
// and a detection run's heap is handed back to the OS between jobs, so the
// slabs of a finished run (Memory.Release) are kept for the next one. It is
// a plain bounded list and not a sync.Pool because the collector empties a
// sync.Pool at every cycle, and the cycles fall between jobs, which is when
// the slabs are wanted.
type slabPool struct {
	mu              sync.Mutex
	free            [][]Cell
	recycled, fresh uint64
}

// slabs is the process's pool: a slab carries nothing of the Memory that
// last used it (take clears it, Region state lives outside the cells), so
// every shadow in the process shares one list.
var slabs slabPool

// take returns an all-zero page slab: a recycled one, cleared, when the
// list has one, and a fresh allocation otherwise.
func (p *slabPool) take() []Cell {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.fresh++
		p.mu.Unlock()
		return make([]Cell, slabCells)
	}
	s := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.recycled++
	p.mu.Unlock()
	clear(s)
	return s
}

// put offers a slab nothing references any more. Only page slabs are
// kept, and only up to the bound; the rest is the collector's.
func (p *slabPool) put(s []Cell) {
	if len(s) != slabCells {
		return
	}
	p.mu.Lock()
	if len(p.free) < maxPooledSlabs {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}

// PoolStats is the slab pool's census: page slabs handed out recycled and
// freshly allocated since the process started, and the bytes the free list
// holds right now.
type PoolStats struct {
	SlabsRecycled uint64 `json:"slabs_recycled"`
	SlabsFresh    uint64 `json:"slabs_fresh"`
	PoolBytes     int64  `json:"slab_pool_bytes"`
}

func (p *slabPool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{SlabsRecycled: p.recycled, SlabsFresh: p.fresh, PoolBytes: int64(len(p.free)) * slabCells * cellBytes}
}

// SlabPoolStats reports the process-wide slab pool.
func SlabPoolStats() PoolStats { return slabs.stats() }

// Release ends the shadow's life: the page slabs go back to the pool for
// the next run and both tables are emptied. Call it once no goroutine uses
// the shadow any more; an access after it panics rather than quietly
// checking against cells another run now owns.
func (m *Memory) Release() {
	m.released.Store(true)
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		if pm := s.pages.Swap(nil); pm != nil {
			for _, r := range *pm {
				slabs.put(r.cells)
				r.cells = nil
			}
		}
		s.mu.Unlock()
	}
	m.sharedMu.Lock()
	if bm := m.sharedPtr.Swap(nil); bm != nil {
		for _, r := range *bm {
			r.cells = nil
		}
	}
	m.sharedMu.Unlock()
}
