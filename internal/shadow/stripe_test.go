package shadow

import (
	"sync"
	"testing"

	"barracuda/internal/logging"
	"barracuda/internal/vc"
)

// cellCached resolves one cell through the worker cache, as the lock-free
// modes' walk does.
func (m *Memory) cellCached(sc *SpanCache, space logging.SpaceID, block int32, addr uint64) *Cell {
	reg, off := m.RegionFor(sc, space, block, addr)
	return &reg.cells[reg.index(off)]
}

// TestStripedPageIdentity: the same address resolves to the same cell no
// matter which path (cached, uncached, concurrent) found it.
func TestStripedPageIdentity(t *testing.T) {
	m := New(1, 0)
	// Addresses chosen to land in different stripes and pages.
	addrs := []uint64{0, 1 << pageBits, 7 << pageBits, 63 << pageBits, 64 << pageBits, 1<<40 + 5}
	for _, a := range addrs {
		c1 := m.CellFor(logging.SpaceGlobal, -1, a)
		var sc SpanCache
		c2 := m.cellCached(&sc, logging.SpaceGlobal, -1, a)
		c3 := m.cellCached(&sc, logging.SpaceGlobal, -1, a) // cache hit path
		if c1 != c2 || c2 != c3 {
			t.Errorf("addr %#x: cell identity differs across lookup paths", a)
		}
	}
	pages := m.Stats().GlobalPages
	if pages != len(addrs) {
		t.Errorf("global pages = %d, want %d", pages, len(addrs))
	}
}

// TestSpanCacheCrossesPages: a cached worker walking sequentially across
// a page boundary must get cells from both pages, not stale cache hits.
func TestSpanCacheCrossesPages(t *testing.T) {
	m := New(1, 0)
	var sc SpanCache
	boundary := uint64(1<<pageBits) - 2
	var visited []*Cell
	m.SpanCached(&sc, logging.SpaceGlobal, -1, boundary, 4, func(r *Region, idx, _ int) {
		visited = append(visited, &r.cells[idx])
	})
	if len(visited) != 4 {
		t.Fatalf("visited %d cells, want 4", len(visited))
	}
	// First two cells are in page 0, last two in page 1.
	if visited[0] != m.CellFor(logging.SpaceGlobal, -1, boundary) {
		t.Error("cell 0 mismatch")
	}
	if visited[3] != m.CellFor(logging.SpaceGlobal, -1, boundary+3) {
		t.Error("cell 3 mismatch (page boundary crossed incorrectly)")
	}
	if sc.pageID != 1 {
		t.Errorf("cache left on page %d, want 1", sc.pageID)
	}
}

// TestSpanCacheSharedBlockSwitch: the shared-slab cache must miss when
// the block changes.
func TestSpanCacheSharedBlockSwitch(t *testing.T) {
	m := New(4, 64)
	var sc SpanCache
	c0 := m.cellCached(&sc, logging.SpaceShared, 0, 8)
	c1 := m.cellCached(&sc, logging.SpaceShared, 1, 8)
	if c0 == c1 {
		t.Fatal("different blocks share a shadow cell")
	}
	if got := m.cellCached(&sc, logging.SpaceShared, 0, 8); got != c0 {
		t.Error("switching back to block 0 resolved a different cell")
	}
}

// TestConcurrentStripedAllocation hammers page allocation from many
// goroutines; under -race this also proves the copy-on-write publication
// is sound.
func TestConcurrentStripedAllocation(t *testing.T) {
	m := New(1, 0)
	const workers = 8
	const pagesPerWorker = 32
	cells := make([][]*Cell, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc SpanCache
			for i := 0; i < pagesPerWorker; i++ {
				// All workers touch the same pages concurrently.
				addr := uint64(i) << pageBits
				cells[w] = append(cells[w], m.cellCached(&sc, logging.SpaceGlobal, -1, addr))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range cells[w] {
			if cells[w][i] != cells[0][i] {
				t.Fatalf("worker %d page %d: cell identity differs (allocation raced)", w, i)
			}
		}
	}
	pages := m.Stats().GlobalPages
	if pages != pagesPerWorker {
		t.Errorf("global pages = %d, want %d", pages, pagesPerWorker)
	}
}

// TestCellSpinlockMutualExclusion: the CAS spinlock must actually
// exclude concurrent critical sections.
func TestCellSpinlockMutualExclusion(t *testing.T) {
	var c Cell
	const workers = 4
	const iters = 5000
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Lock()
				counter++
				c.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Errorf("counter = %d, want %d (spinlock failed to exclude)", counter, workers*iters)
	}
}

// TestReadTableConcurrentInflation: in the lock-free modes nothing orders
// two cells of one region, so the region's read-map table must be
// published exactly once however many cells inflate at the same moment,
// and every inflation must land in that one table. Workers own disjoint
// cells of many fresh regions and hit each region together; under -race
// this also proves an entry needs no guard beyond its cell's lock.
func TestReadTableConcurrentInflation(t *testing.T) {
	m := New(4, 0)
	const workers, pages, perWorker = 4, 64, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := 0; p < pages; p++ {
				reg, _ := m.RegionFor(nil, logging.SpaceGlobal, -1, uint64(p)<<pageBits)
				for i := 0; i < perWorker; i++ {
					idx := i*workers + w
					c := &reg.cells[idx]
					c.Lock()
					m.InflateReads(reg, idx)[vc.TID(w)] = vc.Clock(p + 1)
					if i%2 == 1 {
						reg.ClearReads(idx)
					}
					c.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	for p := 0; p < pages; p++ {
		reg, _ := m.RegionFor(nil, logging.SpaceGlobal, -1, uint64(p)<<pageBits)
		for idx := 0; idx < workers*perWorker; idx++ {
			kept := idx/workers%2 == 0
			if rd := reg.Readers(idx); kept != (rd[vc.TID(idx%workers)] == vc.Clock(p+1)) || kept != reg.cells[idx].ReadShared {
				t.Fatalf("page %d cell %d: read map %v, ReadShared %v; an inflation went to a table that lost the race", p, idx, rd, reg.cells[idx].ReadShared)
			}
		}
	}
	if n := m.Stats().ReadInflations; n != workers*pages*perWorker {
		t.Errorf("%d read inflations, want %d", n, workers*pages*perWorker)
	}
}
