package shadow

import (
	"sync"
	"testing"

	"barracuda/internal/logging"
	"barracuda/internal/vc"
)

// cellCached is CellFor through a worker cache.
func (m *Memory) cellCached(sc *SpanCache, space logging.SpaceID, block int32, addr uint64) *Cell {
	reg, off := m.RegionFor(sc, space, block, addr)
	reg.Lock()
	defer reg.Unlock()
	idx, _ := reg.CellRange(off, 1)
	return &reg.cells[min(idx, len(reg.cells)-1)]
}

// TestStripedPageIdentity: the same address resolves to the same cell no
// matter which path (cached, uncached, concurrent) found it.
func TestStripedPageIdentity(t *testing.T) {
	m := New(1, 0, spanTestGeo())
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
	m := New(1, 0, spanTestGeo())
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
	m := New(4, 64, spanTestGeo())
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
	m := New(1, 0, spanTestGeo())
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

// TestRegionLockMutualExclusion: the region spinlock is the one lock
// every cell is accessed under, so it must exclude concurrent critical
// sections — a plain per-region counter and the read-map side table, which
// the first inflation creates under that lock. Workers inflate disjoint
// cells of many fresh regions at the same moment; under -race this also
// proves the table needs no guard beyond the region lock.
func TestRegionLockMutualExclusion(t *testing.T) {
	m := New(4, 0, spanTestGeo())
	const workers, pages, perWorker = 4, 64, 8
	var counters [pages]int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := 0; p < pages; p++ {
				reg, _ := m.RegionFor(nil, logging.SpaceGlobal, -1, uint64(p)<<pageBits)
				for i := 0; i < perWorker; i++ {
					idx := i*workers + w
					reg.Lock()
					counters[p]++
					m.InflateReads(reg, idx)[vc.TID(w)] = vc.Clock(p + 1)
					if i%2 == 1 {
						reg.ClearReads(idx)
					}
					reg.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	for p := 0; p < pages; p++ {
		if counters[p] != workers*perWorker {
			t.Errorf("page %d: counter = %d, want %d (region lock failed to exclude)", p, counters[p], workers*perWorker)
		}
		reg, _ := m.RegionFor(nil, logging.SpaceGlobal, -1, uint64(p)<<pageBits)
		for idx := 0; idx < workers*perWorker; idx++ {
			kept := idx/workers%2 == 0
			if rd := reg.Readers(idx); kept != (rd[vc.TID(idx%workers)] == vc.Clock(p+1)) || kept != reg.cells[idx].ReadShared {
				t.Fatalf("page %d cell %d: read map %v, ReadShared %v; an inflation was lost", p, idx, rd, reg.cells[idx].ReadShared)
			}
		}
	}
	if n := m.Stats().ReadInflations; n != workers*pages*perWorker {
		t.Errorf("%d read inflations, want %d", n, workers*pages*perWorker)
	}
}
