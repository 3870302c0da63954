package shadow

import (
	"sync"
	"testing"

	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/vc"
)

// TestGlobalCellIdentity: one address, one cell; at 1-byte granularity
// the bytes of a word share the word cell until the first sub-word access
// refines the page.
func TestGlobalCellIdentity(t *testing.T) {
	m := New(1, 0, spanTestGeo())
	c1 := m.CellFor(logging.SpaceGlobal, -1, 0x10000)
	c2 := m.CellFor(logging.SpaceGlobal, -1, 0x10000)
	if c1 != c2 {
		t.Error("same address produced different cells")
	}
	if c3 := m.CellFor(logging.SpaceGlobal, -1, 0x10001); c1 != c3 {
		t.Error("bytes of one word have different cells before any sub-word access")
	}
	m.Span(logging.SpaceGlobal, -1, 0x10001, 1, func(*Region, int, int) {})
	c1 = m.CellFor(logging.SpaceGlobal, -1, 0x10000)
	if c3 := m.CellFor(logging.SpaceGlobal, -1, 0x10001); c1 == c3 {
		t.Error("adjacent addresses share a cell at 1-byte granularity after refinement")
	}
}

func TestGranularity4(t *testing.T) {
	m := New(4, 0, spanTestGeo())
	c1 := m.CellFor(logging.SpaceGlobal, -1, 0x10000)
	c2 := m.CellFor(logging.SpaceGlobal, -1, 0x10003)
	if c1 != c2 {
		t.Error("same word produced different cells at 4-byte granularity")
	}
	c3 := m.CellFor(logging.SpaceGlobal, -1, 0x10004)
	if c1 == c3 {
		t.Error("different words share a cell")
	}
}

func TestSharedCellPerBlock(t *testing.T) {
	m := New(1, 128, spanTestGeo())
	b0 := m.CellFor(logging.SpaceShared, 0, 16)
	b1 := m.CellFor(logging.SpaceShared, 1, 16)
	if b0 == b1 {
		t.Error("shared shadow not block-private")
	}
	again := m.CellFor(logging.SpaceShared, 0, 16)
	if b0 != again {
		t.Error("shared cell identity unstable")
	}
}

func TestPageAllocationOnDemand(t *testing.T) {
	m := New(1, 0, spanTestGeo())
	if p := m.Stats().GlobalPages; p != 0 {
		t.Fatalf("pages = %d before any access", p)
	}
	m.CellFor(logging.SpaceGlobal, -1, 0x10000)
	m.CellFor(logging.SpaceGlobal, -1, 0x10008)   // same page
	m.CellFor(logging.SpaceGlobal, -1, 0x2000000) // different page
	if p := m.Stats().GlobalPages; p != 2 {
		t.Errorf("pages = %d, want 2", p)
	}
}

// TestSpanVisitsEachByte: a 4-byte access that is not a whole word
// refines the page and visits each of its byte cells once.
func TestSpanVisitsEachByte(t *testing.T) {
	m := New(1, 0, spanTestGeo())
	var visited []*Cell
	m.Span(logging.SpaceGlobal, -1, 0x10001, 4, func(r *Region, idx, _ int) {
		visited = append(visited, &r.cells[idx])
	})
	if len(visited) != 4 {
		t.Fatalf("span visited %d cells, want 4", len(visited))
	}
	seen := map[*Cell]bool{}
	for _, c := range visited {
		if seen[c] {
			t.Error("span visited a cell twice")
		}
		seen[c] = true
	}
}

func TestSpanGranularityAligned(t *testing.T) {
	m := New(4, 0, spanTestGeo())
	count := 0
	// An unaligned 4-byte access spanning two words visits both cells.
	m.Span(logging.SpaceGlobal, -1, 0x10002, 4, func(*Region, int, int) { count++ })
	if count != 2 {
		t.Errorf("span visited %d cells, want 2", count)
	}
}

// TestCellReadInflation: the read-map lifecycle through the region's side
// table (guarded by the region lock; nothing else is touching this
// region).
func TestCellReadInflation(t *testing.T) {
	m := New(1, 0, spanTestGeo())
	reg, _ := m.RegionFor(nil, logging.SpaceGlobal, -1, 0)
	c := &reg.cells[7]
	c.R = vc.Epoch{T: 1, C: 5}
	if reg.Readers(7) != nil {
		t.Error("a read map before any inflation")
	}
	readers := m.InflateReads(reg, 7)
	if !c.ReadShared || readers[1] != 5 || readMaps(reg) != 1 {
		t.Errorf("inflation lost epoch: shared=%v readers=%v", c.ReadShared, readers)
	}
	readers[2] = 6
	if again := m.InflateReads(reg, 7); len(again) != 2 || len(reg.Readers(7)) != 2 { // idempotent
		t.Errorf("double inflation: %+v", again)
	}
	if reg.Readers(8) != nil {
		t.Error("a cell that never inflated has a read map")
	}
	reg.ClearReads(7)
	if c.ReadShared || reg.Readers(7) != nil || readMaps(reg) != 0 || !c.R.IsZero() {
		t.Errorf("clear failed: shared=%v table=%v r=%v", c.ReadShared, readMaps(reg), c.R)
	}
	if st := m.Stats(); st.ReadInflations != 1 || st.CellBytes != int(cellBytes) {
		t.Errorf("stats %+v, want 1 read inflation and the cell size", st)
	}
}

func TestConcurrentCellAllocation(t *testing.T) {
	m := New(1, 64, spanTestGeo())
	var wg sync.WaitGroup
	cells := make([]*Cell, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cells[i] = m.CellFor(logging.SpaceGlobal, -1, 0x50000)
		}(i)
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if cells[i] != cells[0] {
			t.Fatal("racing allocations produced distinct cells")
		}
	}
}

func testGeo() ptvc.Geometry { return ptvc.Geometry{WarpSize: 4, BlockSize: 8, Blocks: 2} }

func TestSyncLocBlockScope(t *testing.T) {
	m := New(1, 0, spanTestGeo())
	k := Key{Space: logging.SpaceGlobal, Block: -1, Addr: 0x10000}
	s := m.SyncFor(k)
	if m.SyncFor(k) != s {
		t.Fatal("SyncFor identity unstable")
	}
	g := ptvc.NewGroup(testGeo(), 0, 0xF)
	snap := g.Snapshot(0)
	s.ReleaseBlock(0, snap)
	if got := s.AcquireBlock(0); len(got) != 1 || got[0] != snap {
		t.Errorf("AcquireBlock(0) = %v", got)
	}
	// A block-scoped release in block 0 is invisible to an acquire in
	// block 1 (the membar.cta litmus result).
	if got := s.AcquireBlock(1); len(got) != 0 {
		t.Errorf("AcquireBlock(1) = %v, want empty", got)
	}
	// But a global acquire joins all blocks' entries.
	if got := s.AcquireGlobal(2); len(got) != 1 {
		t.Errorf("AcquireGlobal = %v", got)
	}
}

func TestSyncLocGlobalScope(t *testing.T) {
	m := New(1, 0, spanTestGeo())
	s := m.SyncFor(Key{Addr: 0x20000, Block: -1})
	g := ptvc.NewGroup(testGeo(), 0, 0xF)
	s.ReleaseBlock(0, g.Snapshot(0))
	g.EndInstr()
	gl := g.Snapshot(1)
	s.ReleaseGlobal(gl)
	// Global release replaces every block's entry.
	for b := 0; b < 2; b++ {
		got := s.AcquireBlock(b)
		if len(got) != 1 || got[0] != gl {
			t.Errorf("AcquireBlock(%d) after global release = %v", b, got)
		}
	}
	// A block release after a global release REPLACES S_x[b] for that
	// block (the formal rules use strong updates).
	g.EndInstr()
	blk := g.Snapshot(2)
	s.ReleaseBlock(1, blk)
	got := s.AcquireBlock(1)
	if len(got) != 1 || got[0] != blk {
		t.Errorf("AcquireBlock(1) = %v, want just the block override", got)
	}
	// Block 0 still sees the global release.
	if got := s.AcquireBlock(0); len(got) != 1 || got[0] != gl {
		t.Errorf("AcquireBlock(0) = %v, want the global snap", got)
	}
	// A global acquire joins the override and (since block 0 still
	// holds it) the global entry.
	if got := s.AcquireGlobal(2); len(got) != 2 {
		t.Errorf("AcquireGlobal = %d snaps, want 2", len(got))
	}
	// Once every block is overridden, the stale global entry drops out.
	s.ReleaseBlock(0, blk)
	if got := s.AcquireGlobal(2); len(got) != 2 {
		t.Errorf("AcquireGlobal after full override = %d snaps, want 2 per-block", len(got))
	}
}

func TestPeekSyncDoesNotCreate(t *testing.T) {
	m := New(1, 0, spanTestGeo())
	k := Key{Addr: 0x30000, Block: -1}
	if m.PeekSync(k) != nil {
		t.Error("PeekSync invented a location")
	}
	m.SyncFor(k)
	if m.PeekSync(k) == nil {
		t.Error("PeekSync missed an existing location")
	}
	if n := m.Stats().SyncLocs; n != 1 {
		t.Errorf("sync locs = %d, want 1", n)
	}
}
