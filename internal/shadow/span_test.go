package shadow

import (
	"testing"

	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/vc"
)

func spanTestGeo() ptvc.Geometry {
	return ptvc.Geometry{WarpSize: 32, BlockSize: 64, Blocks: 4}
}

// region grabs the global region covering addr through SpanRuns — which
// fits it to a coalesced access of size-byte lanes, so a size that is
// not a whole number of words hands back a refined region — and the
// first cell index of the range at the region's granule.
func region(t *testing.T, m *Memory, addr uint64, n, size int) (*Region, int) {
	t.Helper()
	var reg *Region
	lo := -1
	ok := m.SpanRuns(nil, logging.SpaceGlobal, -1, addr, n, size, func(r *Region, l, h, off int) {
		if reg == nil {
			reg, lo = r, l
		}
	})
	if !ok || reg == nil {
		t.Fatalf("SpanRuns refused [%d, %d)", addr, addr+uint64(n))
	}
	return reg, lo
}

// TestMaterializeLayers: demoting a summary must write back the exact
// per-cell state — per-rank write and read epochs, PCs, the atomic bit,
// and no read map.
func TestMaterializeLayers(t *testing.T) {
	geo := spanTestGeo()
	m := New(4, 0, geo)
	reg, lo := region(t, m, 0, 128, 4)

	reg.Lock()
	reg.Install(SpanSum{
		Lo: lo, Hi: lo + 32,
		W:      SpanLayer{Warp: 2, Mask: ^uint32(0), Clock: 7, PC: 9, Size: 4},
		R:      SpanLayer{Warp: 3, Mask: ^uint32(0), Clock: 5, PC: 11, Size: 4},
		Atomic: true,
	})
	reg.Unlock()

	for rank := 0; rank < 32; rank += 7 {
		c := m.CellFor(logging.SpaceGlobal, -1, uint64(rank)*4)
		wantW := vc.Epoch{T: geo.TIDOf(2, rank), C: 7}
		wantR := vc.Epoch{T: geo.TIDOf(3, rank), C: 5}
		if c.W != wantW || c.WritePC != 9 || !c.Atomic {
			t.Errorf("rank %d: W=%+v pc=%d atomic=%v, want %+v pc=9 atomic=true", rank, c.W, c.WritePC, c.Atomic, wantW)
		}
		if c.R != wantR || c.ReadPC != 11 {
			t.Errorf("rank %d: R=%+v pc=%d, want %+v pc=11", rank, c.R, c.ReadPC, wantR)
		}
		if c.ReadShared || readMaps(reg) != 0 {
			t.Errorf("rank %d: materialized cell has a read map", rank)
		}
	}
	reg.Lock()
	if n := len(reg.Sums()); n != 0 {
		t.Errorf("summaries left after demotion: %d", n)
	}
	if !reg.Touched() {
		t.Error("demotion did not mark the region touched")
	}
	reg.Unlock()
}

// TestMaterializeAbsentLayersZero: a summary with a missing layer owns
// its cells completely — demotion must zero whatever stale per-cell
// state sat underneath, including an inflated read map.
func TestMaterializeAbsentLayersZero(t *testing.T) {
	geo := spanTestGeo()
	m := New(1, 0, geo)
	reg, lo := region(t, m, 0, 64, 2) // 2-byte lanes: byte cells

	reg.Lock()
	c0 := &reg.Cells()[lo]
	c0.W = vc.Epoch{T: 5, C: 99}
	c0.WritePC = 42
	c0.Atomic = true
	m.InflateReads(reg, lo)[7] = 3
	reg.Install(SpanSum{
		Lo: lo, Hi: lo + 64,
		R: SpanLayer{Warp: 1, Mask: ^uint32(0), Clock: 2, PC: 6, Size: 2},
	})
	reg.DemoteOverlapping(m, lo, lo+64)
	reg.Unlock()

	if !c0.W.IsZero() || c0.WritePC != 0 || c0.Atomic {
		t.Errorf("absent W layer not zeroed: %+v pc=%d atomic=%v", c0.W, c0.WritePC, c0.Atomic)
	}
	if c0.ReadShared || readMaps(reg) != 0 {
		t.Error("demotion left an inflated read map")
	}
	// gran=1, layer size 2: cells 0 and 1 share rank 0; cells 2,3 rank 1.
	want := vc.Epoch{T: geo.TIDOf(1, 1), C: 2}
	if c := &reg.Cells()[lo+2]; c.R != want || c.ReadPC != 6 {
		t.Errorf("cell 2: R=%+v pc=%d, want %+v pc=6", c.R, c.ReadPC, want)
	}
}

// TestSpanCachedDemotesOverlap: the per-cell fallback path (SpanCached)
// must demote any overlapping summary before handing cells to the
// callback, so per-cell rules never observe summarized state. The page is word-granular (byte granularity, whole-word
// accesses only), so the 4-byte access is one visit that stands for four.
func TestSpanCachedDemotesOverlap(t *testing.T) {
	geo := spanTestGeo()
	m := New(1, 0, geo)
	reg, lo := region(t, m, 256, 128, 4)

	reg.Lock()
	reg.Install(SpanSum{
		Lo: lo, Hi: lo + 32,
		W: SpanLayer{Warp: 0, Mask: ^uint32(0), Clock: 3, PC: 4, Size: 4},
	})
	reg.Unlock()

	var seen []vc.Epoch
	m.SpanCached(nil, logging.SpaceGlobal, -1, 300, 4, func(r *Region, idx, weight int) {
		if weight != 4 {
			t.Errorf("visit weight = %d, want 4 (one word cell for four byte cells)", weight)
		}
		seen = append(seen, r.cells[idx].W)
	})
	if len(seen) != 1 {
		t.Fatalf("visited %d cells, want 1 word cell", len(seen))
	}
	rank := (300 - 256) / 4
	want := vc.Epoch{T: geo.TIDOf(0, rank), C: 3}
	for i, e := range seen {
		if e != want {
			t.Errorf("cell %d: W=%+v, want materialized %+v", i, e, want)
		}
	}
	reg.Lock()
	if len(reg.Sums()) != 0 {
		t.Error("overlapping summary survived a per-cell access")
	}
	reg.Unlock()
}

// TestSpanRunsBoundaries: page-boundary handling — a span crossing the
// 64 KiB page line splits into two runs with correct byte offsets, and
// a boundary that would cut one lane's access in half is refused.
func TestSpanRunsBoundaries(t *testing.T) {
	m := New(1, 0, spanTestGeo())

	type run struct{ lo, hi, off int }
	var runs []run
	ok := m.SpanRuns(nil, logging.SpaceGlobal, -1, 1<<16-64, 128, 4, func(r *Region, lo, hi, off int) {
		runs = append(runs, run{lo, hi, off})
	})
	if !ok || len(runs) != 2 {
		t.Fatalf("page-crossing span: ok=%v runs=%+v", ok, runs)
	}
	if runs[0].off != 0 || runs[1].off != 64 {
		t.Errorf("byte offsets = %d, %d; want 0, 64", runs[0].off, runs[1].off)
	}
	// Whole-word lanes leave both pages word-granular: 64 bytes = 16 cells.
	if runs[0].hi-runs[0].lo != 16 || runs[1].hi-runs[1].lo != 16 {
		t.Errorf("run lengths = %d, %d; want 16, 16", runs[0].hi-runs[0].lo, runs[1].hi-runs[1].lo)
	}

	// addr 65534, size 4: the boundary falls inside lane 0's access.
	if m.SpanRuns(nil, logging.SpaceGlobal, -1, 1<<16-2, 8, 4, func(*Region, int, int, int) {}) {
		t.Error("lane-splitting page boundary accepted")
	}

	// Shared: a run past the slab must be refused (clamping semantics).
	ms := New(1, 64, spanTestGeo())
	if ms.SpanRuns(nil, logging.SpaceShared, 0, 32, 64, 4, func(*Region, int, int, int) {}) {
		t.Error("shared overrun accepted; per-cell clamping must win")
	}
}
