package shadow

import (
	"testing"

	"barracuda/internal/logging"
	"barracuda/internal/vc"
)

// globalRegion resolves the global region covering addr.
func globalRegion(m *Memory, addr uint64) *Region {
	r, _ := m.RegionFor(nil, logging.SpaceGlobal, -1, addr)
	return r
}

// readMaps counts the side table's live entries (region locked).
func readMaps(reg *Region) (n int) {
	for _, rd := range reg.reads {
		if rd != nil {
			n++
		}
	}
	return n
}

// readersAt returns the side-table read map of cell idx (region locked).
func readersAt(reg *Region, idx int) map[vc.TID]vc.Clock {
	rd := reg.Readers(idx)
	if (rd != nil) != reg.cells[idx].ReadShared {
		panic("side table and ReadShared disagree")
	}
	return rd
}

// TestRefineReplicatesCells: refinement must hand every byte cell of a
// word the word cell's exact metadata — epochs, PCs, the atomic bit and,
// re-keyed in the region's side table, a PRIVATE copy of an inflated read
// map — rescale the summaries' cell ranges, and move the accounting; and
// it must happen exactly once.
func TestRefineReplicatesCells(t *testing.T) {
	geo := spanTestGeo()
	m := New(1, 0, geo)

	// Word 25 (bytes 100..103): a write epoch, then two unordered readers.
	visits := 0
	m.SpanCached(nil, logging.SpaceGlobal, -1, 100, 4, func(r *Region, idx, weight int) {
		visits++
		if weight != 4 || idx != 25 {
			t.Errorf("word cell %d weight %d, want cell 25 weight 4", idx, weight)
		}
		c := &r.cells[idx]
		c.W = vc.Epoch{T: 3, C: 9}
		c.WritePC = 11
		c.Atomic = true
		c.R = vc.Epoch{T: 5, C: 2}
		m.InflateReads(r, idx)[6] = 4
		c.ReadPC = 12
	})
	if visits != 1 {
		t.Fatalf("aligned word access visited %d cells, want 1", visits)
	}
	reg := globalRegion(m, 0)
	reg.Lock()
	if reg.Gran() != 4 || len(reg.Cells()) != PageBytes/4 {
		t.Fatalf("fresh page: granule %d, %d cells; want 4, %d", reg.Gran(), len(reg.Cells()), PageBytes/4)
	}
	// A summary over words [64, 96): 32 lanes of 4 bytes.
	reg.Install(SpanSum{Lo: 64, Hi: 96, W: SpanLayer{Warp: 1, Mask: ^uint32(0), Clock: 7, PC: 8, Size: 4}})
	reg.Unlock()
	if st := m.Stats(); st.WordRegions != 1 || st.ByteRegions != 0 || st.Refinements != 0 ||
		st.ResidentBytes != int64(PageBytes/4)*cellBytes {
		t.Fatalf("stats before refinement: %+v", st)
	}

	// The first sub-word access: one byte of an unrelated word.
	m.SpanCached(nil, logging.SpaceGlobal, -1, 2001, 1, func(_ *Region, _, weight int) {
		if weight != 1 {
			t.Errorf("refined-cell weight = %d, want 1", weight)
		}
	})
	reg.Lock()
	defer reg.Unlock()
	if reg.Gran() != 1 || len(reg.Cells()) != PageBytes {
		t.Fatalf("refined page: granule %d, %d cells; want 1, %d", reg.Gran(), len(reg.Cells()), PageBytes)
	}
	cells := reg.Cells()
	for b := 100; b < 104; b++ {
		c, rd := &cells[b], readersAt(reg, b)
		if c.W != (vc.Epoch{T: 3, C: 9}) || c.WritePC != 11 || !c.Atomic || c.ReadPC != 12 ||
			!c.ReadShared || len(rd) != 2 || rd[5] != 2 || rd[6] != 4 {
			t.Errorf("byte %d: %+v readers %v, want the word cell's metadata", b, c, rd)
		}
	}
	readersAt(reg, 100)[99] = 1
	if _, shared := readersAt(reg, 101)[99]; shared {
		t.Error("byte cells of one word share a read map; refinement must deep-copy it")
	}
	if c := &cells[99]; !c.W.IsZero() || c.ReadShared {
		t.Errorf("byte 99 (the word before) picked up state: %+v", c)
	}
	if table := reg.reads; readMaps(reg) != 4 || len(table) != len(cells) || readersAt(reg, 25) != nil {
		t.Errorf("side table after refinement: %d maps in %d entries, want exactly bytes 100..103 of %d (word index 25 gone)", readMaps(reg), len(table), len(cells))
	}
	if sums := reg.Sums(); len(sums) != 1 || sums[0].Lo != 256 || sums[0].Hi != 384 {
		t.Fatalf("summary range after refinement: %+v, want [256, 384)", sums)
	}
	// Demotion after refinement lays the lanes out per byte.
	reg.DemoteOverlapping(m, 256, 384)
	for _, b := range []int{256, 259, 260, 383} {
		want := vc.Epoch{T: geo.TIDOf(1, (b-256)/4), C: 7}
		if cells[b].W != want || cells[b].WritePC != 8 {
			t.Errorf("byte %d after demotion: W=%+v pc=%d, want %+v pc=8", b, cells[b].W, cells[b].WritePC, want)
		}
	}
	if st := m.Stats(); st.WordRegions != 0 || st.ByteRegions != 1 || st.Refinements != 1 ||
		st.ResidentBytes != int64(PageBytes)*cellBytes || st.PeakResidentBytes != st.ResidentBytes {
		t.Fatalf("stats after refinement: %+v", st)
	}
}

// TestRefineSharedSlabClamp: a word-granular slab holds whole in-slab
// words only. A whole-word access past them refines the slab, and from
// then on out-of-slab bytes clamp to the slab's extra last cell, one
// visit per byte — the very cell sequence of a slab refined up front.
func TestRefineSharedSlabClamp(t *testing.T) {
	const shBytes = 10
	walk := func(m *Memory, addr uint64, size int) []int {
		reg, _ := m.RegionFor(nil, logging.SpaceShared, 0, 0)
		var idx []int
		m.SpanCached(nil, logging.SpaceShared, 0, addr, size, func(r *Region, i, _ int) {
			if r != reg {
				t.Errorf("[%d,+%d): visited a region that is not block 0's slab", addr, size)
			}
			idx = append(idx, i)
		})
		return idx
	}
	m := New(1, shBytes, spanTestGeo())
	reg, _ := m.RegionFor(nil, logging.SpaceShared, 0, 0)
	if reg.Gran() != 4 || len(reg.Cells()) != 2 {
		t.Fatalf("fresh slab: granule %d, %d cells; want 4, 2", reg.Gran(), len(reg.Cells()))
	}
	if got := walk(m, 4, 4); len(got) != 1 || got[0] != 1 || reg.Gran() != 4 {
		t.Fatalf("in-slab word: cells %v at granule %d, want [1] at 4", got, reg.Gran())
	}
	// Word 1 carries an inflated read map into the refinement below.
	reg.Lock()
	reg.cells[1].R = vc.Epoch{T: 2, C: 3}
	m.InflateReads(reg, 1)[9] = 4
	reg.Unlock()
	flat := New(1, shBytes, spanTestGeo())
	walk(flat, 0, 1) // a byte access: byte cells before anything else
	for _, a := range []struct {
		addr uint64
		size int
	}{{8, 4}, {4, 4}, {9, 2}, {40, 4}} {
		got, want := walk(m, a.addr, a.size), walk(flat, a.addr, a.size)
		if reg.Gran() != 1 || len(reg.Cells()) != shBytes+1 {
			t.Fatalf("after [%d,+%d): granule %d, %d cells; want 1, %d", a.addr, a.size, reg.Gran(), len(reg.Cells()), shBytes+1)
		}
		if len(got) != len(want) {
			t.Fatalf("[%d,+%d): visited %v, refined slab %v", a.addr, a.size, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("[%d,+%d): visited %v, refined slab %v", a.addr, a.size, got, want)
			}
		}
	}
	if st := m.Stats(); st.Refinements != 1 || st.ResidentBytes != (shBytes+1)*cellBytes || st.ReadInflations != 1 {
		t.Fatalf("stats: %+v", st)
	}
	reg.Lock()
	for b := 0; b <= shBytes; b++ {
		rd := readersAt(reg, b)
		if in := b >= 4 && b < 8; in != (len(rd) == 2 && rd[2] == 3 && rd[9] == 4) || !in && rd != nil {
			t.Errorf("byte %d of the refined slab: read map %v; want word 1's map in bytes 4..7 only", b, rd)
		}
	}
	reg.Unlock()
	// A summary may cover the clamp cell (address shBytes maps to it
	// naturally); an access far past the slab clamps onto that cell and
	// must demote the summary before observing it.
	reg.Lock()
	reg.Install(SpanSum{Lo: shBytes - 1, Hi: shBytes + 1, W: SpanLayer{Warp: 1, Mask: 3, Clock: 5, PC: 6, Size: 1}})
	reg.Unlock()
	m.SpanCached(nil, logging.SpaceShared, 0, 500, 1, func(r *Region, idx, _ int) {
		if c := &r.cells[idx]; c.W.C != 5 || c.WritePC != 6 {
			t.Errorf("clamp cell observed before its summary was demoted: %+v", c)
		}
	})
	if len(reg.Sums()) != 0 {
		t.Error("summary over the clamp cell survived an out-of-slab access")
	}
	// Compaction drops the slab and its side table with it: the slab a
	// later access allocates starts with no read map.
	if m.CompactSharedSlab(0) == 0 {
		t.Fatal("nothing compacted")
	}
	fresh, _ := m.RegionFor(nil, logging.SpaceShared, 0, 0)
	if fresh == reg || fresh.reads != nil || fresh.cells[1].ReadShared {
		t.Errorf("slab after compaction: same region %v, side table %v", fresh == reg, fresh.reads)
	}

	// A slab with no whole word has nothing to be word-granular about.
	tiny := New(1, 3, spanTestGeo())
	if r, _ := tiny.RegionFor(nil, logging.SpaceShared, 0, 0); r.Gran() != 1 || len(r.Cells()) != 4 {
		t.Fatalf("3-byte slab: granule %d, %d cells; want 1, 4", r.Gran(), len(r.Cells()))
	}
}

// TestRegionGranulePerMode: which regions start word-granular. There is
// one shadow discipline for every detector mode — the region lock a
// refinement needs is always there — so the granularity alone decides:
// every one below the word that divides it starts at the word and
// refines; the rest have nothing to refine to.
func TestRegionGranulePerMode(t *testing.T) {
	for _, tc := range []struct {
		gran      int
		wantGran  int
		wantCells int
		weight    int
	}{
		{1, 4, PageBytes / 4, 4},
		{2, 4, PageBytes / 4, 2},
		{4, 4, PageBytes / 4, 1},
		{8, 8, PageBytes / 8, 1},
		{3, 3, PageBytes / 3, 1}, // does not divide the word (core-level callers only)
	} {
		m := New(tc.gran, 0, spanTestGeo())
		r := globalRegion(m, 0)
		if r.Gran() != tc.wantGran || len(r.Cells()) != tc.wantCells || m.Weight(r) != tc.weight {
			t.Errorf("granularity %d: granule %d, %d cells, weight %d; want %d, %d, %d",
				tc.gran, r.Gran(), len(r.Cells()), m.Weight(r), tc.wantGran, tc.wantCells, tc.weight)
		}
		// A sub-word access refines to the configured granularity, never below.
		m.SpanCached(nil, logging.SpaceGlobal, -1, 6, 1, func(*Region, int, int) {})
		if r.Gran() != tc.gran || m.Weight(r) != 1 {
			t.Errorf("granularity %d: granule %d after a byte access, want %d", tc.gran, r.Gran(), tc.gran)
		}
		want := uint64(0)
		if tc.wantGran != tc.gran {
			want = 1
		}
		if got := m.Stats().Refinements; got != want {
			t.Errorf("granularity %d: %d refinements, want %d", tc.gran, got, want)
		}
	}
}

// TestRefineUnderCap: refining quadruples a region's footprint, so in
// bounded mode it must make room first — evicting colder regions, never
// itself (its lock is held) — and leave the accounting exact.
func TestRefineUnderCap(t *testing.T) {
	m := New(1, 0, spanTestGeo())
	wordPage := int64(PageBytes/4) * cellBytes
	m.SetCapBytes(5 * wordPage) // one refined page (4) + one word page
	var cold *Region            // page 0, the coldest
	for p := uint64(0); p < 5; p++ {
		// Every page holds one inflated read map, on word 10.
		m.SpanCached(nil, logging.SpaceGlobal, -1, p*PageBytes+40, 4, func(r *Region, idx, _ int) {
			r.cells[idx].R = vc.Epoch{T: 1, C: 1}
			m.InflateReads(r, idx)[2] = 2
			if p == 0 {
				cold = r
			}
		})
	}
	hot := globalRegion(m, 4*PageBytes)
	m.SpanCached(nil, logging.SpaceGlobal, -1, 4*PageBytes+1, 1, func(*Region, int, int) {})
	st := m.Stats()
	if hot.Gran() != 1 || st.Refinements != 1 {
		t.Fatalf("hot page not refined: granule %d, %+v", hot.Gran(), st)
	}
	if st.Evictions != 3 || st.GlobalPages != 2 || st.WordRegions != 1 || st.ByteRegions != 1 {
		t.Fatalf("want 3 cold word pages evicted, leaving one word and one refined page: %+v", st)
	}
	if st.ResidentBytes != 5*wordPage || st.ResidentBytes > m.CapBytes() {
		t.Fatalf("resident %d, want exactly the cap %d", st.ResidentBytes, m.CapBytes())
	}
	if again := globalRegion(m, 4*PageBytes); again != hot {
		t.Fatal("the refining page evicted itself")
	}
	hot.Lock()
	for b := 36; b < 48; b++ {
		rd := readersAt(hot, b)
		if in := b >= 40 && b < 44; in != (len(rd) == 2 && rd[1] == 1 && rd[2] == 2) {
			t.Errorf("byte %d of the refined page: read map %v; want word 10's map in bytes 40..43 only", b, rd)
		}
	}
	hot.Unlock()
	// An evicted page takes its side table with it: what replaces it is
	// virgin, table included.
	if again := globalRegion(m, 0); again == cold || again.reads != nil || again.cells[10].ReadShared {
		t.Errorf("page 0 after eviction: same region %v, side table %v", again == cold, again.reads)
	}
}
