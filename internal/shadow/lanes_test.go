package shadow

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"barracuda/internal/logging"
	"barracuda/internal/vc"
)

// TestCellLayout holds the cell's layout as a contract: 24 bytes, what
// the detector's fast path reads (W, and R with the read-shared mark) in
// bytes 0–15, and no field the collector would have to scan — which is
// what makes a slab noscan.
func TestCellLayout(t *testing.T) {
	var c Cell
	if size := unsafe.Sizeof(c); size != 24 {
		t.Errorf("Cell is %d bytes, want 24", size)
	}
	if end := unsafe.Offsetof(c.W) + unsafe.Sizeof(c.W); end > 16 {
		t.Errorf("W ends at byte %d, want within the first 16", end)
	}
	if end := unsafe.Offsetof(c.R) + unsafe.Sizeof(c.R); end > 16 {
		t.Errorf("R ends at byte %d, want within the first 16", end)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
			reflect.Interface, reflect.Chan, reflect.Func, reflect.String:
			t.Errorf("%s is a %s: a cell must hold no pointer", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("Cell", reflect.TypeOf(Cell{}))
}

// TestCellFlagsRoundTrip packs both flags beside both PCs at the largest
// PC a record can carry and reads every one back.
func TestCellFlagsRoundTrip(t *testing.T) {
	const pc = logging.MaxPC
	m := New(4, 0)
	reg, _ := m.RegionFor(nil, logging.SpaceGlobal, -1, 0)
	reg.Lock()
	defer reg.Unlock()
	for _, atomic := range []bool{false, true} {
		c := &reg.cells[0]
		c.SetWrite(vc.Epoch{T: 7, C: 9}, pc, atomic)
		c.SetRead(vc.Epoch{T: 3, C: 4}, pc-1)
		if c.WritePC() != pc || c.Atomic() != atomic || c.ReadPC() != pc-1 || c.ReadShared() {
			t.Fatalf("atomic %v: write pc %d atomic %v, read pc %d shared %v", atomic, c.WritePC(), c.Atomic(), c.ReadPC(), c.ReadShared())
		}
		readers := m.InflateReads(reg, 0)
		if !c.ReadShared() || readers[3] != (Read{C: 4, PC: pc - 1}) || c.WritePC() != pc || c.Atomic() != atomic || c.W != (vc.Epoch{T: 7, C: 9}) {
			t.Fatalf("atomic %v after inflation: shared %v readers %v, write pc %d atomic %v W %v", atomic, c.ReadShared(), readers, c.WritePC(), c.Atomic(), c.W)
		}
		reg.ClearReads(0)
		if c.ReadShared() || !c.R.IsZero() || reg.Readers(0) != nil || c.Atomic() != atomic {
			t.Fatalf("atomic %v after clearing: shared %v R %v", atomic, c.ReadShared(), c.R)
		}
	}
}

// laneVisit is one visit of a walk, with the region named by what it
// covers so twin memories compare.
type laneVisit struct {
	lane, idx, weight int
	region            string
}

// eachRegion calls fn with every live region of m, named by the page or
// block it shadows.
func eachRegion(m *Memory, fn func(name string, reg *Region)) {
	for i := range m.stripes {
		if pm := m.stripes[i].pages.Load(); pm != nil {
			for id, p := range *pm {
				fn(fmt.Sprintf("page %#x", id), p)
			}
		}
	}
	if bm := m.sharedPtr.Load(); bm != nil {
		for b, r := range *bm {
			fn(fmt.Sprintf("block %d", b), r)
		}
	}
}

// regionName names a live region by the page or block it shadows.
func regionName(m *Memory, reg *Region) string {
	found := "unpublished"
	eachRegion(m, func(name string, r *Region) {
		if r == reg {
			found = name
		}
	})
	return found
}

// regionState renders everything a region holds: granule, cells, side
// table, live mark.
func regionState(reg *Region) string {
	reg.Lock()
	defer reg.Unlock()
	out := fmt.Sprintf("gran %d cells %d live %v\n", reg.Gran(), len(reg.cells), reg.liveMark.Load())
	for i := range reg.cells {
		c := &reg.cells[i]
		if rd := reg.Readers(i); *c != (Cell{}) || rd != nil {
			out += fmt.Sprintf("%d: W %v@%d R %v@%d atomic %v shared %v readers %v\n",
				i, c.W, c.WritePC(), c.R, c.ReadPC(), c.Atomic(), c.ReadShared(), rd)
		}
	}
	out += fmt.Sprintf("read maps %d\n", readMaps(reg))
	return out
}

// memoryState renders every live region of a memory, by name.
func memoryState(m *Memory) map[string]string {
	out := map[string]string{"stats": fmt.Sprintf("%+v", m.Stats())}
	eachRegion(m, func(name string, r *Region) { out[name] = regionState(r) })
	return out
}

// TestVisitLanesEquivalence: the record-level walk — one region lock
// held across consecutive lanes, touch-ahead, release before another
// page — must be indistinguishable from one SpanCached call per lane:
// the same (lane, region, cell, weight) visits in the same order, and
// the same final cells, side tables, granules and accounting on a twin
// Memory, over random records that cover every
// shape the walk distinguishes.
func TestVisitLanesEquivalence(t *testing.T) {
	t.Run("prologues", testRunPrologues)
	const (
		window  = 1 << 20 // global addresses start here, so negative strides stay positive
		shBytes = 256
		records = 2400
	)
	sizes := []int{1, 2, 4, 8, 16}
	strides := []int64{0, 1, 2, 3, 4, -4, 8, -8, 12, 640, -640, 2048, PageBytes / 16, PageBytes / 8, -PageBytes / 8, PageBytes - 4}
	var pagesHit [4]int // records whose lanes landed in 1, 2, 3 pages
	var clamps, midRefines, pageCrossers, inflations, runs, walkedLanes int

	cfgs := []struct {
		gran int
		cap  int64 // in word pages; 0 = unbounded
	}{{1, 0}, {2, 0}, {4, 0}, {8, 0}, {1, 6}}
	for _, cfg := range cfgs {
		rng := rand.New(rand.NewSource(int64(17 + cfg.gran)))
		var walk, twin *Memory
		for _, m := range []**Memory{&walk, &twin} {
			*m = New(cfg.gran, shBytes)
			(*m).SetCapBytes(cfg.cap * int64(PageBytes/4) * cellBytes)
		}
		var scWalk, scTwin SpanCache

		for rec := 0; rec < records/len(cfgs); rec++ {
			space, blk := logging.SpaceGlobal, int32(-1)
			if rng.Intn(4) == 0 {
				space, blk = logging.SpaceShared, int32(rng.Intn(2))
			}
			ws := 2 + rng.Intn(31)
			size := sizes[rng.Intn(len(sizes))]
			stride := strides[rng.Intn(len(strides))]
			var base uint64
			switch {
			case space == logging.SpaceShared:
				base = uint64(rng.Intn(shBytes + 64)) // some lanes past the slab
				stride %= 16
			case rng.Intn(3) == 0:
				base = window + uint64(1+rng.Intn(3))*PageBytes - uint64(rng.Intn(24)) // around a page line
			default:
				base = window + 2*PageBytes + uint64(rng.Intn(PageBytes))
			}
			if rng.Intn(3) != 0 {
				base &^= 3 // mostly word-aligned, so pages stay word-granular for a while
			}
			mask := rng.Uint32() | 1<<uint(rng.Intn(ws))
			var lanes []Lane
			for lane := 0; lane < ws; lane++ {
				if mask&(1<<uint(lane)) != 0 {
					lanes = append(lanes, Lane{Index: lane, Addr: uint64(int64(base) + int64(len(lanes))*stride)})
				}
			}
			if len(lanes) > 2 && rng.Intn(8) == 0 {
				lanes[len(lanes)/2].Addr |= 1 // one sub-word lane in mid-record
			}
			pages := map[uint64]bool{}
			for _, ln := range lanes {
				pages[ln.Addr>>pageBits] = true
				if space == logging.SpaceGlobal && ln.Addr>>pageBits != (ln.Addr+uint64(size)-1)>>pageBits {
					pageCrossers++
				}
			}
			if space == logging.SpaceGlobal {
				pagesHit[min(len(pages), 3)]++
			}
			walkedLanes += len(lanes)

			// The visitor leaves a mark that depends on what it was handed,
			// and drives the side table both ways.
			visitor := func(m *Memory, log *[]laneVisit) func(lane int, reg *Region, idx, weight int) {
				return func(lane int, reg *Region, idx, weight int) {
					*log = append(*log, laneVisit{lane, idx, weight, regionName(m, reg)})
					c := &reg.cells[idx]
					switch (rec + lane) % 4 {
					case 0:
						c.SetWrite(vc.Epoch{T: vc.TID(lane), C: vc.Clock(rec + 1)}, uint32(rec), rec%3 == 0)
						reg.ClearReads(idx)
					case 1:
						reg.ClearReads(idx)
						c.SetRead(vc.Epoch{T: vc.TID(lane), C: vc.Clock(rec + 1)}, uint32(rec))
					default:
						m.InflateReads(reg, idx)[vc.TID(lane)] = Read{C: vc.Clock(rec + 1)}
					}
				}
			}
			var got, want []laneVisit
			fn := visitor(walk, &got)
			walk.VisitLanes(&scWalk, space, blk, lanes, size, func(run *Run) {
				runs++
				run.Each(func(lane, idx int) { fn(lane, run.Reg, idx, run.Weight) })
			})
			for _, ln := range lanes {
				fn := visitor(twin, &want)
				twin.SpanCached(&scTwin, space, blk, ln.Addr, size, func(reg *Region, idx, weight int) { fn(ln.Index, reg, idx, weight) })
			}
			for i := 0; i < max(len(got), len(want)); i++ {
				if i >= len(got) || i >= len(want) || got[i] != want[i] {
					t.Fatalf("%+v record %d (%v block %d, size %d, lanes %+v): %d visits against %d per lane, first difference at visit %d:\nwalk     %+v\nper lane %+v",
						cfg, rec, space, blk, size, lanes, len(got), len(want), i, got[min(i, len(got)):min(i+1, len(got))], want[min(i, len(want)):min(i+1, len(want))])
				}
			}
			for i, v := range got {
				if i > 0 && got[i-1].region == v.region && got[i-1].weight > v.weight {
					midRefines++
				}
				if space == logging.SpaceShared && v.idx == shBytes/cfg.gran && v.weight == 1 {
					clamps++
				}
			}
		}
		a, b := memoryState(walk), memoryState(twin)
		if !reflect.DeepEqual(a, b) {
			for name := range a {
				if a[name] != b[name] {
					t.Errorf("%+v: %s differs:\nwalk   %s\nper lane %s", cfg, name, a[name], b[name])
				}
			}
			t.Fatalf("%+v: final state differs (%d vs %d regions)", cfg, len(a), len(b))
		}
		st := walk.Stats()
		inflations += int(st.ReadInflations)
		if cfg.cap > 0 && st.Evictions == 0 {
			t.Errorf("%+v: the bounded run evicted nothing", cfg)
		}
	}
	t.Logf("records by pages touched %v, page-crossing lanes %d, clamp visits %d, mid-record refinements %d, read inflations %d, %d runs for %d lanes",
		pagesHit, pageCrossers, clamps, midRefines, inflations, runs, walkedLanes)
	if 3*runs > walkedLanes {
		t.Errorf("%d runs for %d lanes: the walk splits runs that one prologue covers", runs, walkedLanes)
	}
	if pagesHit[1] == 0 || pagesHit[2] == 0 || pagesHit[3] == 0 || pageCrossers == 0 || clamps == 0 || midRefines == 0 || inflations == 0 {
		t.Error("the generator missed one of the shapes above")
	}
}

// testRunPrologues counts the runs — one prologue each — a 32-lane word
// record at a 64-byte stride is walked in: one while its lanes share a page
// and need nothing done between them, and one more at each place a walk of
// one lane at a time does something different.
func testRunPrologues(t *testing.T) {
	const base = 1<<20 + 4*PageBytes
	for _, tc := range []struct {
		name  string
		runs  int
		shape func(lanes []Lane, m *Memory)
	}{
		{"one page", 1, func([]Lane, *Memory) {}},
		{"a page change", 2, func(lanes []Lane, _ *Memory) {
			for i := range lanes[16:] {
				lanes[16+i].Addr += PageBytes
			}
		}},
		{"a lane crossing a page", 2, func(lanes []Lane, _ *Memory) {
			for i := range lanes[16:] {
				lanes[16+i].Addr += PageBytes - 64*16 - 4 // lane 16 straddles the page line
			}
		}},
		{"a lane that refines", 2, func(lanes []Lane, _ *Memory) { lanes[10].Addr |= 1 }},
	} {
		m := New(1, 0)
		lanes := make([]Lane, 32)
		for i := range lanes {
			lanes[i] = Lane{Index: i, Addr: base + uint64(64*i)}
		}
		tc.shape(lanes, m)
		runs, visits := 0, 0
		m.VisitLanes(nil, logging.SpaceGlobal, -1, lanes, 4, func(run *Run) {
			runs++
			run.Each(func(int, int) { visits++ })
		})
		if runs != tc.runs || visits < 32 {
			t.Errorf("%s: %d runs and %d visits, want %d runs and 32 visits or more", tc.name, runs, visits, tc.runs)
		}
	}
}
