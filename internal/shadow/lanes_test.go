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

// TestCellLayout holds the cell's layout as a contract: 32 bytes, a
// whole number of cells per 64-byte cache line, and no field the
// collector would have to scan — which is what makes a slab noscan.
func TestCellLayout(t *testing.T) {
	if size := unsafe.Sizeof(Cell{}); size != 32 || 64%size != 0 {
		t.Errorf("Cell is %d bytes, want 32 (two per cache line, none straddling)", size)
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
// table, summaries, ownership.
func regionState(reg *Region) string {
	reg.Lock()
	defer reg.Unlock()
	st, id := reg.Owner()
	lw, lm, om := reg.OwnerClocks()
	out := fmt.Sprintf("gran %d cells %d touched %v owner %v/%d %d/%d/%d sums %+v\n",
		reg.gran, len(reg.cells), reg.touched, st, id, lw, lm, om, reg.sums)
	for i := range reg.cells {
		c := &reg.cells[i]
		if rd := reg.Readers(i); *c != (Cell{}) || rd != nil {
			out += fmt.Sprintf("%d: W %v@%d R %v@%d atomic %v shared %v readers %v\n",
				i, c.W, c.WritePC, c.R, c.ReadPC, c.Atomic, c.ReadShared, rd)
		}
	}
	out += fmt.Sprintf("read maps %d\n", readMaps(reg))
	return out
}

// sumCount counts the live summaries of a memory.
func sumCount(m *Memory) (n int) {
	eachRegion(m, func(_ string, r *Region) { n += len(r.sums) })
	return n
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
// the same final cells, side tables, summaries, granules, ownership and
// accounting on a twin Memory, over random records that cover every
// shape the walk distinguishes.
func TestVisitLanesEquivalence(t *testing.T) {
	const (
		window  = 1 << 20 // global addresses start here, so negative strides stay positive
		shBytes = 256
		records = 2400
	)
	sizes := []int{1, 2, 4, 8, 16}
	strides := []int64{0, 1, 2, 3, 4, -4, 8, -8, 12, 640, -640, 2048, PageBytes / 16, PageBytes / 8, -PageBytes / 8, PageBytes - 4}
	var pagesHit [4]int // records whose lanes landed in 1, 2, 3 pages
	var clamps, midRefines, demotions, pageCrossers, inflations int

	for _, cfg := range []struct {
		gran  int
		owned bool
		cap   int64 // in word pages; 0 = unbounded
	}{{1, false, 0}, {1, true, 0}, {2, false, 0}, {4, true, 0}, {8, false, 0}, {1, false, 6}} {
		rng := rand.New(rand.NewSource(int64(17 + cfg.gran)))
		var walk, twin *Memory
		for _, m := range []**Memory{&walk, &twin} {
			*m = New(cfg.gran, shBytes, spanTestGeo())
			if cfg.owned {
				(*m).EnableOwnership()
			}
			(*m).SetCapBytes(cfg.cap * int64(PageBytes/4) * cellBytes)
		}
		var scWalk, scTwin SpanCache

		for rec := 0; rec < records/6; rec++ {
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

			// Now and then, the same summary over the same live cells of
			// both memories, for the walk to demote.
			if rng.Intn(6) == 0 {
				lo, n := rng.Intn(32), 1+rng.Intn(32)
				for _, m := range []*Memory{walk, twin} {
					reg, off := m.RegionFor(nil, space, blk, lanes[0].Addr)
					reg.Lock()
					at, _ := reg.CellRange(off, 1)
					at = (at + lo) % len(reg.cells) // near the record's first cell
					hi := min(at+n, len(reg.cells))
					reg.demoteOverlapping(m, at, hi)
					reg.Install(SpanSum{Lo: at, Hi: hi, W: SpanLayer{Warp: 1, Mask: ^uint32(0), Clock: vc.Clock(rec + 1), PC: 7, Size: uint8(reg.gran)}})
					reg.Unlock()
				}
			}

			// The visitor leaves a mark that depends on what it was handed,
			// and drives the side table both ways.
			visitor := func(m *Memory, log *[]laneVisit) func(lane int, reg *Region, idx, weight int) {
				return func(lane int, reg *Region, idx, weight int) {
					*log = append(*log, laneVisit{lane, idx, weight, regionName(m, reg)})
					c := &reg.cells[idx]
					switch (rec + lane) % 4 {
					case 0:
						c.W, c.WritePC, c.Atomic = vc.Epoch{T: vc.TID(lane), C: vc.Clock(rec + 1)}, uint32(rec), rec%3 == 0
						reg.ClearReads(idx)
					case 1:
						c.R, c.ReadPC = vc.Epoch{T: vc.TID(lane), C: vc.Clock(rec + 1)}, uint32(rec)
					default:
						m.InflateReads(reg, idx)[vc.TID(lane)] = vc.Clock(rec + 1)
					}
				}
			}
			var got, want []laneVisit
			sums := sumCount(walk)
			walk.VisitLanes(&scWalk, space, blk, lanes, size, visitor(walk, &got))
			if sumCount(walk) < sums {
				demotions++
			}
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
	t.Logf("records by pages touched %v, page-crossing lanes %d, clamp visits %d, mid-record refinements %d, walks that demoted a summary %d, read inflations %d",
		pagesHit, pageCrossers, clamps, midRefines, demotions, inflations)
	if pagesHit[1] == 0 || pagesHit[2] == 0 || pagesHit[3] == 0 || pageCrossers == 0 || clamps == 0 || midRefines == 0 || demotions == 0 || inflations == 0 {
		t.Error("the generator missed one of the shapes above")
	}
}
