package shadow_test

import (
	"sync"
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/shadow"
)

// dirtySrc has every thread store to the eight words at out and the eight
// a page further on: races on each, and epochs of late threads left in the
// first cells of two pages.
const dirtySrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<6>;
	.reg .u64 %rd<6>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	and.b32 %r2, %r1, 7;
	mul.wide.u32 %rd2, %r2, 4;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r1;
	st.global.u32 [%rd3+65536], %r1;
	ret;
}`

// tidySrc has thread t of the grid store to word 2t of out and of the page
// after it, and read the first back: no race, the same cells dirtySrc wrote
// reached by other threads, and a stride that keeps the records off the
// span path, which would overwrite a new region's cells unread.
const tidySrc = `.visible .entry k(.param .u64 out)
{
	.reg .u32 %r<8>;
	.reg .u64 %rd<6>;
	ld.param.u64 %rd1, [out];
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mad.lo.u32 %r4, %r2, %r3, %r1;
	mul.wide.u32 %rd2, %r4, 8;
	add.u64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r4;
	st.global.u32 [%rd3+65536], %r4;
	ld.global.u32 %r5, [%rd3];
	ret;
}`

// detectOnce runs src from PTX text on a session of its own, as a job does,
// and returns the report's digest and shadow census.
func detectOnce(t testing.TB, src string) (string, shadow.MemStats) {
	t.Helper()
	s, err := detector.OpenPTX(src, detector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	args, err := s.AllocArgs([]int{2 * shadow.PageBytes})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Detect("k", detector.Launch1D(4, 64, args, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return res.Report.CanonicalDigest(), res.Report.Shadow
}

// TestRecycledSlabIsVirgin: a run on slabs another run dirtied and
// released reports what it reports on fresh ones — digest and shadow census
// — in both orders, and the second run did take its pages from the pool.
func TestRecycledSlabIsVirgin(t *testing.T) {
	fresh := func(src string) (string, shadow.MemStats) {
		shadow.DrainSlabPool()
		return detectOnce(t, src)
	}
	dirtyDigest, dirtyStats := fresh(dirtySrc)
	tidyDigest, tidyStats := fresh(tidySrc)
	if dirtyDigest == tidyDigest {
		t.Fatal("the two programs report alike; the test cannot tell a stale cell")
	}
	for _, order := range []struct {
		name, first, second string
		digest              string
		stats               shadow.MemStats
	}{
		{"racy then clean", dirtySrc, tidySrc, tidyDigest, tidyStats},
		{"clean then racy", tidySrc, dirtySrc, dirtyDigest, dirtyStats},
	} {
		fresh(order.first)
		before := shadow.SlabPoolStats()
		digest, stats := detectOnce(t, order.second)
		after := shadow.SlabPoolStats()
		if after.SlabsRecycled == before.SlabsRecycled || after.SlabsFresh != before.SlabsFresh {
			t.Errorf("%s: the second run took %d recycled and %d fresh slabs; want recycled ones only",
				order.name, after.SlabsRecycled-before.SlabsRecycled, after.SlabsFresh-before.SlabsFresh)
		}
		if digest != order.digest {
			t.Errorf("%s: on recycled slabs the second run reports\n%s\non fresh ones\n%s", order.name, digest, order.digest)
		}
		if stats != order.stats {
			t.Errorf("%s: shadow census on recycled slabs %+v, on fresh ones %+v", order.name, stats, order.stats)
		}
	}
}

// TestSlabPoolConcurrent is for the race detector: four goroutines build,
// touch and release shadows of their own while two run whole detections,
// all on the one pool, and the detections report what they report alone.
func TestSlabPoolConcurrent(t *testing.T) {
	wantDirty, _ := detectOnce(t, dirtySrc)
	wantTidy, _ := detectOnce(t, tidySrc)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := shadow.New(4, 0, ptvc.Geometry{})
				for p := 0; p < 3; p++ {
					m.CellFor(logging.SpaceGlobal, -1, uint64(p)*shadow.PageBytes+uint64(4*g)).WritePC = uint32(i + 1)
				}
				m.Release()
			}
		}(g)
	}
	for _, run := range []struct{ src, want string }{{dirtySrc, wantDirty}, {tidySrc, wantTidy}} {
		wg.Add(1)
		go func(src, want string) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got, _ := detectOnce(t, src); got != want {
					t.Errorf("run %d beside the pool traffic reports\n%s\nwant\n%s", i, got, want)
					return
				}
			}
		}(run.src, run.want)
	}
	wg.Wait()
}
