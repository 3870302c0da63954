package shadow

import (
	"runtime/debug"
	"strings"
	"testing"

	"barracuda/internal/logging"
	"barracuda/internal/vc"
)

// TestSlabPoolCap: the free list keeps maxPooledSlabs slabs and leaves the
// next one to the collector; anything that is not a page slab is never kept.
func TestSlabPoolCap(t *testing.T) {
	var p slabPool
	s := make([]Cell, slabCells)
	p.put(make([]Cell, slabCells-1))
	p.put(make([]Cell, 4*slabCells)) // a refined page
	p.put(nil)
	if st := p.stats(); st.PoolBytes != 0 {
		t.Fatalf("pool kept a slab that is not a page slab: %+v", st)
	}
	for i := 0; i < maxPooledSlabs+1; i++ {
		p.put(s)
	}
	if st := p.stats(); st.PoolBytes != maxPooledSlabs*slabCells*cellBytes {
		t.Fatalf("after %d puts the pool holds %d bytes, want %d slabs of %d", maxPooledSlabs+1, st.PoolBytes, maxPooledSlabs, slabCells*cellBytes)
	}
	for i := 0; i < maxPooledSlabs; i++ {
		p.take()
	}
	p.take()
	if st := p.stats(); st.SlabsRecycled != maxPooledSlabs || st.SlabsFresh != 1 || st.PoolBytes != 0 {
		t.Fatalf("after %d takes: %+v, want %d recycled and 1 fresh", maxPooledSlabs+1, st, maxPooledSlabs)
	}
}

// TestSlabTakeClears: a recycled slab comes back all-zero, whatever the
// run that released it left in its cells.
func TestSlabTakeClears(t *testing.T) {
	var p slabPool
	s := p.take()
	for i := range s {
		s[i] = Cell{W: vc.Epoch{T: 3, C: 9}, R: readShared, wpc: 7 | atomicBit, rpc: 8}
	}
	p.put(s)
	got := p.take()
	if &got[0] != &s[0] {
		t.Fatal("take did not return the pooled slab")
	}
	for i := range got {
		if c := &got[i]; c.W != (vc.Epoch{}) || c.R != (vc.Epoch{}) || c.WritePC() != 0 || c.ReadPC() != 0 || c.Atomic() || c.ReadShared() {
			t.Fatalf("recycled cell %d is not virgin", i)
		}
	}
}

// TestReleaseThenUseFailsLoudly: Release hands the page slabs to the pool
// and empties the tables; a lookup afterwards, or an access through a
// region pointer a worker cache kept, panics — it neither allocates a new
// page nor touches cells another run may own by now.
func TestReleaseThenUseFailsLoudly(t *testing.T) {
	m := New(1, 64)
	var sc SpanCache
	visit := func(space logging.SpaceID, addr uint64) {
		m.SpanCached(&sc, space, 0, addr, 4, func(*Region, int, int) {})
	}
	visit(logging.SpaceGlobal, 0)
	visit(logging.SpaceGlobal, 3*PageBytes)
	visit(logging.SpaceShared, 8)
	before := SlabPoolStats()
	m.Release()
	if st := m.Stats(); st.GlobalPages != 0 || st.SharedBlocks != 0 {
		t.Fatalf("tables after Release: %d pages, %d slabs", st.GlobalPages, st.SharedBlocks)
	}
	if got := SlabPoolStats().PoolBytes - before.PoolBytes; got != 2*slabCells*cellBytes {
		t.Fatalf("Release pooled %d bytes, want the two page slabs (the shared slab is not pooled)", got)
	}
	m.Release() // idempotent
	if got := SlabPoolStats().PoolBytes - before.PoolBytes; got != 2*slabCells*cellBytes {
		t.Fatalf("a second Release moved the pool to %d bytes", got)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg, _ := recover().(string); !strings.Contains(msg, "access after Release") {
				t.Errorf("%s after Release: recovered %q, want the access-after-Release panic", what, msg)
			}
		}()
		f()
	}
	// The cache still holds the page of the last global visit and the slab.
	mustPanic("an access through a cached page", func() { visit(logging.SpaceGlobal, 3*PageBytes+8) })
	mustPanic("an access through a cached shared slab", func() { visit(logging.SpaceShared, 8) })
	mustPanic("a page lookup", func() { m.CellFor(logging.SpaceGlobal, -1, 5*PageBytes) })
	mustPanic("a shared-slab lookup", func() { m.CellFor(logging.SpaceShared, 1, 0) })
}

// touchSlab is what a detection run does to a slab first: one access per
// OS page or so, which is what faults a fresh slab in.
func touchSlab(s []Cell) {
	for i := 0; i < len(s); i += 4096 / int(cellBytes) {
		s[i].wpc++
	}
}

// BenchmarkSlabTake times taking one page slab and touching it: fresh from
// a heap that was just handed back to the OS (what every slab of a job
// cost before the pool), and recycled from the pool (cleared on the way
// out). Run it with a fixed count, e.g. -benchtime 200x: the fresh side
// spends more time outside the timer than inside.
func BenchmarkSlabTake(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		var p slabPool
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			debug.FreeOSMemory()
			b.StartTimer()
			touchSlab(p.take())
		}
	})
	b.Run("recycled", func(b *testing.B) {
		var p slabPool
		p.put(p.take())
		for i := 0; i < b.N; i++ {
			s := p.take()
			touchSlab(s)
			p.put(s)
		}
	})
}
