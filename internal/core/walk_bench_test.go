package core

import (
	"testing"

	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/trace"
)

// benchGeo is the microbenchmark launch: 8 blocks × 128 threads,
// 32-lane warps.
func benchGeo() ptvc.Geometry {
	return ptvc.Geometry{WarpSize: 32, BlockSize: 128, Blocks: 8}
}

// benchRecords builds a short cyclic stream of warp memory records for
// one warp over its own address window, alternating reads and writes.
// pattern selects the per-lane layout: coalesced (consecutive 4-byte
// words), strided (8-byte lane stride) or divergent (random mask and
// addresses).
func benchRecords(pattern string) []logging.Record {
	const instrs = 8
	recs := make([]logging.Record, 0, instrs)
	lcg := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg >> 33
	}
	for i := 0; i < instrs; i++ {
		var r logging.Record
		r.Warp = 0
		r.Block = 0
		r.Space = logging.SpaceGlobal
		r.Size = 4
		r.PC = uint32(i + 1)
		if i%2 == 0 {
			r.Op = trace.OpRead
		} else {
			r.Op = trace.OpWrite
		}
		switch pattern {
		case "coalesced":
			r.Mask = ^uint32(0)
			base := uint64(i) * 128
			for lane := 0; lane < 32; lane++ {
				r.Addrs[lane] = base + uint64(lane)*4
				r.Vals[lane] = uint64(lane)
			}
		case "strided":
			r.Mask = ^uint32(0)
			base := uint64(i) * 256
			for lane := 0; lane < 32; lane++ {
				r.Addrs[lane] = base + uint64(lane)*8
				r.Vals[lane] = uint64(lane)
			}
		case "divergent":
			r.Mask = uint32(rnd()) | 1
			for lane := 0; lane < 32; lane++ {
				if r.Mask&(1<<uint(lane)) == 0 {
					continue
				}
				r.Addrs[lane] = rnd() % 1024 * 4
				r.Vals[lane] = uint64(lane)
			}
		}
		r.Classify()
		recs = append(recs, r)
	}
	return recs
}

// benchWarpAccess drains the cyclic stream through one worker. ns/op is
// nanoseconds per warp access (one warp-level record).
func benchWarpAccess(b *testing.B, pattern string) {
	d := New(benchGeo(), 0, Options{})
	w := d.NewWorker()
	recs := benchRecords(pattern)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Handle(&recs[i%len(recs)])
	}
}

func BenchmarkWarpAccessCoalesced(b *testing.B) { benchWarpAccess(b, "coalesced") }
func BenchmarkWarpAccessStrided(b *testing.B)   { benchWarpAccess(b, "strided") }
func BenchmarkWarpAccessDivergent(b *testing.B) { benchWarpAccess(b, "divergent") }

// BenchmarkWarpAccessReadSharedInflate measures the walk's worst case: two
// warps read the same coalesced range unordered (different blocks), so
// every cell carries an inflated read map.
func BenchmarkWarpAccessReadSharedInflate(b *testing.B) {
	d := New(benchGeo(), 0, Options{})
	w := d.NewWorker()
	var recs []logging.Record
	for _, warp := range []uint32{0, 4} { // different blocks: no sync order
		var r logging.Record
		r.Warp = warp
		r.Block = warp / 4
		r.Space = logging.SpaceGlobal
		r.Size = 4
		r.PC = 1
		r.Op = trace.OpRead
		r.Mask = ^uint32(0)
		for lane := 0; lane < 32; lane++ {
			r.Addrs[lane] = uint64(lane) * 4
		}
		r.Classify()
		recs = append(recs, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Handle(&recs[i%len(recs)])
	}
}

// TestBenchRecordsClassify guards the microbenchmark setup: the
// coalesced pattern must be tagged, the others must not be.
func TestBenchRecordsClassify(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		want    bool
	}{{"coalesced", true}, {"strided", false}} {
		for i, r := range benchRecords(tc.pattern) {
			if got := r.Flags&logging.FlagCoalesced != 0; got != tc.want {
				t.Errorf("%s[%d]: FlagCoalesced = %v, want %v", tc.pattern, i, got, tc.want)
			}
		}
	}
}
