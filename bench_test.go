// Benchmarks regenerating the paper's evaluation artifacts:
//
//	BenchmarkTable1              — full Table 1 sweep (detection on all 26 benchmarks)
//	BenchmarkFig9Instrumentation — static instrumentation of all 26 benchmarks
//	BenchmarkBugSuite            — the 66-program §6.1 suite under BARRACUDA
//	BenchmarkLitmusMP            — the Figure 4 mp litmus engine
//
// and the ablations DESIGN.md calls out:
//
//	BenchmarkPTVCCompression vs BenchmarkFullVCDetector — compressed vs
//	    uncompressed per-thread vector clocks
//	BenchmarkQueueScaling        — 1..8 logging queues
//	BenchmarkQueueThroughput     — raw lock-free queue ops
//	BenchmarkGranularity         — 1-byte vs 4-byte shadow cells
//
// Figure 10 is not here: its per-program overhead is the `row` lines of
// the end-to-end benchmark, benchmarks/e2e/run.sh.
package barracuda

import (
	"fmt"
	"testing"

	"barracuda/internal/bench"
	"barracuda/internal/bugsuite"
	"barracuda/internal/detector"
	"barracuda/internal/instrument"
	"barracuda/internal/logging"
	"barracuda/internal/memmodel"
	"barracuda/internal/ptx"
	"barracuda/internal/trace"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 26 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFig9Instrumentation(b *testing.B) {
	mods := make([]*ptx.Module, 0, 26)
	for _, bm := range bench.All() {
		m, err := ptx.Parse(bm.PTX())
		if err != nil {
			b.Fatal(err)
		}
		mods = append(mods, m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mods {
			if _, err := instrument.Instrument(m, instrument.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBugSuite(b *testing.B) {
	tests := bugsuite.Tests()
	for i := 0; i < b.N; i++ {
		res, err := bugsuite.RunSuite(tests, bugsuite.RunBarracuda)
		if err != nil {
			b.Fatal(err)
		}
		if res.Correct != 66 {
			b.Fatalf("correct = %d", res.Correct)
		}
	}
}

func BenchmarkLitmusMP(b *testing.B) {
	t := memmodel.MP(memmodel.Cta, memmodel.Cta)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Estimate(memmodel.Kepler, 1000, int64(i))
	}
}

// --- Ablations ---------------------------------------------------------

// ptvcAblationBench is a mid-size benchmark with divergence, barriers and
// fences, where the PTVC representation matters.
const ptvcAblationBench = "threadfencereduction"

func BenchmarkPTVCCompression(b *testing.B) {
	bm := bench.ByName(ptvcAblationBench)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Detect(bm, detector.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullVCDetector(b *testing.B) {
	bm := bench.ByName(ptvcAblationBench)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Detect(bm, detector.Config{FullVC: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueueScaling(b *testing.B) {
	bm := bench.ByName("hotspot")
	for _, queues := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("queues-%d", queues), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.Detect(bm, detector.Config{Queues: queues}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueueThroughput pushes the suite's dominant record — a
// full-warp strided write, header only on the wire — through one queue
// with a batched consumer on the other side.
func BenchmarkQueueThroughput(b *testing.B) {
	q := logging.NewQueue(4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]logging.Record, 256)
		for {
			n := q.DequeueBatch(buf)
			if n == 0 {
				q.Await()
				continue
			}
			if buf[n-1].Op == trace.OpEnd {
				return
			}
		}
	}()
	rec := logging.Record{
		Op: trace.OpWrite, Size: 4, Mask: 0xffffffff,
		Flags: logging.FlagStrided, Base: 0x10000, Stride: 640,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.PC = uint32(i)
		q.Enqueue(&rec)
	}
	b.StopTimer()
	q.Enqueue(&logging.Record{Op: trace.OpEnd})
	<-done
}

func BenchmarkGranularity(b *testing.B) {
	bm := bench.ByName("hotspot")
	for _, g := range []int{1, 4} {
		b.Run(fmt.Sprintf("bytes-%d", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.Detect(bm, detector.Config{Granularity: g}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
