// Command benchtab regenerates the evaluation artifacts: Table 1
// (benchmark characteristics and races found), Figure 9 (fraction of
// static instructions instrumented before/after pruning), Figure 10
// (detection overhead over native execution), and the PTVC format
// distribution of Figure 7.
//
// With -server it instead benchmarks the barracudad detection service
// end-to-end over loopback HTTP — jobs/sec with a cold vs warm module
// cache — and writes a machine-readable artifact (default
// BENCH_server.json) so successive PRs have a perf trajectory.
//
// With -scaling it measures detection throughput against the number of
// event queues (1, 2, 4, 8): each benchmark's record stream is captured
// once and replayed through the multi-queue transport, asserting at
// every width that the canonical race report matches the 1-queue run,
// and writes BENCH_scaling.json.
//
// With -detect it A/B-benchmarks the coalesced-span shadow fast path (one
// region-locked span operation per uniform warp access) against the
// per-cell baseline over synthetic coalesced, strided and divergent
// access mixes, verifying canonical-digest equality on every run, and
// writes BENCH_detect.json.
//
// With -shadow it A/B-benchmarks the adaptive ownership tier (exclusive
// regions answered with one region-level clock comparison instead of
// per-epoch checks) against the span baseline over private, block-owned
// and contended mixes, and drains a page sweep under a shadow byte cap
// a quarter of its unbounded footprint, verifying the cap holds. Writes
// BENCH_shadow.json.
//
// With -filter it A/B-benchmarks producer-side epoch filtering (the
// per-warp interval filter cache plus the static log-once tier) against
// the unfiltered capture path over loop-heavy, barrier-dense and
// adversarial no-repeat mixes — full live detections, digest-gated —
// and writes BENCH_filter.json.
//
// With -repair it benchmarks verified repair synthesis through the
// scheduler's /v1/repair path — repairs/sec with every request a
// distinct module (full synthesis plus dynamic verification) vs the
// same request replayed from the per-entry memo — gated on the warm
// speedup factor, and writes BENCH_repair.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"barracuda/internal/bench"
	"barracuda/internal/detector"
	"barracuda/internal/ptvc"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "regenerate Table 1")
		fig9     = flag.Bool("fig9", false, "regenerate Figure 9")
		fig10    = flag.Bool("fig10", false, "regenerate Figure 10")
		pformats = flag.Bool("ptvc", false, "PTVC format distribution per benchmark (Figure 7)")
		all      = flag.Bool("all", false, "everything")
		serverB  = flag.Bool("server", false, "benchmark the detection service (cold vs warm cache) instead")
		staticB  = flag.Bool("static", false, "benchmark the static instrumentation pruner instead")
		scalingB = flag.Bool("scaling", false, "benchmark detection throughput vs queue count instead")
		detectB  = flag.Bool("detect", false, "benchmark the coalesced-span shadow fast path against the per-cell baseline instead")
		shadowB  = flag.Bool("shadow", false, "benchmark the adaptive ownership tier and the memory-bounded shadow instead")
		protoB   = flag.Bool("proto", false, "benchmark the binary streaming protocol against JSON submit+poll (bytes on wire, time-to-first-race) instead")
		repairB  = flag.Bool("repair", false, "benchmark verified repair synthesis (cold vs memoized warm) instead")
		filterB  = flag.Bool("filter", false, "benchmark producer-side epoch filtering against the unfiltered capture path instead")
		minSpeed = flag.Float64("min-speedup", 0, "with -detect, -shadow, -proto, -repair or -filter: fail unless the speedup reaches this factor")
		jobs     = flag.Int("jobs", 32, "jobs per phase for -server and -repair")
		workers  = flag.Int("workers", 4, "detection workers for -server")
		out      = flag.String("o", "", "output artifact path (default BENCH_server.json / BENCH_static.json / BENCH_scaling.json)")
	)
	flag.Parse()
	if *serverB {
		// Throughput benchmarks use every core the host grants.
		runtime.GOMAXPROCS(runtime.NumCPU())
		path := *out
		if path == "" {
			path = "BENCH_server.json"
		}
		if err := runServerBench(*jobs, *workers, path); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		return
	}
	if *scalingB {
		runtime.GOMAXPROCS(runtime.NumCPU())
		path := *out
		if path == "" {
			path = "BENCH_scaling.json"
		}
		if err := runScalingBench(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		return
	}
	if *detectB {
		runtime.GOMAXPROCS(runtime.NumCPU())
		path := *out
		if path == "" {
			path = "BENCH_detect.json"
		}
		if err := runDetectBench(path, *minSpeed); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		return
	}
	if *shadowB {
		runtime.GOMAXPROCS(runtime.NumCPU())
		path := *out
		if path == "" {
			path = "BENCH_shadow.json"
		}
		if err := runShadowBench(path, *minSpeed); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		return
	}
	if *protoB {
		runtime.GOMAXPROCS(runtime.NumCPU())
		path := *out
		if path == "" {
			path = "BENCH_proto.json"
		}
		if err := runProtoBench(*jobs, *workers, *minSpeed, path); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		return
	}
	if *filterB {
		runtime.GOMAXPROCS(runtime.NumCPU())
		path := *out
		if path == "" {
			path = "BENCH_filter.json"
		}
		if err := runFilterBench(path, *minSpeed); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		return
	}
	if *repairB {
		runtime.GOMAXPROCS(runtime.NumCPU())
		path := *out
		if path == "" {
			path = "BENCH_repair.json"
		}
		if err := runRepairBench(*jobs, *minSpeed, path); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		return
	}
	if *staticB {
		path := *out
		if path == "" {
			path = "BENCH_static.json"
		}
		if err := runStaticBench(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		return
	}
	if !*table1 && !*fig9 && !*fig10 && !*pformats {
		*all = true
	}
	if *all {
		*table1, *fig9, *fig10, *pformats = true, true, true, true
	}
	if err := run(*table1, *fig9, *fig10, *pformats); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(table1, fig9, fig10, pformats bool) error {
	if table1 {
		rows, err := bench.Table1()
		if err != nil {
			return err
		}
		fmt.Println("Table 1: benchmarks (ours / paper in parentheses)")
		fmt.Printf("%-34s %16s %18s %14s %s\n", "benchmark", "static insns", "total threads", "mem MB", "races found")
		for _, r := range rows {
			races := "-"
			if r.RacesFound > 0 {
				races = fmt.Sprintf("%d %s", r.RacesFound, r.RaceSpace)
			}
			paperRaces := r.PaperRaces
			if paperRaces == "" {
				paperRaces = "-"
			}
			fmt.Printf("%-34s %6d (%6d) %8d (%8d) %6.1f (%5d) %s (%s)\n",
				r.Name, r.StaticInstrs, r.PaperStatic, r.Threads, r.PaperThreads,
				r.MemMB, r.PaperMemMB, races, paperRaces)
		}
		fmt.Println()
	}
	if fig9 {
		rows, err := bench.Fig9()
		if err != nil {
			return err
		}
		fmt.Println("Figure 9: percentage of static PTX instructions instrumented")
		fmt.Printf("%-34s %14s %12s %12s\n", "benchmark", "unoptimized", "optimized", "static")
		for _, r := range rows {
			fmt.Printf("%-34s %13.1f%% %11.1f%% %11.1f%%\n",
				r.Name, 100*r.Unoptimized, 100*r.Optimized, 100*r.Static)
		}
		fmt.Println()
	}
	if fig10 {
		rows, err := bench.Fig10()
		if err != nil {
			return err
		}
		fmt.Println("Figure 10: detection overhead normalized to native execution")
		fmt.Printf("%-34s %12s %12s %10s\n", "benchmark", "native", "detected", "overhead")
		for _, r := range rows {
			fmt.Printf("%-34s %12v %12v %9.1fx\n", r.Name,
				r.Native.Round(0), r.Detected.Round(0), r.Overhead)
		}
		fmt.Println()
	}
	if pformats {
		fmt.Println("Figure 7: PTVC format usage, sampled at every memory record")
		fmt.Printf("%-34s %11s %10s %16s %10s\n", "benchmark", "CONVERGED", "DIVERGED", "NESTEDDIVERGED", "SPARSEVC")
		for _, b := range bench.All() {
			res, err := bench.Detect(b, detector.Config{})
			if err != nil {
				return err
			}
			var total uint64
			for _, n := range res.FormatHist {
				total += n
			}
			pct := func(f ptvc.Format) float64 {
				if total == 0 {
					return 0
				}
				return 100 * float64(res.FormatHist[f]) / float64(total)
			}
			fmt.Printf("%-34s %10.1f%% %9.1f%% %15.1f%% %9.1f%%\n", b.Name,
				pct(ptvc.Converged), pct(ptvc.Diverged), pct(ptvc.NestedDiverged), pct(ptvc.SparseVC))
		}
		fmt.Println()
	}
	return nil
}
