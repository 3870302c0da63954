// Command benchtab regenerates the evaluation artifacts: Table 1
// (benchmark characteristics and races found), Figure 9 (fraction of
// static instructions instrumented before/after pruning), Figure 10
// (detection overhead over native execution), and the PTVC format
// distribution of Figure 7.
package main

import (
	"flag"
	"fmt"
	"os"

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
	)
	flag.Parse()
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
