package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"barracuda/internal/instrument"
	"barracuda/internal/ptx"
	"barracuda/internal/staticanalysis"
)

// vetMain implements the `barracuda vet` subcommand: parse each PTX file,
// run the static lint passes, and print the diagnostics with their source
// positions. Exit status: 0 when every file is clean, 1 when any
// diagnostic of error severity was reported (any severity under -strict),
// 2 when a file could not be read or parsed.
func vetMain(argv []string) int {
	fs := flag.NewFlagSet("vet", flag.ExitOnError)
	var (
		jsonOut = fs.Bool("json", false, "emit diagnostics (and -fix repair reports) as JSON")
		strict  = fs.Bool("strict", false, "treat warnings as errors for the exit status")
		stats   = fs.Bool("stats", false, "also print per-kernel instrumentation-pruning statistics")
		fix     = fs.Bool("fix", false, "synthesize patches for the races detection reports and verify each by dynamic re-detection")
		write   = fs.Bool("write", false, "with -fix: write each verified fix to <file>.<kernel>.fixed.ptx")
		grid    = fs.Int("grid", 2, "with -fix: verification launch grid (blocks)")
		block   = fs.Int("block", 64, "with -fix: verification launch block (threads)")
		bufB    = fs.Int("bufbytes", 4096, "with -fix: bytes per zeroed global buffer (one per kernel param)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: barracuda vet [-json] [-strict] [-stats] [-fix [-write] [-grid N] [-block N] [-bufbytes N]] file.ptx...")
		fs.PrintDefaults()
	}
	fs.Parse(argv)
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	type fileDiag struct {
		File     string `json:"file"`
		Kernel   string `json:"kernel"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Code     string `json:"code"`
		Severity string `json:"severity"`
		Message  string `json:"message"`
	}
	var all []fileDiag
	var allRepairs []fileRepair
	exit := 0
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "barracuda vet: %v\n", err)
			return 2
		}
		m, err := ptx.Parse(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "barracuda vet: %s: %v\n", path, err)
			return 2
		}
		diags, err := staticanalysis.LintModule(m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "barracuda vet: %s: %v\n", path, err)
			return 2
		}
		for _, d := range diags {
			all = append(all, fileDiag{
				File: path, Kernel: d.Kernel, Line: d.Line, Col: d.Col,
				Code: d.Code, Severity: d.Severity.String(), Message: d.Message,
			})
			if d.Severity >= staticanalysis.SevError || *strict {
				exit = 1
			}
		}
		if *stats {
			printVetStats(path, m)
		}
		if *fix {
			repairs, err := runVetFix(path, m, vetFixOptions{
				grid: *grid, block: *block, bufBytes: *bufB,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "barracuda vet: fix: %v\n", err)
				return 2
			}
			allRepairs = append(allRepairs, repairs...)
			if *write {
				if err := writePatchedModule(path, repairs); err != nil {
					fmt.Fprintf(os.Stderr, "barracuda vet: fix: %v\n", err)
					return 2
				}
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []fileDiag{}
		}
		// Plain vet keeps the documented flat-array schema; -fix wraps
		// diagnostics and repair reports in one object.
		if *fix {
			if allRepairs == nil {
				allRepairs = []fileRepair{}
			}
			enc.Encode(map[string]any{"diagnostics": all, "repairs": allRepairs})
		} else {
			enc.Encode(all)
		}
		return exit
	}
	for _, d := range all {
		fmt.Printf("%s:%d:%d: %s: [%s] %s (kernel %s)\n",
			d.File, d.Line, d.Col, d.Severity, d.Code, d.Message, d.Kernel)
	}
	for _, r := range allRepairs {
		printVetFix(r)
	}
	return exit
}

// printVetStats reports how much of each kernel's instruction stream the
// instrumentation tiers would log (the Figure 9 static census).
func printVetStats(path string, m *ptx.Module) {
	res, err := instrument.Instrument(m, instrument.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "barracuda vet: %s: stats: %v\n", path, err)
		return
	}
	names := make([]string, 0, len(res.Stats))
	for name := range res.Stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := res.Stats[name]
		fmt.Printf("%s: kernel %s: %d instrs, instrumented %d (%.1f%%), static %d (%.1f%%), private %d\n",
			path, name, s.Static,
			s.Instrumented, 100*s.FracInstrumented(),
			s.InstrumentedStatic, 100*s.FracInstrumentedStatic(),
			s.ThreadPrivate)
	}
}
