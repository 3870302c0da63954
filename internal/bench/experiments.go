package bench

import (
	"fmt"
	"strings"

	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
	"barracuda/internal/instrument"
	"barracuda/internal/logging"
	"barracuda/internal/ptx"
)

// session opens a detector session for a benchmark.
func session(b *Benchmark, cfg detector.Config) (*detector.Session, gpusim.LaunchConfig, error) {
	s, err := detector.OpenPTX(b.PTX(), cfg)
	if err != nil {
		return nil, gpusim.LaunchConfig{}, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	args, err := s.AllocArgs(b.Buffers())
	if err != nil {
		return nil, gpusim.LaunchConfig{}, err
	}
	launch := gpusim.LaunchConfig{Grid: b.Grid, Block: b.Block, Args: args}
	return s, launch, nil
}

// Detect runs a benchmark under the detector and returns the result.
func Detect(b *Benchmark, cfg detector.Config) (*detector.Result, error) {
	s, launch, err := session(b, cfg)
	if err != nil {
		return nil, err
	}
	return s.Detect("main", launch)
}

// Table1Row is one row of the reproduced Table 1.
type Table1Row struct {
	Name         string
	StaticInstrs int
	Threads      int
	MemMB        float64
	RacesFound   int
	RaceSpace    string
	// Paper-reported columns for side-by-side comparison.
	PaperStatic  int
	PaperThreads int
	PaperMemMB   int
	PaperRaces   string
}

// Table1 regenerates Table 1: per-benchmark static instructions, total
// threads, global memory, and races found by the detector.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, b := range All() {
		m, err := ptx.Parse(b.PTX())
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", b.Name, err)
		}
		res, err := Detect(b, detector.Config{})
		if err != nil {
			return nil, err
		}
		space := ""
		for _, r := range res.Report.Races {
			switch r.Space {
			case logging.SpaceShared:
				if space == "global" {
					space = "mixed"
				} else if space != "mixed" {
					space = "shared"
				}
			case logging.SpaceGlobal:
				if space == "shared" {
					space = "mixed"
				} else if space != "mixed" {
					space = "global"
				}
			}
		}
		rows = append(rows, Table1Row{
			Name:         b.Name,
			StaticInstrs: m.StaticInstrCount(),
			Threads:      b.Threads(),
			MemMB:        float64(b.MemBytes()) / (1 << 20),
			RacesFound:   res.Report.RaceCount(),
			RaceSpace:    space,
			PaperStatic:  b.PaperStatic,
			PaperThreads: b.PaperThreads,
			PaperMemMB:   b.PaperMemMB,
			PaperRaces:   b.PaperRaces,
		})
	}
	return rows, nil
}

// Fig9Row is one bar group of Figure 9.
type Fig9Row struct {
	Name        string
	Unoptimized float64 // fraction of static instructions instrumented, no pruning
	Optimized   float64 // with the intra-basic-block pruning
	Static      float64 // with the inter-block static pruner on top
}

// Fig9 regenerates Figure 9: the fraction of static PTX instructions
// instrumented with no pruning, with the paper's intra-block pruning,
// and with the dataflow-driven static pruner stacked on top. One
// instrumentation pass computes all three columns.
func Fig9() ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, b := range All() {
		s, err := detector.OpenPTX(b.PTX(), detector.Config{})
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", b.Name, err)
		}
		t := (&instrument.Result{Stats: s.Stats}).TotalStats()
		rows = append(rows, Fig9Row{
			Name:        b.Name,
			Unoptimized: t.FracInstrumentedNoOpt(),
			Optimized:   t.FracInstrumented(),
			Static:      t.FracInstrumentedStatic(),
		})
	}
	return rows, nil
}

// VerifyRaces checks a detection result against the benchmark's
// engineered ground truth and returns a diagnostic error when they
// disagree.
func VerifyRaces(b *Benchmark, rep *core.Report) error {
	if rep.RaceCount() != b.ExpectRaces {
		var names []string
		for _, r := range rep.Races {
			names = append(names, r.String())
		}
		return fmt.Errorf("bench %s: %d races found, want %d:\n%s",
			b.Name, rep.RaceCount(), b.ExpectRaces, strings.Join(names, "\n"))
	}
	for _, r := range rep.Races {
		got := "global"
		if r.Space == logging.SpaceShared {
			got = "shared"
		}
		if b.RaceSpace != "" && got != b.RaceSpace {
			return fmt.Errorf("bench %s: race in %s memory, want %s: %v", b.Name, got, b.RaceSpace, r)
		}
	}
	return nil
}
