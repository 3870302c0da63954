// Command barracuda runs a PTX kernel (from a .ptx file, a fat binary, or
// a named built-in benchmark) under the BARRACUDA race detector and
// prints the race report.
//
// Usage:
//
//	barracuda -ptx kernel.ptx -kernel k -grid 4 -block 64 -bufs 1024,64
//	barracuda -fatbin app.fatbin -kernel k -grid 2 -block 32 -bufs 256
//	barracuda -bench hashtable
//	barracuda -bench dxtc -ownership -shadow-cap 67108864
//	barracuda vet [-json] [-strict] [-stats] file.ptx...
//	barracuda -server http://host:8321 -ptx kernel.ptx          # remote (JSON poll)
//	barracuda -server http://host:8321 -stream -ptx kernel.ptx  # remote (streaming)
//
// The flags fill in one server.JobRequest, and that request is the launch
// on every road — in this process, by JSON poll, by stream: -grid and
// -block left at 0 mean the module's own shape (a benchmark's geometry,
// else one block of 32 threads), and -bench, -fatbin, -warpsize and
// -budget mean the same with and without -server.
//
// -ownership enables the adaptive exclusive-ownership shadow tier;
// -shadow-cap bounds resident shadow memory (LRU eviction, honest
// degraded-precision reporting). Both preserve byte-identical race
// reports while no live state is evicted.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"barracuda/internal/bench"
	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/fatbin"
	"barracuda/internal/profile"
	"barracuda/internal/ptvc"
	"barracuda/internal/server"
	"barracuda/internal/shadow"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		os.Exit(vetMain(os.Args[2:]))
	}
	var o runOpts
	req := &o.req
	cfg := &o.req.Config
	flag.StringVar(&o.ptxPath, "ptx", "", "PTX source file to analyze")
	flag.StringVar(&o.fatbinPath, "fatbin", "", "fat binary file to analyze (its PTX is extracted)")
	flag.StringVar(&req.Bench, "bench", "", "run a named built-in benchmark instead")
	flag.StringVar(&req.Kernel, "kernel", "", "kernel name (default: the module's first kernel)")
	flag.IntVar(&req.Grid, "grid", 0, "grid size in blocks (1-D; 0 = the module's: a benchmark's own geometry, else 1)")
	flag.IntVar(&req.Block, "block", 0, "block size in threads (1-D; 0 = the module's: a benchmark's own geometry, else 32)")
	bufs := flag.String("bufs", "", "comma-separated byte sizes of zeroed global buffers passed as u64 args (default: a benchmark's own)")
	flag.IntVar(&cfg.Queues, "queues", 1, "number of logging queues / detector threads")
	flag.IntVar(&cfg.Granularity, "granularity", 1, "finest shadow-memory bytes per cell, a power of two (pages start at one cell per 4-byte word and refine on the first sub-word access)")
	flag.BoolVar(&cfg.FullVC, "fullvc", false, "use the uncompressed vector-clock baseline")
	flag.Uint64Var(&req.MaxInstrs, "budget", 1<<24, "dynamic warp-instruction budget (0 = unlimited; with -server, the server's default)")
	flag.IntVar(&req.WarpSize, "warpsize", 0, "simulated warp width (0 = the architecture's 32); smaller widths expose latent warp-size bugs")
	flag.BoolVar(&o.profile, "profile", false, "run the memory-access profiler instead of the race detector")
	flag.BoolVar(&cfg.StaticPrune, "staticprune", false, "enable the inter-block static instrumentation pruner")
	flag.BoolVar(&cfg.Ownership, "ownership", false, "enable the exclusive-ownership shadow fast path (requires span mode)")
	flag.BoolVar(&cfg.ProducerFilter, "producer-filter", false, "suppress redundant access records at the simulator (producer-side epoch filtering; reports stay byte-identical)")
	flag.Int64Var(&cfg.ShadowCapBytes, "shadow-cap", 0, "bound resident shadow memory to this many bytes via LRU eviction (0 = unbounded; evicting live state is reported as degraded precision)")
	flag.BoolVar(&o.verbose, "v", false, "print per-race dynamic counts, PTVC format stats, and the simulator, shadow and transport lines")
	serverURL := flag.String("server", "", "submit to a barracudad daemon or fleet coordinator at this base URL instead of running locally")
	streamF := flag.Bool("stream", false, "with -server: use the binary streaming protocol (races print as they are found)")
	apiKey := flag.String("api-key", "", "with -server: tenant key for rate limiting and accounting")
	flag.Parse()
	var (
		status int
		err    error
	)
	if req.Buffers, err = parseBufs(*bufs); err == nil {
		err = o.resolve()
	}
	switch {
	case err != nil:
	case *serverURL == "" && *streamF:
		err = fmt.Errorf("-stream requires -server")
	case *serverURL == "":
		status, err = run(os.Stdout, o)
	case o.profile:
		err = fmt.Errorf("-profile runs locally only")
	case *streamF:
		status, err = streamRun(os.Stdout, o, *serverURL, *apiKey)
	default:
		status, err = pollRun(os.Stdout, o, *serverURL, *apiKey)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "barracuda:", err)
		os.Exit(1)
	}
	os.Exit(status)
}

// parseBufs reads -bufs, once, for every road.
func parseBufs(list string) ([]int, error) {
	if list == "" {
		return nil, nil
	}
	var sizes []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -bufs entry %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// runOpts is one invocation: the launch as a job request — the flags bind
// to its fields — and what only this process needs to know.
type runOpts struct {
	ptxPath, fatbinPath string
	req                 server.JobRequest
	profile, verbose    bool
}

// resolve makes req the one description of the launch every road takes:
// the module read in (a fat binary's PTX extracted), the request
// validated, and a benchmark's name replaced by its source, kernel and
// own geometry (server.JobRequest.Resolved).
func (o *runOpts) resolve() error {
	switch {
	case o.ptxPath != "":
		src, err := os.ReadFile(o.ptxPath)
		if err != nil {
			return err
		}
		o.req.PTX = string(src)
	case o.fatbinPath != "":
		bin, err := os.ReadFile(o.fatbinPath)
		if err != nil {
			return err
		}
		if o.req.PTX, err = fatbin.ExtractPTX(bin); err != nil {
			return err
		}
	case o.req.Bench == "":
		return fmt.Errorf("one of -ptx, -fatbin or -bench is required")
	case bench.ByName(o.req.Bench) == nil:
		var names []string
		for _, b := range bench.All() {
			names = append(names, b.Name)
		}
		return fmt.Errorf("unknown benchmark %q; available: %s", o.req.Bench, strings.Join(names, ", "))
	}
	if err := o.req.Validate(0); err != nil {
		return err
	}
	o.req = o.req.Resolved()
	return nil
}

// run is the local road; it returns the exit status (see printReport).
func run(w io.Writer, o runOpts) (int, error) {
	req := o.req
	s, err := detector.OpenPTX(req.PTX, req.Config)
	if err != nil {
		return 0, err
	}
	kernel, err := s.KernelOrFirst(req.Kernel)
	if err != nil {
		return 0, err
	}
	args, err := s.AllocArgs(req.Buffers)
	if err != nil {
		return 0, err
	}
	launch := detector.Launch1D(req.Grid, req.Block, args, req.MaxInstrs, req.WarpSize)
	if o.profile {
		p := profile.New()
		if _, err := s.LaunchInto(kernel, launch, p); err != nil {
			return 0, err
		}
		fmt.Fprint(w, p.Report().String())
		return 0, nil
	}
	res, err := s.Detect(kernel, launch)
	if err != nil {
		return 0, err
	}
	return printResult(w, kernel, res, o.verbose), nil
}

// printReport prints what every road hands back — a header line and a
// core.Report, the detector's own or one rebuilt from a summary or a JSON
// result — and returns the exit status: 2 for a race or a divergence.
func printReport(w io.Writer, header string, rep *core.Report, verbose bool) int {
	fmt.Fprintln(w, header)
	for _, d := range rep.Divergences {
		fmt.Fprintf(w, "BARRIER DIVERGENCE: block %d warp %d at line %d (mask %#x)\n",
			d.Block, d.Warp, d.PC, d.Mask)
	}
	if rep.RaceCount() == 0 {
		fmt.Fprintln(w, "no races detected")
	}
	for _, r := range rep.Races {
		fmt.Fprintln(w, r.String())
		if verbose {
			fmt.Fprintf(w, "  %d dynamic occurrence(s)\n", r.Count)
		}
	}
	if rep.SameValueGag > 0 {
		fmt.Fprintf(w, "%d same-value intra-warp write(s) filtered\n", rep.SameValueGag)
	}
	if rep.PrecisionDegraded {
		fmt.Fprintf(w, "PRECISION DEGRADED: the shadow byte cap discarded live state (%d live eviction(s)); races may have been missed\n",
			rep.Shadow.LiveEvictions)
	}
	if rep.RaceCount() > 0 || len(rep.Divergences) > 0 {
		return 2
	}
	return 0
}

// printResult is the local road's: the report, then under -v the tail
// only a run in this process can give.
func printResult(w io.Writer, kernel string, res *detector.Result, verbose bool) int {
	rep := res.Report
	status := printReport(w, fmt.Sprintf("kernel %s: %d warp instructions, %d records, %v",
		kernel, res.SimStats.WarpInstrs, res.SimStats.Records, res.Duration.Round(0)), rep, verbose)
	if verbose {
		for _, f := range []ptvc.Format{ptvc.Converged, ptvc.Diverged, ptvc.NestedDiverged, ptvc.SparseVC} {
			if n := res.Formats[f]; n > 0 {
				fmt.Fprintf(w, "PTVC %s: %d group(s)\n", f, n)
			}
		}
		// Lanes per instruction is what says whether a job runs the
		// interpreter's whole-warp walk; the rate is over the detection
		// wall, so a detector-bound job reads low here.
		sim := res.SimStats
		fmt.Fprintf(w, "sim: %d warp instruction(s), %.1f lane(s) per instruction, %d barrier(s), %d divergence(s), %.1f M warp-instr/s of detect wall\n",
			sim.WarpInstrs, float64(sim.ThreadInstrs)/float64(max(sim.WarpInstrs, 1)), sim.Barriers, sim.Divergences,
			float64(sim.WarpInstrs)/1e6/max(res.Duration.Seconds(), 1e-9))
		sh := rep.Shadow
		fmt.Fprintf(w, "shadow: %d word-granular region(s), %d at the configured granularity, %d refinement(s), peak %d bytes, %d-byte cells, %d read map(s) inflated\n",
			sh.WordRegions, sh.ByteRegions, sh.Refinements, sh.PeakResidentBytes, sh.CellBytes, sh.ReadInflations)
		// The process's pool, not this run's shadow: a one-shot run took
		// every page slab fresh and has handed them all back by now.
		pool := shadow.SlabPoolStats()
		fmt.Fprintf(w, "slabs: %d page slab(s) recycled, %d fresh, %d bytes pooled\n", pool.SlabsRecycled, pool.SlabsFresh, pool.PoolBytes)
		tr := res.Transport
		fmt.Fprintf(w, "transport: %d record(s) in %d bytes: %d coalesced, %d strided, %d irregular, %d with values; ring full %d time(s), producer blocked %v; %d empty poll(s)\n",
			tr.Records, tr.Bytes, tr.Coalesced, tr.Strided, tr.Irregular, tr.WithVals,
			tr.FullWaits, tr.Blocked.Round(time.Microsecond), tr.EmptyPolls)
	}
	return status
}
