package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"barracuda/internal/bench"
	"barracuda/internal/bugsuite"
	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
	"barracuda/internal/instrument"
	"barracuda/internal/kernel"
	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/ptx"
	"barracuda/internal/staticanalysis"
	"barracuda/internal/trace"
)

// program is one benchmark input: PTX text, a launch, and the verdict a
// correct detector must reach on it. Launch extents are 1-D because that
// is what a server.JobRequest can express.
type program struct {
	name   string
	src    string
	kernel string
	grid   int
	block  int
	bufs   []int
	budget uint64 // warp-instruction budget; 0 = none
	// wholeGrid: blocks wait for one another (a spin on a flag another block
	// sets), so a clamped launch would spin into the budget.
	wholeGrid bool
	racy      bool // the expected verdict has a race, so time-to-first-race exists
	check     func(*core.Report) error
}

// suitePrograms are the 26 Table-1 stand-ins with their engineered race
// counts.
func suitePrograms() []*program {
	var out []*program
	for _, b := range bench.All() {
		b := b
		out = append(out, &program{
			name: b.Name, src: b.PTX(), kernel: "main",
			grid: b.Grid.Count(), block: b.Block.Count(), bufs: b.Buffers(),
			racy:  b.ExpectRaces > 0,
			check: func(rep *core.Report) error { return bench.VerifyRaces(b, rep) },
		})
	}
	return out
}

// bugsuiteBudget is the step budget bugsuite itself runs its kernels under.
const bugsuiteBudget = 1 << 19

// bugPrograms are the §6.1 programs with their hand-written verdicts.
func bugPrograms() []*program {
	var out []*program
	for _, t := range bugsuite.Tests() {
		t := t
		out = append(out, &program{
			name: t.Name, src: t.PTX, kernel: t.Kernel,
			grid: t.Grid.Count(), block: t.Block.Count(), bufs: t.Bufs,
			budget: bugsuiteBudget, wholeGrid: true,
			racy: t.Expect == bugsuite.Racy,
			check: func(rep *core.Report) error {
				v := bugsuite.VClean
				switch {
				case len(rep.Divergences) > 0:
					v = bugsuite.VDiverged
				case rep.HasRaces():
					v = bugsuite.VRacy
				}
				if !t.Expect.Correct(v) {
					return fmt.Errorf("%s: verdict %v, want %v", t.Name, v, t.Expect)
				}
				return nil
			},
		})
	}
	return out
}

// clamped reports whether a launch of at most maxBlocks blocks (0 = no
// limit) is smaller than the program's own.
func (p *program) clamped(maxBlocks int) bool {
	return maxBlocks > 0 && p.grid > maxBlocks && !p.wholeGrid
}

// launch builds the program's launch. A clamped grid lets the warm-up pass
// and the smoke test run every code path at a fraction of the cost; the
// verdict check is skipped then, because it holds for the full launch only.
func (p *program) launch(args []uint64, maxBlocks int) gpusim.LaunchConfig {
	grid := p.grid
	if p.clamped(maxBlocks) {
		grid = maxBlocks
	}
	return gpusim.LaunchConfig{
		Grid: gpusim.D1(grid), Block: gpusim.D1(p.block),
		Args: args, MaxWarpInstrs: p.budget,
	}
}

func (p *program) verify(rep *core.Report, maxBlocks int) error {
	if p.clamped(maxBlocks) {
		return nil
	}
	return p.check(rep)
}

func allocBuffers(dev *gpusim.Device, sizes []int) ([]uint64, error) {
	args := make([]uint64, 0, len(sizes))
	for _, n := range sizes {
		a, err := dev.Alloc(n)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	return args, nil
}

func zeroBuffers(dev *gpusim.Device, args []uint64, sizes []int) error {
	for i, a := range args {
		if err := dev.Memset(a, 0, sizes[i]); err != nil {
			return err
		}
	}
	return nil
}

// jobTimes is one library job, PTX text in to canonical digest out.
type jobTimes struct {
	wall, open, detect, ttfr float64 // seconds; ttfr is 0 when no race was reported
	res                      *detector.Result
	digest                   string
}

// libraryJob is what a library or CLI user runs: OpenPTX on a cold session,
// allocate, Detect, digest the report.
func libraryJob(p *program, cfg detector.Config, maxBlocks int, sl *spanLog, parent, op int) (jobTimes, error) {
	var jt jobTimes
	start := time.Now()
	job := sl.begin("job", parent, op)
	defer sl.end(job)

	id := sl.begin("detector.open", job, op)
	s, err := detector.OpenPTX(p.src, cfg)
	sl.end(id)
	jt.open = time.Since(start).Seconds()
	if err != nil {
		return jt, fmt.Errorf("%s: open: %w", p.name, err)
	}
	id = sl.begin("harness.alloc", job, op)
	args, err := allocBuffers(s.Dev, p.bufs)
	sl.end(id)
	if err != nil {
		return jt, fmt.Errorf("%s: alloc: %w", p.name, err)
	}

	// onRace runs on the detection goroutine, which Detect joins before it
	// returns, so firstRace needs no lock.
	var firstRace time.Duration
	id = sl.begin("detector.detect", job, op)
	t := time.Now()
	jt.res, err = s.DetectObserved(p.kernel, p.launch(args, maxBlocks), func(core.Race) {
		if firstRace == 0 {
			firstRace = time.Since(start)
		}
	})
	jt.detect = time.Since(t).Seconds()
	sl.end(id)
	if err != nil {
		return jt, fmt.Errorf("%s: detect: %w", p.name, err)
	}
	id = sl.begin("core.digest", job, op)
	jt.digest = jt.res.Report.CanonicalDigest()
	sl.end(id)
	jt.wall = time.Since(start).Seconds()
	jt.ttfr = firstRace.Seconds()
	return jt, nil
}

// nativeSession loads a program uninstrumented on a fresh device.
type nativeSession struct {
	p    *program
	dev  *gpusim.Device
	mod  *gpusim.Module
	args []uint64
}

func openNative(p *program) (*nativeSession, error) {
	m, err := ptx.Parse(p.src)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", p.name, err)
	}
	dev := gpusim.NewDevice(0)
	mod, err := dev.LoadModule(m)
	if err != nil {
		return nil, fmt.Errorf("%s: load: %w", p.name, err)
	}
	args, err := allocBuffers(dev, p.bufs)
	if err != nil {
		return nil, fmt.Errorf("%s: alloc: %w", p.name, err)
	}
	return &nativeSession{p: p, dev: dev, mod: mod, args: args}, nil
}

// run times one native launch: Fig. 10's denominator.
func (n *nativeSession) run(maxBlocks int) (float64, error) {
	t := time.Now()
	_, err := n.mod.Launch(n.p.kernel, n.p.launch(n.args, maxBlocks))
	d := time.Since(t).Seconds()
	if err != nil {
		return 0, fmt.Errorf("%s: native: %w", n.p.name, err)
	}
	return d, nil
}

// samples keeps timing samples per key (a program name).
type samples map[string][]float64

func (s samples) add(key string, v float64) { s[key] = append(s[key], v) }

func (s samples) keys() []string {
	ks := make([]string, 0, len(s))
	for k := range s {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// medians returns each key's median, in key order.
func (s samples) medians() []float64 {
	var out []float64
	for _, k := range s.keys() {
		out = append(out, median(s[k]))
	}
	return out
}

// ratios returns median(s[k]) / median(den[k]) for every key of s.
func (s samples) ratios(den samples) []float64 {
	var out []float64
	for _, k := range s.keys() {
		out = append(out, ratio(median(s[k]), median(den[k])))
	}
	return out
}

func (s samples) count() int {
	n := 0
	for _, v := range s {
		n += len(v)
	}
	return n
}

// verdictLines is a canonical digest without its records= line: the races
// and divergences. Pruning and filtering exist to shrink the record stream;
// what they may not move is the verdict.
func verdictLines(digest string) string {
	var keep []string
	for _, line := range strings.Split(digest, "\n") {
		if !strings.HasPrefix(line, "records=") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// suiteDigest folds the per-program verdicts, in program order, into one
// value two workloads can be compared by.
func suiteDigest(progs []*program, digests map[string]string) string {
	h := sha256.New()
	for _, p := range progs {
		io.WriteString(h, p.name)
		io.WriteString(h, "\n")
		io.WriteString(h, verdictLines(digests[p.name]))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// warmBlocks clamps the untimed warm-up's launches.
const warmBlocks = 4

// warmSweep is the untimed warm-up: every program once, native and
// detected, at no more than maxBlocks blocks.
func warmSweep(progs []*program, cfg detector.Config, maxBlocks int) error {
	for _, p := range progs {
		n, err := openNative(p)
		if err != nil {
			return err
		}
		if _, err := n.run(maxBlocks); err != nil {
			return err
		}
		if _, err := libraryJob(p, cfg, maxBlocks, nil, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// runSuite measures a suite26_* workload. Untraced, it repeats sweeps over
// the 26 programs — each native once and detected once from PTX text — for
// p.seconds, always finishing the first sweep, and reports from per-program
// medians. Traced, it runs the stages one at a time instead.
func runSuite(w *workloadDef, p params) (*result, error) {
	res := &result{Workload: w.Name}
	var progs []*program
	var setups []float64
	for i := 0; i < p.setups(); i++ {
		t := time.Now()
		progs = suitePrograms()
		if err := warmSweep(progs, w.Config, p.warmBlocks()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	res.Ops = fmt.Sprintf("programs=%d", len(progs))
	if p.trace {
		return res, tracedLibrary(res, progs, w.Config, p)
	}
	cal := newCalibrator()

	native, wall, detect, ttfr := samples{}, samples{}, samples{}, samples{}
	digests := make(map[string]string)
	var sweepRSS []float64
	rng := rand.New(rand.NewSource(p.seed))
	maxBlocks := p.maxBlocks()
	deadline := time.Now().Add(p.duration())
	for whole := true; whole; {
		// The heap goes back to the OS and the high-water mark is reset, so
		// each whole sweep has a peak of its own: where in a growing heap
		// the collector happens to run moves one sweep's peak by a third,
		// and the process-wide maximum would report the unluckiest sweep.
		debug.FreeOSMemory()
		resetPeakRSS()
		// A seeded order per sweep, so no program always runs behind the
		// same neighbour's garbage.
		for _, i := range rng.Perm(len(progs)) {
			if len(sweepRSS) > 0 && time.Now().After(deadline) {
				whole = false
				break
			}
			pr := progs[i]
			res.Attempted += 2
			// A library user's job starts on a clean heap; collecting the
			// previous program's garbage is not part of this one's time. The
			// probe runs on the clean heap too, once per program.
			runtime.GC()
			cal.probe()
			n, err := openNative(pr)
			if err == nil {
				var d float64
				if d, err = n.run(maxBlocks); err == nil {
					native.add(pr.name, d)
				}
			}
			if err != nil {
				res.fail(err)
			}
			runtime.GC()
			jt, err := libraryJob(pr, w.Config, maxBlocks, nil, 0, 0)
			if err == nil {
				err = pr.verify(jt.res.Report, maxBlocks)
			}
			if err != nil {
				res.fail(err)
				continue
			}
			wall.add(pr.name, jt.wall)
			detect.add(pr.name, jt.detect)
			if pr.racy && jt.ttfr > 0 {
				ttfr.add(pr.name, jt.ttfr)
			}
			digests[pr.name] = jt.digest
		}
		if whole {
			sweepRSS = append(sweepRSS, peakRSSMiB())
		}
	}
	res.Ops += fmt.Sprintf(" sweeps=%.1f jobs=%d native_runs=%d", float64(wall.count())/float64(len(progs)), wall.count(), native.count())
	res.Digest = suiteDigest(progs, digests)

	// Every timing below is in calibrated seconds (calib.go); overhead_x is
	// a ratio of two of them and peak_rss_mb is not a timing.
	slow := cal.slowdown()
	res.Calib = cal.summary()
	walls := wall.medians()
	for i := range walls {
		walls[i] /= slow
	}
	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups)/slow, len(setups))
	m.set("sweep_s", sum(walls), wall.count())
	m.set("overhead_x", geomean(detect.ratios(native)), len(walls))
	// The 26 job sizes span three decades, so a percentile of them is one
	// program's noise. The centre is their geometric mean, the tail the
	// heaviest program, and time to first race a mean, which the long
	// kernels carry: each moves with every program or with the sweep.
	m.set("job_ms_p50", ms(geomean(walls)), len(walls))
	m.set("job_ms_p95", ms(quantile(walls, 1)), len(walls))
	m.set("jobs_per_s", ratio(float64(len(walls)), sum(walls)), wall.count())
	m.set("ttfr_ms_p50", ms(mean(ttfr.medians())/slow), len(ttfr))
	m.set("peak_rss_mb", median(sweepRSS), len(sweepRSS))
	res.Metrics = m.vals
	res.Rows = overheadRows(progs, native, detect)
	return res, nil
}

// overheadRows is Fig. 10 by program: the untraced pass's medians.
func overheadRows(progs []*program, native, detect samples) []string {
	rows := []string{fmt.Sprintf("%-36s %10s %10s %10s %4s", "program", "native_ms", "detect_ms", "overhead_x", "n")}
	for _, p := range progs {
		n, d := median(native[p.name]), median(detect[p.name])
		rows = append(rows, fmt.Sprintf("%-36s %10.2f %10.2f %10.2f %4d", p.name, ms(n), ms(d), ratio(d, n), len(detect[p.name])))
	}
	return rows
}

// queueCap is detector.Config's default per-queue capacity.
const queueCap = 4096

// countSink counts records and drops them: the producer alone.
type countSink struct{ n uint64 }

func (s *countSink) Emit(*logging.Record) { s.n++ }

// captureSink keeps the record stream for the consumer-side stages.
type captureSink struct{ records []logging.Record }

func (s *captureSink) Emit(r *logging.Record) { s.records = append(s.records, *r) }

// layerSamples keeps per-layer-metric, per-program samples of the traced
// pass; a layer metric is the sum over programs of each program's median.
type layerSamples map[string]samples

func (l layerSamples) add(metric, prog string, v float64) {
	if l[metric] == nil {
		l[metric] = samples{}
	}
	l[metric].add(prog, v)
}

func (l layerSamples) total(metric string) float64 { return sum(l[metric].medians()) }

func (l layerSamples) of(metric, prog string) float64 { return median(l[metric][prog]) }

// stages runs one program through the pipeline one layer at a time, on one
// goroutine, timing each exported call, and then once more live.
func stages(p *program, cfg detector.Config, maxBlocks int, sl *spanLog, parent, op int, ls layerSamples) error {
	root := sl.begin("stages", parent, op)
	defer sl.end(root)
	stage := func(name string) int { return sl.begin(name, root, op) }
	done := func(id int, metric string) float64 {
		d := sl.end(id)
		ls.add(metric, p.name, ms(d))
		return d
	}

	id := stage("ptx.parse")
	m, err := ptx.Parse(p.src)
	done(id, "ptx.parse_ms")
	if err != nil {
		return fmt.Errorf("%s: parse: %w", p.name, err)
	}
	ls.add("ptx.src_bytes", p.name, float64(len(p.src)))

	id = stage("instrument.instrument")
	inst, err := instrument.Instrument(m, instrument.Options{NoPrune: cfg.NoPrune, StaticPrune: cfg.StaticPrune})
	done(id, "instrument.instrument_ms")
	if err != nil {
		return fmt.Errorf("%s: instrument: %w", p.name, err)
	}
	ks := inst.TotalStats()
	sites := ks.Instrumented
	if cfg.StaticPrune {
		sites = ks.InstrumentedStatic
	}
	ls.add("instrument.sites", p.name, float64(sites))
	ls.add("instrument.static", p.name, float64(ks.Static))

	// Standalone: the pipeline runs the analysis inside Instrument, and
	// only with StaticPrune, so this is what the analysis would cost, not
	// a share of the job.
	var analyze float64
	for _, k := range m.Kernels {
		c, err := kernel.Build(k)
		if err != nil {
			return fmt.Errorf("%s: cfg: %w", p.name, err)
		}
		id = stage("staticanalysis.analyze")
		staticanalysis.Analyze(c)
		analyze += sl.end(id)
	}
	ls.add("staticanalysis.analyze_ms", p.name, ms(analyze))

	dev := gpusim.NewDevice(0)
	id = stage("gpusim.load")
	nat, err := dev.LoadModule(m)
	var ins *gpusim.Module
	if err == nil {
		ins, err = dev.LoadModule(inst.Module)
	}
	done(id, "gpusim.load_ms")
	if err != nil {
		return fmt.Errorf("%s: load: %w", p.name, err)
	}
	args, err := allocBuffers(dev, p.bufs)
	if err != nil {
		return fmt.Errorf("%s: alloc: %w", p.name, err)
	}
	launch := p.launch(args, maxBlocks)

	id = stage("gpusim.native")
	_, err = nat.Launch(p.kernel, launch)
	done(id, "gpusim.native_ms")
	if err != nil {
		return fmt.Errorf("%s: native: %w", p.name, err)
	}

	if err := zeroBuffers(dev, args, p.bufs); err != nil {
		return err
	}
	logged := launch
	logged.EmitBranchEvents = true
	logged.ProducerFilter = cfg.ProducerFilter
	logged.FilterGranularity = cfg.Granularity
	logged.Sink = &countSink{}
	id = stage("gpusim.produce")
	sim, err := ins.Launch(p.kernel, logged)
	produce := done(id, "gpusim.produce_ms")
	if err != nil {
		return fmt.Errorf("%s: produce: %w", p.name, err)
	}
	ls.add("gpusim.warp_instrs", p.name, float64(sim.WarpInstrs))
	ls.add("gpusim.records", p.name, float64(sim.Records))
	ls.add("gpusim.suppressed", p.name, float64(sim.Filter.Suppressed()))

	if err := zeroBuffers(dev, args, p.bufs); err != nil {
		return err
	}
	stream := &captureSink{}
	logged.Sink = stream
	id = stage("harness.capture")
	_, err = ins.Launch(p.kernel, logged)
	sl.end(id)
	if err != nil {
		return fmt.Errorf("%s: capture: %w", p.name, err)
	}

	// The transport alone: one producer, one consumer that only drains.
	id = stage("logging.transport")
	q := logging.NewSet(1, queueCap).Queues[0]
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]logging.Record, 256)
		var bo logging.Backoff
		for {
			n := q.DequeueBatch(buf)
			if n == 0 {
				bo.Wait()
				continue
			}
			bo.Reset()
			if buf[n-1].Op == trace.OpEnd {
				return
			}
		}
	}()
	for i := range stream.records {
		q.Enqueue(&stream.records[i])
	}
	q.Enqueue(&logging.Record{Op: trace.OpEnd})
	<-drained
	done(id, "logging.transport_ms")

	// The detector alone: the captured records on this goroutine, no queue.
	k := inst.Module.Kernel(p.kernel)
	if k == nil {
		return fmt.Errorf("%s: unknown kernel %q", p.name, p.kernel)
	}
	geo := ptvc.Geometry{WarpSize: gpusim.WarpSize, BlockSize: launch.Block.Count(), Blocks: launch.Grid.Count()}
	id = stage("core.detect")
	det := core.New(geo, k.SharedBytes(), core.Options{
		Granularity: cfg.Granularity, MaxRaces: cfg.MaxRaces,
		NoSameValueFilter: cfg.NoSameValueFilter, FullVC: cfg.FullVC,
		PerCellShadow: cfg.PerCellShadow, Ownership: cfg.Ownership,
		ShadowCapBytes: cfg.ShadowCapBytes,
	})
	wk := det.NewWorker()
	for i := range stream.records {
		wk.Handle(&stream.records[i])
	}
	consume := done(id, "core.detect_ms")
	id = stage("core.report")
	rep := det.Report()
	staged := rep.CanonicalDigest()
	done(id, "core.report_ms")
	if err := p.verify(rep, maxBlocks); err != nil {
		return fmt.Errorf("staged: %w", err)
	}
	ls.add("core.records", p.name, float64(len(stream.records)))
	ls.add("core.races", p.name, float64(rep.RaceCount()))
	ls.add("core.same_value_filtered", p.name, float64(rep.SameValueGag))
	ls.add("shadow.peak_bytes", p.name, float64(rep.Shadow.PeakResidentBytes))
	ls.add("shadow.owned_fast", p.name, float64(rep.Shadow.OwnedFast))
	ls.add("shadow.inflations", p.name, float64(rep.Shadow.Inflations))
	var sampled uint64
	hist := det.FormatHistogram()
	for _, n := range hist {
		sampled += n
	}
	ls.add("ptvc.converged", p.name, float64(hist[ptvc.Converged]))
	ls.add("ptvc.sampled", p.name, float64(sampled))

	// The same job live, producer and consumer overlapped.
	jt, err := libraryJob(p, cfg, maxBlocks, sl, root, op)
	if err != nil {
		return err
	}
	if err := p.verify(jt.res.Report, maxBlocks); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	if jt.digest != staged {
		return fmt.Errorf("%s: staged digest differs from the live job's", p.name)
	}
	ls.add("detector.open_ms", p.name, ms(jt.open))
	ls.add("detector.detect_ms", p.name, ms(jt.detect))
	ls.add("detector.stall_ms", p.name, ms(jt.detect-max(produce, consume)))
	ls.add("job_ms", p.name, ms(jt.wall))
	return nil
}

// libraryLayers turns the traced pass's samples into the library layers'
// metrics.
func libraryLayers(m *metricSet, ls layerSamples) {
	n := ls["job_ms"].count()
	for _, name := range []string{
		"ptx.parse_ms", "ptx.src_bytes", "instrument.instrument_ms", "staticanalysis.analyze_ms",
		"gpusim.load_ms", "gpusim.native_ms", "gpusim.produce_ms", "gpusim.warp_instrs", "gpusim.records",
		"logging.transport_ms", "core.detect_ms", "core.report_ms", "core.races", "core.same_value_filtered",
		"shadow.inflations", "detector.open_ms", "detector.detect_ms", "detector.stall_ms",
	} {
		m.set(name, ls.total(name), n)
	}
	// The shadow of one job is gone before the next starts, so the peak is
	// the largest program's, not the sum.
	m.set("shadow.peak_bytes", quantile(ls["shadow.peak_bytes"].medians(), 1), n)
	m.set("instrument.sites_frac", ratio(ls.total("instrument.sites"), ls.total("instrument.static")), 0)
	m.set("gpusim.warp_instrs_per_s", ratio(ls.total("gpusim.warp_instrs"), ls.total("gpusim.produce_ms")/1e3), n)
	emitted, suppressed := ls.total("gpusim.records"), ls.total("gpusim.suppressed")
	m.set("gpusim.filter_suppressed_frac", ratio(suppressed, emitted+suppressed), 0)
	m.set("logging.records_per_s", ratio(ls.total("core.records"), ls.total("logging.transport_ms")/1e3), n)
	m.set("core.records_per_s", ratio(ls.total("core.records"), ls.total("core.detect_ms")/1e3), n)
	m.set("shadow.owned_fast_frac", ratio(ls.total("shadow.owned_fast"), ls.total("core.records")), 0)
	m.set("ptvc.converged_frac", ratio(ls.total("ptvc.converged"), ls.total("ptvc.sampled")), 0)
	m.set("detector.overlap_x", ratio(ls.total("gpusim.produce_ms")+ls.total("core.detect_ms"), ls.total("detector.detect_ms")), n)
}

// tracedPrograms runs the stage pass over progs until the time is up, the
// first pass always whole, and returns the samples.
func tracedPrograms(res *result, progs []*program, cfg detector.Config, p params, sl *spanLog, root int) layerSamples {
	ls := layerSamples{}
	deadline := time.Now().Add(p.duration())
	for pass := 0; ; pass++ {
		for i, pr := range progs {
			if pass > 0 && time.Now().After(deadline) {
				return ls
			}
			res.Attempted++
			if err := stages(pr, cfg, p.maxBlocks(), sl, root, pass*len(progs)+i+1, ls); err != nil {
				res.fail(err)
			}
		}
	}
}

// tracedLibrary is a suite26_* workload's traced pass.
func tracedLibrary(res *result, progs []*program, cfg detector.Config, p params) error {
	sl := newSpanLog()
	root := sl.begin("run", 0, 0)
	ls := tracedPrograms(res, progs, cfg, p, sl, root)
	sl.end(root)

	m := newMetricSet(perLayer)
	libraryLayers(m, ls)
	m.set("trace.attributed_frac", sl.attributedFrac("job"), 0)
	m.set("trace.spans", float64(len(sl.spans)), 0)
	res.Metrics = m.vals
	res.Rows = programRows(progs, ls)
	res.spans = sl
	return nil
}

// programRows is the per-program table: where each program's time goes and
// which side of the pipeline bounds its detection.
func programRows(progs []*program, ls layerSamples) []string {
	rows := []string{fmt.Sprintf("%-36s %10s %10s %10s %10s %8s  %s",
		"program", "native_ms", "produce_ms", "consume_ms", "detect_ms", "stall_ms", "bound")}
	for _, p := range progs {
		if len(ls["job_ms"][p.name]) == 0 {
			continue
		}
		produce, consume := ls.of("gpusim.produce_ms", p.name), ls.of("core.detect_ms", p.name)
		bound := "producer"
		if consume > produce {
			bound = "consumer"
		}
		rows = append(rows, fmt.Sprintf("%-36s %10.2f %10.2f %10.2f %10.2f %8.2f  %s",
			p.name, ls.of("gpusim.native_ms", p.name), produce, consume,
			ls.of("detector.detect_ms", p.name), ls.of("detector.stall_ms", p.name), bound))
	}
	return rows
}
