// Package server turns the detector pipeline into a long-running
// detection service: an HTTP JSON API over a bounded job queue, a worker
// pool running detector.Session.Detect, and a content-addressed module
// cache so repeated submissions of the same PTX skip parse, instrument
// and module load entirely.
//
// It is the resident-service analogue of the paper's Figure 5 host side:
// where BARRACUDA keeps detector threads alive next to the instrumented
// application for the life of the process, barracudad keeps warm
// instrumented modules and detector workers alive across *many*
// applications' jobs.
package server

import (
	"fmt"
	"strconv"

	"barracuda/internal/bench"
	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
	"barracuda/internal/logging"
	"barracuda/internal/shadow"
	"barracuda/internal/vc"
	"barracuda/internal/wire"
)

// JobRequest is one detection job submission (POST /jobs). Exactly one
// of PTX or Bench selects the module; for Bench jobs the kernel, launch
// geometry and buffers default to the benchmark's own.
type JobRequest struct {
	// PTX is inline PTX source to analyze.
	PTX string `json:"ptx,omitempty"`
	// Bench names a built-in Table 1 benchmark instead.
	Bench string `json:"bench,omitempty"`
	// Kernel is the entry to launch (default: the module's first
	// kernel; "main" for benchmarks).
	Kernel string `json:"kernel,omitempty"`
	// Grid and Block are 1-D launch extents (default 1 and 32).
	Grid  int `json:"grid,omitempty"`
	Block int `json:"block,omitempty"`
	// Buffers are byte sizes of zeroed global buffers allocated (or
	// reused, for cached modules) and passed as u64 kernel arguments.
	Buffers []int `json:"buffers,omitempty"`
	// Config tunes the detector; its JSON field names are
	// detector.Config's tags.
	Config detector.Config `json:"config"`
	// TimeoutMS is the per-job wall-clock budget (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxInstrs is the dynamic warp-instruction budget (0 = server
	// default; the server always enforces one so spin loops terminate).
	MaxInstrs uint64 `json:"max_instrs,omitempty"`
	// WarpSize overrides the simulated warp width (0 = 32).
	WarpSize int `json:"warp_size,omitempty"`
	// Class is the scheduling class: "batch" (default) or
	// "interactive". The fleet coordinator routes interactive jobs
	// ahead of batch work; a standalone worker records it only.
	Class string `json:"class,omitempty"`
	// Kind selects the work: "detect" (default) runs one detection
	// launch; "repair" runs the verified repair-synthesis loop and
	// returns a RepairReport in the result. Repair jobs are batch-class
	// by nature (they run many launches) and the fleet coordinator
	// forces them onto the batch queue.
	Kind string `json:"kind,omitempty"`
}

// Job kinds.
const (
	KindDetect = "detect"
	KindRepair = "repair"
)

// Job priority classes, used by the fleet coordinator. A plain worker
// accepts and records the class but schedules FIFO; the coordinator
// gives "interactive" submissions strict priority and a reserved slot
// so they are never starved behind batch detection jobs.
const (
	ClassBatch       = "batch"
	ClassInteractive = "interactive"
)

// Validate checks the payload shape; the server maps errors to 400.
// Every error names the offending JSON field so clients (and the fleet
// coordinator) can report precisely what to fix.
func (r *JobRequest) Validate(maxBufferBytes int64) error {
	if err := checkModule("job", r.PTX, r.Bench); err != nil {
		return err
	}
	if err := checkLaunch("job", r.Grid, r.Block, r.Buffers, maxBufferBytes); err != nil {
		return err
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("job: field \"timeout_ms\": must be >= 0, got %d", r.TimeoutMS)
	}
	if r.WarpSize != 0 && (r.WarpSize < 2 || r.WarpSize > 32) {
		return fmt.Errorf("job: field \"warp_size\": must be 0 or in [2,32], got %d", r.WarpSize)
	}
	if r.Class != "" && r.Class != ClassBatch && r.Class != ClassInteractive {
		return fmt.Errorf("job: field \"class\": must be %q or %q, got %q", ClassBatch, ClassInteractive, r.Class)
	}
	if r.Kind != "" && r.Kind != KindDetect && r.Kind != KindRepair {
		return fmt.Errorf("job: field \"kind\": must be %q or %q, got %q", KindDetect, KindRepair, r.Kind)
	}
	if err := r.Config.Validate(); err != nil {
		return fmt.Errorf("job: field \"config\": %w", err)
	}
	return nil
}

// checkLaunch is the launch clause of a job's and a repair's Validate:
// extents and buffer sizes non-negative, the buffers within the cap.
func checkLaunch(prefix string, grid, block int, buffers []int, maxBufferBytes int64) error {
	if grid < 0 {
		return fmt.Errorf("%s: field \"grid\": must be >= 0, got %d", prefix, grid)
	}
	if block < 0 {
		return fmt.Errorf("%s: field \"block\": must be >= 0, got %d", prefix, block)
	}
	var total int64
	for i, b := range buffers {
		if b < 0 {
			return fmt.Errorf("%s: field \"buffers[%d]\": must be >= 0, got %d", prefix, i, b)
		}
		total += int64(b)
	}
	if maxBufferBytes > 0 && total > maxBufferBytes {
		return fmt.Errorf("%s: field \"buffers\": total %d bytes exceeds the server limit %d", prefix, total, maxBufferBytes)
	}
	return nil
}

// checkModule is the module clause of every request's Validate: exactly
// one of ptx and bench, and a bench that exists.
func checkModule(prefix, ptx, benchName string) error {
	switch {
	case ptx == "" && benchName == "":
		return fmt.Errorf("%s: field \"ptx\"/\"bench\": exactly one must be set, got neither", prefix)
	case ptx != "" && benchName != "":
		return fmt.Errorf("%s: field \"ptx\"/\"bench\": exactly one must be set, got both", prefix)
	case benchName != "" && bench.ByName(benchName) == nil:
		return fmt.Errorf("%s: field \"bench\": unknown benchmark %q", prefix, benchName)
	}
	return nil
}

// moduleSource is the PTX a request that passed checkModule names.
func moduleSource(ptx, benchName string) string {
	if benchName != "" {
		return bench.ByName(benchName).PTX()
	}
	return ptx
}

// Resolved returns a validated request with its benchmark name, if any,
// replaced by what the name stands for: the generated source, kernel
// "main", and the benchmark's own geometry and buffers wherever the
// request set none. It is the identity on a PTX request. The scheduler
// and the fleet coordinator both call it, so a bench job is keyed,
// stored and forwarded as the PTX job it is.
func (r JobRequest) Resolved() JobRequest {
	if r.Bench == "" {
		return r
	}
	b := bench.ByName(r.Bench)
	r.PTX, r.Bench = b.PTX(), ""
	if r.Kernel == "" {
		r.Kernel = "main"
	}
	if r.Grid == 0 && r.Block == 0 {
		r.Grid, r.Block = b.Grid.Count(), b.Block.Count()
	}
	if r.Buffers == nil {
		r.Buffers = b.Buffers()
	}
	return r
}

// LaunchSpec is the request minus its module, as one LAUNCH frame;
// launchRequest is the inverse, on the module the session uploaded.
func (r JobRequest) LaunchSpec(seq uint64) wire.LaunchSpec {
	return wire.LaunchSpec{
		Seq:       seq,
		Kernel:    r.Kernel,
		Grid:      r.Grid,
		Block:     r.Block,
		WarpSize:  r.WarpSize,
		TimeoutMS: r.TimeoutMS,
		MaxInstrs: r.MaxInstrs,
		Buffers:   r.Buffers,
		Config:    r.Config,
		Kind:      r.Kind,
	}
}

func launchRequest(module string, spec wire.LaunchSpec) JobRequest {
	return JobRequest{
		PTX:       module,
		Kernel:    spec.Kernel,
		Grid:      spec.Grid,
		Block:     spec.Block,
		WarpSize:  spec.WarpSize,
		TimeoutMS: spec.TimeoutMS,
		MaxInstrs: spec.MaxInstrs,
		Buffers:   spec.Buffers,
		Config:    spec.Config,
		Kind:      spec.Kind,
	}
}

// Job lifecycle states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	StatusTimeout = "timeout"
)

// AccessJSON is one side of a reported race.
type AccessJSON struct {
	Thread int32  `json:"thread"`
	Line   uint32 `json:"line"`
	Write  bool   `json:"write"`
	Atomic bool   `json:"atomic,omitempty"`
}

// RaceJSON is one detected race.
type RaceJSON struct {
	Kind      string     `json:"kind"`  // intra-warp | intra-block | inter-block
	Space     string     `json:"space"` // global | shared | local
	Addr      string     `json:"addr"`  // hex device address
	Block     int32      `json:"block"` // -1 for global memory
	Count     int        `json:"count"` // dynamic occurrences
	SameInstr bool       `json:"same_instr,omitempty"`
	Prev      AccessJSON `json:"prev"`
	Cur       AccessJSON `json:"cur"`
	Summary   string     `json:"summary"`
}

// DivergenceJSON is one barrier-divergence report.
type DivergenceJSON struct {
	Block int    `json:"block"`
	Warp  int    `json:"warp"`
	Line  uint32 `json:"line"`
	Mask  string `json:"mask"`
}

// JobResult is the outcome of a completed detection run. For repair
// jobs (kind "repair"), Repair carries the full report and RaceCount is
// the baseline race count the repair loop started from.
type JobResult struct {
	Kernel            string           `json:"kernel"`
	RaceCount         int              `json:"race_count"`
	Races             []RaceJSON       `json:"races,omitempty"`
	Divergences       []DivergenceJSON `json:"divergences,omitempty"`
	SameValueFiltered uint64           `json:"same_value_filtered,omitempty"`
	WarpInstrs        uint64           `json:"warp_instrs"`
	Records           uint64           `json:"records"`
	// RecordsSeen is the detector-side record count (Report.RecordsSeen),
	// the figure CanonicalDigest covers. Records above is the
	// simulator-side count; the two agree on healthy runs but are sampled
	// at different layers, so both travel.
	RecordsSeen uint64                 `json:"records_seen"`
	DetectMS    float64                `json:"detect_ms"`
	Formats     map[string]int         `json:"ptvc_formats,omitempty"`
	Repair      *detector.RepairReport `json:"repair,omitempty"`
	// Shadow reports the shadow-memory occupancy and adaptive-tier
	// counters of the run; PrecisionDegraded is true when a bounded
	// shadow evicted live metadata (races may be under- but never
	// over-reported from that point).
	Shadow            *shadow.MemStats `json:"shadow,omitempty"`
	PrecisionDegraded bool             `json:"precision_degraded,omitempty"`
	// Filter reports the producer-side epoch filter's activity; present
	// only when the job ran with producer_filter set (the counters are
	// zero otherwise and the field is omitted).
	Filter *FilterJSON `json:"filter,omitempty"`
}

// FilterJSON is the per-job producer-filter activity on the wire.
// Suppressed is Hits + StaticElides: the records kept off the queue.
type FilterJSON struct {
	Probes       uint64 `json:"probes"`
	Hits         uint64 `json:"hits"`
	StaticElides uint64 `json:"static_elides"`
	Flushes      uint64 `json:"flushes"`
	Suppressed   uint64 `json:"suppressed_records"`
}

// JobInfo is the job envelope returned by the API.
type JobInfo struct {
	ID          string     `json:"id"`
	Status      string     `json:"status"`
	CacheHit    bool       `json:"cache_hit"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt string     `json:"submitted_at"`
	QueueWaitMS float64    `json:"queue_wait_ms,omitempty"`
	TotalMS     float64    `json:"total_ms,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

// CodeNotFound (404: unknown job id) is the JSON API's own ErrorJSON
// code; the rest are wire's, shared with the stream's rejects. Clients,
// the fleet coordinator in particular, branch on the code, not the
// message.
const CodeNotFound = "not_found"

// RetryableCode reports whether a failed request with this error code
// may succeed if retried on another node (or later on this one).
func RetryableCode(code string) bool {
	return code == wire.CodeQueueFull || code == wire.CodeUnavailable
}

// ErrorJSON is the error envelope for non-2xx responses. Code is
// CodeNotFound or one of wire's Code* constants; Error is the
// human-readable detail naming the offending field.
type ErrorJSON struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// One road back (DESIGN.md): detector.Result → wire.Summary → JobResult.
// summaryOf is the first link, less the envelope Job.finish stamps;
// durations are whole microseconds, as the frame has them.
func summaryOf(kernel string, res *detector.Result) wire.Summary {
	rep := res.Report
	f := res.SimStats.Filter
	return wire.Summary{
		Kernel:             kernel,
		Races:              rep.Races,
		Divergences:        rep.Divergences,
		RecordsSeen:        rep.RecordsSeen,
		WarpInstrs:         res.SimStats.WarpInstrs,
		SameValueFiltered:  rep.SameValueGag,
		DetectUS:           uint64(res.Duration.Microseconds()),
		ShadowPeakResident: uint64(rep.Shadow.PeakResidentBytes),
		ShadowLiveEvicts:   rep.Shadow.LiveEvictions,
		PrecisionDegraded:  rep.PrecisionDegraded,
		FilterSuppressed:   f.Suppressed(),
		FilterFlushes:      f.Flushes,
	}
}

// resultFromSummary is the second link, the worker's and the coordinator's
// alike; failed and timed-out jobs carry no result.
func resultFromSummary(sum wire.Summary) *JobResult {
	if sum.Status != StatusDone {
		return nil
	}
	if sum.Repair != nil {
		return &JobResult{Kernel: sum.Kernel, RaceCount: sum.Repair.BaselineRaces, Repair: sum.Repair}
	}
	rep := sum.Report()
	sh := rep.Shadow
	res := &JobResult{
		Kernel:            sum.Kernel,
		RaceCount:         len(sum.Races),
		SameValueFiltered: sum.SameValueFiltered,
		WarpInstrs:        sum.WarpInstrs,
		RecordsSeen:       sum.RecordsSeen,
		DetectMS:          float64(sum.DetectUS) / 1000,
		PrecisionDegraded: sum.PrecisionDegraded,
		Shadow:            &sh,
	}
	if sum.FilterSuppressed != 0 || sum.FilterFlushes != 0 {
		res.Filter = &FilterJSON{Suppressed: sum.FilterSuppressed, Flushes: sum.FilterFlushes}
	}
	for _, r := range rep.Races {
		res.Races = append(res.Races, RaceJSON{
			Kind:      r.Kind.String(),
			Space:     r.Space.String(),
			Addr:      fmt.Sprintf("%#x", r.Addr),
			Block:     r.Block,
			Count:     r.Count,
			SameInstr: r.SameInstr,
			Prev:      accessJSON(r.Prev),
			Cur:       accessJSON(r.Cur),
			Summary:   r.String(),
		})
	}
	for _, d := range rep.Divergences {
		res.Divergences = append(res.Divergences, DivergenceJSON{
			Block: d.Block, Warp: d.Warp, Line: d.PC,
			Mask: fmt.Sprintf("%#x", d.Mask),
		})
	}
	return res
}

// addWorkerExtras fills in what no SUMMARY frame carries: the simulator's
// record count, the PTVC census, and the full shadow and filter blocks.
func (r *JobResult) addWorkerExtras(res *detector.Result) {
	r.Records = res.SimStats.Records
	if len(res.Formats) > 0 {
		r.Formats = make(map[string]int, len(res.Formats))
		for f, n := range res.Formats {
			r.Formats[f.String()] = n
		}
	}
	*r.Shadow = res.Report.Shadow
	if f := res.SimStats.Filter; f != (gpusim.FilterStats{}) {
		r.Filter = &FilterJSON{
			Probes:       f.Probes,
			Hits:         f.Hits,
			StaticElides: f.StaticElides,
			Flushes:      f.Flushes,
			Suppressed:   f.Suppressed(),
		}
	}
}

// envelope is a summary's JobInfo without the result.
func envelope(id string, sum wire.Summary) JobInfo {
	return JobInfo{
		ID:          id,
		Status:      sum.Status,
		Error:       sum.Error,
		CacheHit:    sum.CacheHit,
		QueueWaitMS: float64(sum.QueueWaitUS) / 1000,
		TotalMS:     float64(sum.TotalUS) / 1000,
	}
}

// JobInfoFromSummary rebuilds the JSON JobInfo shape from a streamed
// terminal Summary; the fleet coordinator reports every job through it.
func JobInfoFromSummary(id string, sum wire.Summary) *JobInfo {
	info := envelope(id, sum)
	info.Result = resultFromSummary(sum)
	return &info
}

func accessJSON(a core.Access) AccessJSON {
	return AccessJSON{Thread: int32(a.TID), Line: a.PC, Write: a.Write, Atomic: a.Atomic}
}

// CoreReport reconstructs the detector report a result was projected
// from — the inverse of resultFromSummary over the fields CanonicalDigest
// covers. The streamed and polled paths are compared through this:
// digest(CoreReport(JSON)) must equal digest(Summary.Report()).
func (r *JobResult) CoreReport() (*core.Report, error) {
	rep := &core.Report{
		RecordsSeen:       r.RecordsSeen,
		SameValueGag:      r.SameValueFiltered,
		PrecisionDegraded: r.PrecisionDegraded,
	}
	if r.Shadow != nil {
		rep.Shadow = *r.Shadow
	}
	for i, rc := range r.Races {
		kind, ok := raceKinds[rc.Kind]
		if !ok {
			return nil, fmt.Errorf("result: races[%d]: unknown kind %q", i, rc.Kind)
		}
		space, ok := spaceIDs[rc.Space]
		if !ok {
			return nil, fmt.Errorf("result: races[%d]: unknown space %q", i, rc.Space)
		}
		var addr uint64
		if rc.Addr != "" {
			var err error
			if addr, err = strconv.ParseUint(rc.Addr, 0, 64); err != nil {
				return nil, fmt.Errorf("result: races[%d]: bad addr %q: %v", i, rc.Addr, err)
			}
		}
		rep.Races = append(rep.Races, core.Race{
			Kind:      kind,
			Space:     space,
			Block:     rc.Block,
			Addr:      addr,
			SameInstr: rc.SameInstr,
			Count:     rc.Count,
			Prev:      coreAccess(rc.Prev),
			Cur:       coreAccess(rc.Cur),
		})
	}
	for i, d := range r.Divergences {
		var mask uint64
		if d.Mask != "" {
			var err error
			if mask, err = strconv.ParseUint(d.Mask, 0, 32); err != nil {
				return nil, fmt.Errorf("result: divergences[%d]: bad mask %q: %v", i, d.Mask, err)
			}
		}
		rep.Divergences = append(rep.Divergences, core.BarrierDivergence{
			Block: d.Block, Warp: d.Warp, PC: d.Line, Mask: uint32(mask),
		})
	}
	return rep, nil
}

// raceKinds and spaceIDs invert the String methods resultFromSummary
// renders with, so a kind or space is named in one place.
var (
	raceKinds = byName(core.IntraWarp, core.IntraBlock, core.InterBlock)
	spaceIDs  = byName(logging.SpaceGlobal, logging.SpaceShared, logging.SpaceLocal)
)

func byName[T fmt.Stringer](vals ...T) map[string]T {
	m := make(map[string]T, len(vals))
	for _, v := range vals {
		m[v.String()] = v
	}
	return m
}

func coreAccess(a AccessJSON) core.Access {
	return core.Access{TID: vc.TID(a.Thread), PC: a.Line, Write: a.Write, Atomic: a.Atomic}
}
