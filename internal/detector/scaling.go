package detector

import (
	"fmt"
	"sync"
	"time"

	"barracuda/internal/core"
	"barracuda/internal/gpusim"
	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/trace"
)

// Capture is one kernel's full instrumentation record stream plus the
// launch facts the detector needs to replay it. It decouples record
// production (the single-goroutine SIMT simulator) from detection, so
// the multi-queue detector can be benchmarked at full producer speed:
// replay feeds each queue from its own goroutine, which is how the real
// BARRACUDA transport behaves (DMA engines per queue), while a live
// simulator run would serialize production and hide consumer-side
// scaling.
type Capture struct {
	Geo         ptvc.Geometry
	SharedBytes int64
	Records     []logging.Record
}

// captureSink retains every emitted record.
type captureSink struct {
	records []logging.Record
}

func (s *captureSink) Emit(r *logging.Record) {
	s.records = append(s.records, *r)
}

// Capture runs the instrumented kernel once, collecting the record
// stream instead of detecting on it.
func (s *Session) Capture(kernelName string, launch gpusim.LaunchConfig) (*Capture, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	k := s.InstMod.Kernel(kernelName)
	if k == nil {
		return nil, fmt.Errorf("detector: unknown kernel %q", kernelName)
	}
	ws := launch.WarpSize
	if ws == 0 {
		ws = gpusim.WarpSize
	}
	geo := ptvc.Geometry{
		WarpSize:  ws,
		BlockSize: launch.Block.Count(),
		Blocks:    launch.Grid.Count(),
	}
	if geo.BlockSize == 0 {
		geo.BlockSize = 1
	}
	if geo.Blocks == 0 {
		geo.Blocks = 1
	}
	sink := &captureSink{}
	launch.Sink = sink
	launch.EmitBranchEvents = true
	if _, err := s.Instr.Launch(kernelName, launch); err != nil {
		return nil, err
	}
	return &Capture{Geo: geo, SharedBytes: k.SharedBytes(), Records: sink.records}, nil
}

// ReplayResult is the outcome of one replayed detection run.
type ReplayResult struct {
	Report   *core.Report
	Records  int           // records pushed through the transport
	Duration time.Duration // wall clock of the transport+detection drain
}

// Replay pushes a captured record stream through the multi-queue
// transport and the race detector, with one producer goroutine per queue
// (each producing only its queue's block-affine sub-stream, in order)
// and one batched consumer per queue. The report is the same one a live
// Detect run produces; Duration covers only the drain, making
// records/sec comparable across queue widths.
func Replay(cap *Capture, cfg Config) (*ReplayResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	det := core.New(cap.Geo, cap.SharedBytes, cfg.coreOptions())
	set := logging.NewSet(cfg.Queues, cfg.QueueCap)
	set.SetGranularity(cfg.Granularity)

	// Partition the stream by queue, preserving per-queue order — the
	// same order routeSink would have produced.
	parts := make([][]*logging.Record, len(set.Queues))
	for i := range cap.Records {
		r := &cap.Records[i]
		qi := int(r.Block) % len(set.Queues)
		parts[qi] = append(parts[qi], r)
	}

	var consumers sync.WaitGroup
	var producers sync.WaitGroup
	start := time.Now()
	for qi, q := range set.Queues {
		consumers.Add(1)
		go consumeQueue(det, q, &consumers)
		producers.Add(1)
		go func(q *logging.Queue, recs []*logging.Record) {
			defer producers.Done()
			for _, r := range recs {
				q.Enqueue(r)
			}
			q.Enqueue(&logging.Record{Op: trace.OpEnd})
		}(q, parts[qi])
	}
	producers.Wait()
	consumers.Wait()
	dur := time.Since(start)
	return &ReplayResult{
		Report:   det.Report(),
		Records:  len(cap.Records),
		Duration: dur,
	}, nil
}
