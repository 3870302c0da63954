package detector

import (
	"sync"

	"barracuda/internal/gpusim"
	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
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
	geo, sharedBytes, err := s.shape(kernelName, launch)
	if err != nil {
		return nil, err
	}
	sink := &captureSink{}
	if _, err := s.LaunchInto(kernelName, launch, sink); err != nil {
		return nil, err
	}
	return &Capture{Geo: geo, SharedBytes: sharedBytes, Records: sink.records}, nil
}

// Replay pushes a captured record stream through the multi-queue
// transport and the race detector, with one producer goroutine per queue
// (each producing only its queue's block-affine sub-stream, in order)
// and one batched consumer per queue. The result is the one a live Detect
// run produces, its SimStats holding only the count of records pushed;
// the stream is partitioned before the clock starts, so Duration is the
// pipeline's set-up and drain and records/sec is comparable across queue
// widths.
func Replay(cap *Capture, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()

	// Partition the stream by queue, preserving per-queue order — the
	// same order routeSink would have produced.
	parts := make([][]*logging.Record, cfg.Queues)
	for i := range cap.Records {
		r := &cap.Records[i]
		qi := int(r.Block) % cfg.Queues
		parts[qi] = append(parts[qi], r)
	}
	return pipeline(cap.Geo, cap.SharedBytes, cfg, nil, func(set *logging.Set) (gpusim.Stats, error) {
		var producers sync.WaitGroup
		for qi, q := range set.Queues {
			producers.Add(1)
			go func(q *logging.Queue, recs []*logging.Record) {
				defer producers.Done()
				for _, r := range recs {
					q.Enqueue(r)
				}
			}(q, parts[qi])
		}
		producers.Wait()
		return gpusim.Stats{Records: uint64(len(cap.Records))}, nil
	})
}
