package server

import (
	"sync/atomic"
	"time"

	"barracuda/internal/gpusim"
	"barracuda/internal/shadow"
)

// latencyBucketsMS are the upper bounds (milliseconds) of the per-job
// detect-latency histogram; the last implicit bucket is +Inf.
var latencyBucketsMS = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Histogram is a fixed-bucket latency histogram safe for concurrent use.
type Histogram struct {
	buckets [len(latencyBucketsMS) + 1]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ms := float64(d.Microseconds()) / 1000
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumUS.Add(d.Microseconds())
}

// HistogramBucket is one cumulative bucket of the snapshot.
type HistogramBucket struct {
	LEms  float64 `json:"le_ms"` // upper bound; -1 encodes +Inf
	Count int64   `json:"count"` // cumulative observations <= bound
}

// HistogramJSON is the wire form of a histogram.
type HistogramJSON struct {
	Count   int64             `json:"count"`
	SumMS   float64           `json:"sum_ms"`
	MeanMS  float64           `json:"mean_ms"`
	Buckets []HistogramBucket `json:"buckets"`
}

// Snapshot renders the histogram with cumulative bucket counts.
func (h *Histogram) Snapshot() HistogramJSON {
	out := HistogramJSON{
		Count: h.count.Load(),
		SumMS: float64(h.sumUS.Load()) / 1000,
	}
	if out.Count > 0 {
		out.MeanMS = out.SumMS / float64(out.Count)
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := -1.0
		if i < len(latencyBucketsMS) {
			le = latencyBucketsMS[i]
		}
		out.Buckets = append(out.Buckets, HistogramBucket{LEms: le, Count: cum})
	}
	return out
}

// Metrics is the daemon-wide counter registry, exposed on /metrics.
type Metrics struct {
	Submitted atomic.Int64
	Completed atomic.Int64
	Failed    atomic.Int64
	TimedOut  atomic.Int64
	Rejected  atomic.Int64 // queue-full 429s
	Latency   Histogram    // successful detect wall time

	// Shadow-memory pressure, accumulated from every successful
	// detect's per-job shadow stats. PeakResidentBytes is a high-water
	// mark across jobs; the rest are running sums.
	ShadowOwnedFast     atomic.Int64 // records handled by the ownership fast path
	ShadowInflations    atomic.Int64 // exclusive regions inflated to shared
	ShadowCompactions   atomic.Int64 // shared slabs reclaimed at barriers
	ShadowEvictions     atomic.Int64 // regions evicted under the byte cap
	ShadowLiveEvictions atomic.Int64 // evictions that discarded live state
	ShadowDegradedJobs  atomic.Int64 // jobs that finished PrecisionDegraded
	ShadowPeakResident  atomic.Int64 // max per-job peak resident bytes

	// Producer-side filter activity, accumulated from every successful
	// detect's simulator stats. All running sums; zero unless jobs run
	// with producer_filter set.
	FilterProbes       atomic.Int64 // dynamic filter-cache probes
	FilterHits         atomic.Int64 // records suppressed by the dynamic cache
	FilterStaticElides atomic.Int64 // records elided at static log-once sites
	FilterFlushes      atomic.Int64 // OpFlush reconciliation records emitted
}

// ObserveShadow folds one completed job's shadow stats into the
// daemon-wide registry.
func (m *Metrics) ObserveShadow(st shadow.MemStats) {
	m.ShadowOwnedFast.Add(int64(st.OwnedFast))
	m.ShadowInflations.Add(int64(st.Inflations))
	m.ShadowCompactions.Add(int64(st.Compactions))
	m.ShadowEvictions.Add(int64(st.Evictions))
	m.ShadowLiveEvictions.Add(int64(st.LiveEvictions))
	if st.PrecisionDegraded {
		m.ShadowDegradedJobs.Add(1)
	}
	for {
		cur := m.ShadowPeakResident.Load()
		if st.PeakResidentBytes <= cur ||
			m.ShadowPeakResident.CompareAndSwap(cur, st.PeakResidentBytes) {
			return
		}
	}
}

// ObserveFilter folds one completed job's producer-filter stats into
// the daemon-wide registry.
func (m *Metrics) ObserveFilter(st gpusim.FilterStats) {
	if st == (gpusim.FilterStats{}) {
		return
	}
	m.FilterProbes.Add(int64(st.Probes))
	m.FilterHits.Add(int64(st.Hits))
	m.FilterStaticElides.Add(int64(st.StaticElides))
	m.FilterFlushes.Add(int64(st.Flushes))
}

// FilterCounters groups the aggregated producer-filter figures for the
// wire. Suppressed is Hits + StaticElides: the total record volume the
// filter kept off the queues.
type FilterCounters struct {
	Probes       int64 `json:"probes"`
	Hits         int64 `json:"hits"`
	StaticElides int64 `json:"static_elides"`
	Flushes      int64 `json:"flushes"`
	Suppressed   int64 `json:"suppressed_records"`
}

// Filter snapshots the producer-filter counters.
func (m *Metrics) Filter() FilterCounters {
	h, e := m.FilterHits.Load(), m.FilterStaticElides.Load()
	return FilterCounters{
		Probes:       m.FilterProbes.Load(),
		Hits:         h,
		StaticElides: e,
		Flushes:      m.FilterFlushes.Load(),
		Suppressed:   h + e,
	}
}

// ShadowCounters groups the aggregated shadow-memory figures for the
// wire, and with them the process's slab pool (slabs_recycled, slabs_fresh,
// slab_pool_bytes): the pool outlives every job, so it is reported here
// and not in a job's result.
type ShadowCounters struct {
	shadow.PoolStats
	OwnedFastRecords int64 `json:"owned_fast_records"`
	Inflations       int64 `json:"ownership_inflations"`
	Compactions      int64 `json:"compactions"`
	Evictions        int64 `json:"evictions"`
	LiveEvictions    int64 `json:"live_evictions"`
	DegradedJobs     int64 `json:"degraded_jobs"`
	PeakResident     int64 `json:"peak_resident_bytes"`
}

// Shadow snapshots the shadow-memory counters.
func (m *Metrics) Shadow() ShadowCounters {
	return ShadowCounters{
		PoolStats:        shadow.SlabPoolStats(),
		OwnedFastRecords: m.ShadowOwnedFast.Load(),
		Inflations:       m.ShadowInflations.Load(),
		Compactions:      m.ShadowCompactions.Load(),
		Evictions:        m.ShadowEvictions.Load(),
		LiveEvictions:    m.ShadowLiveEvictions.Load(),
		DegradedJobs:     m.ShadowDegradedJobs.Load(),
		PeakResident:     m.ShadowPeakResident.Load(),
	}
}

// MetricsJSON is the /metrics response body.
type MetricsJSON struct {
	UptimeMS      float64        `json:"uptime_ms"`
	Workers       int            `json:"workers"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCapacity int            `json:"queue_capacity"`
	InFlight      int            `json:"in_flight"`
	StreamsOpen   int            `json:"streams_open"` // upgraded /v1/stream connections, idle ones included
	Jobs          JobCounters    `json:"jobs"`
	Cache         CacheStats     `json:"cache"`
	Srcs          SrcStoreStats  `json:"srcs"`
	Tenants       []TenantJSON   `json:"tenants,omitempty"`
	Shadow        ShadowCounters `json:"shadow"`
	Filter        FilterCounters `json:"filter"`
	DetectLatency HistogramJSON  `json:"detect_latency"`
}

// JobCounters groups the job outcome counters.
type JobCounters struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	TimedOut  int64 `json:"timed_out"`
	Rejected  int64 `json:"rejected"`
}

// Counters snapshots the job counters.
func (m *Metrics) Counters() JobCounters {
	return JobCounters{
		Submitted: m.Submitted.Load(),
		Completed: m.Completed.Load(),
		Failed:    m.Failed.Load(),
		TimedOut:  m.TimedOut.Load(),
		Rejected:  m.Rejected.Load(),
	}
}
