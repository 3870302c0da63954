package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; the smoke test
// fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them; README.md gives
// each metric's definition per workload. Timings are in calibrated seconds
// (calib.go), which spread by 2 to 6 % between runs on the sandbox the
// baseline was measured on; the bounds are the widest the contract allows
// because the acceptance driver's machine is noisier (README.md, "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sweep_s", "s", "lower", 0.25},
	{"overhead_x", "ratio", "lower", 0.25},
	{"job_ms_p50", "ms", "lower", 0.25},
	{"job_ms_p95", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"ttfr_ms_p50", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the traced pass's metrics; layer names are package names.
var perLayer = []metricDef{
	{Name: "ptx.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "ptx.src_bytes", Unit: "bytes", Better: "lower"},
	{Name: "instrument.instrument_ms", Unit: "ms", Better: "lower"},
	{Name: "instrument.sites_frac", Unit: "ratio", Better: "lower"},
	{Name: "staticanalysis.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "gpusim.load_ms", Unit: "ms", Better: "lower"},
	{Name: "gpusim.native_ms", Unit: "ms", Better: "lower"},
	{Name: "gpusim.produce_ms", Unit: "ms", Better: "lower"},
	{Name: "gpusim.warp_instrs", Unit: "count", Better: "lower"},
	{Name: "gpusim.records", Unit: "count", Better: "lower"},
	{Name: "gpusim.warp_instrs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gpusim.filter_suppressed_frac", Unit: "ratio", Better: "higher"},
	{Name: "logging.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "logging.records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "core.records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.report_ms", Unit: "ms", Better: "lower"},
	{Name: "core.races", Unit: "count", Better: "lower"},
	{Name: "core.same_value_filtered", Unit: "count", Better: "higher"},
	{Name: "shadow.peak_bytes", Unit: "bytes", Better: "lower"},
	{Name: "shadow.owned_fast_frac", Unit: "ratio", Better: "higher"},
	{Name: "shadow.inflations", Unit: "count", Better: "lower"},
	{Name: "ptvc.converged_frac", Unit: "ratio", Better: "higher"},
	{Name: "detector.open_ms", Unit: "ms", Better: "lower"},
	{Name: "detector.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "detector.overlap_x", Unit: "ratio", Better: "higher"},
	{Name: "detector.stall_ms", Unit: "ms", Better: "lower"},
	{Name: "server.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.sched_job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.tax_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.json.job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.json.bytes_per_job", Unit: "bytes", Better: "lower"},
	{Name: "server.job_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.detect_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "wire.job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wire.ttfr_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wire.bytes_per_job", Unit: "bytes", Better: "lower"},
	{Name: "wire.upload_skipped_frac", Unit: "ratio", Better: "higher"},
	{Name: "fleet.tax_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.stream_forwards", Unit: "count", Better: "higher"},
	{Name: "fleet.json_forwards", Unit: "count", Better: "lower"},
	{Name: "fleet.retries", Unit: "count", Better: "lower"},
	{Name: "fleet.requeued", Unit: "count", Better: "lower"},
	{Name: "fleet.warm_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fleet.primary_frac", Unit: "ratio", Better: "higher"},
	{Name: "fleet.node_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "trace.attributed_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// deterministicCounts must repeat exactly between runs of one workload and
// seed; -repeat asserts it.
var deterministicCounts = []string{
	"gpusim.warp_instrs", "gpusim.records", "core.races", "instrument.sites_frac",
}

// value is one reported number. N is the sample count behind a median or
// percentile (0 for counts and ratios of counts).
type value struct {
	Value float64
	Unit  string
	N     int
}

// metricSet collects a run's values and fills in the unit from the
// definition tables, so a name that is not defined cannot be reported.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]metricDef, len(defs)), vals: make(map[string]value, len(defs))}
	for _, d := range defs {
		m.defs[d.Name] = d
		m.vals[d.Name] = value{Unit: d.Unit}
	}
	return m
}

func (m *metricSet) set(name string, v float64, n int) {
	d, ok := m.defs[name]
	if !ok {
		panic("e2e: undefined metric " + name)
	}
	m.vals[name] = value{Value: v, Unit: d.Unit, N: n}
}

func ms(d float64) float64 { return d * 1e3 } // seconds → milliseconds

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// geomean is the geometric mean of the positive entries of xs.
func geomean(xs []float64) float64 {
	var logs float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logs += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logs / float64(n))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), which is what the
// acceptance driver computes.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return ratio(q(3)-q(1), median(s))
}
