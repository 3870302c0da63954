package main

import (
	"fmt"
	"sync"
	"time"
)

// The benchmark runs on a few cores of a shared host whose speed, and above
// all whose memory system's speed, moves by tens of percent for minutes at
// a time: longer than a median over one run can see past, shorter than the
// runs two commits are compared over. What survives that is a ratio to a
// reference measured in the same moments, which is why overhead_x (detected
// over native) repeats where the raw sweep time does not. The calibrator
// extends that to every timing. A fixed computation of the benchmark's own,
// the probe, runs at the quiet points of a run, between the timed
// operations, and every duration of the run is reported divided by the
// run's slowdown: the median probe's time over probeNominal. Timings are
// therefore in calibrated seconds, the seconds of a machine that runs the
// probe in probeNominal. The probe shares no code with the program under
// test, so a change to the program moves the numerator only.
const (
	// The probe has two phases, because the host slows them differently:
	// arithmetic on a table that stays in the L2 (about three fifths of the
	// nominal time) and the same arithmetic scattered over a table that does
	// not fit it (two fifths), which is roughly how the detector's time
	// divides between the simulator's interpreter and the shadow memory.
	probeSmallWords = 1 << 15 // 256 KiB per goroutine
	probeLargeWords = 1 << 20 // 8 MiB per goroutine
	probeSmallSteps = 4 << 20
	probeLargeSteps = 5 << 18
	// probeNominal is the median probe on the 2-core sandbox the baseline in
	// README.md was measured on, in a quiet stretch. It is a constant so that
	// a run under a persistent neighbour is not its own reference.
	probeNominal = 0.0175
	// probeThreads is the pipeline's shape: one producer, one consumer.
	probeThreads = 2
)

// calibrator runs probes. It is driven by the one goroutine that drives a
// workload, while nothing that goroutine times is running and after a
// collection, because a probe that meets the collector's background workers
// measures them.
type calibrator struct {
	small, large [probeThreads][]uint64
	secs         []float64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := 0; i < probeThreads; i++ {
		c.small[i] = make([]uint64, probeSmallWords)
		c.large[i] = make([]uint64, probeLargeWords)
	}
	c.probe() // touches the tables; not kept
	c.secs = c.secs[:0]
	return c
}

// spin is one goroutine's share of a phase: a dependent xorshift chain
// that scatters read-modify-writes over the table.
func spin(tab []uint64, steps int) {
	x := uint64(88172645463325252)
	mask := uint64(len(tab) - 1)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		tab[x&mask] += x
	}
}

// phase runs spin on every table at once and waits for the slowest.
func phase(tabs *[probeThreads][]uint64, steps int) {
	var wg sync.WaitGroup
	for _, tab := range tabs {
		wg.Add(1)
		go func(tab []uint64) {
			defer wg.Done()
			spin(tab, steps)
		}(tab)
	}
	wg.Wait()
}

func (c *calibrator) probe() {
	start := time.Now()
	phase(&c.small, probeSmallSteps)
	phase(&c.large, probeLargeSteps)
	c.secs = append(c.secs, time.Since(start).Seconds())
}

// slowdown is how slow the machine was over the run.
func (c *calibrator) slowdown() float64 { return median(c.secs) / probeNominal }

// summary is the run's probes in one line, printed with the results.
func (c *calibrator) summary() string {
	return fmt.Sprintf("probes=%d probe_ms_min=%.2f probe_ms_p50=%.2f probe_ms_max=%.2f nominal_ms=%.2f slowdown=%.4f",
		len(c.secs), ms(quantile(c.secs, 0)), ms(median(c.secs)), ms(quantile(c.secs, 1)), ms(probeNominal), c.slowdown())
}
