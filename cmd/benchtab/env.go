package main

import (
	"runtime"

	"barracuda/internal/detector"
)

// BenchEnv is the host and detector-knob context embedded (flattened)
// in every BENCH_*.json artifact, so perf trajectories across PRs
// compare like with like: the same experiment on a different core count
// or with different adaptive-shadow knobs is a different measurement.
type BenchEnv struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`

	// Detector knobs in effect for the artifact's headline runs, under
	// detector.Config's own JSON names. Zero values are the defaults and
	// are omitted.
	detector.Config
}

// benchEnv snapshots the host environment with default knob settings.
func benchEnv() BenchEnv {
	return BenchEnv{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}
