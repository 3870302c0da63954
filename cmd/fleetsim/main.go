// Command fleetsim runs the deterministic in-process cluster simulator
// against the real fleet coordinator: N fake barracudad workers, seeded
// synthetic traffic (uniform, zipf-skewed cache keys, or a mixed
// interactive/batch stream), and scripted faults — node crashes, slow
// nodes, heartbeat loss. The same seed and spec reproduce the exact
// same schedule digest, so routing, failover and preemption changes are
// reviewable as digest diffs.
//
// Usage:
//
//	fleetsim -nodes 4 -jobs 50000 -traffic zipf -seed 42
//	fleetsim -nodes 8 -jobs 100000 -traffic mixed -crash 2@0.3 -hbloss 0.05
//
// By default the scenario is run twice and the run fails unless both
// passes produce identical schedule digests and zero lost jobs — the
// CI smoke contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"barracuda/internal/fleet/sim"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 4, "simulated worker nodes")
		capacity  = flag.Int("capacity", 2, "job slots per node")
		jobs      = flag.Int("jobs", 50000, "jobs to submit")
		seed      = flag.Int64("seed", 1, "PRNG seed (traffic, jitter, faults)")
		traffic   = flag.String("traffic", "zipf", "traffic shape: uniform | zipf | mixed")
		keys      = flag.Int("keys", 64, "distinct module cache keys")
		cache     = flag.Int("cache", 16, "per-node session-cache slots (LRU)")
		inter     = flag.Float64("interactive", 0.2, "interactive fraction (mixed traffic)")
		rate      = flag.Float64("rate", 0, "arrivals per virtual second (0 = 70% of fleet capacity)")
		hbloss    = flag.Float64("hbloss", 0, "per-heartbeat drop probability")
		crash     = flag.String("crash", "", "kill k nodes at a fraction of the traffic horizon, e.g. 2@0.3")
		slow      = flag.String("slow", "", "slow nodes, e.g. 1:4,3:2 (node index:service multiplier)")
		zipfs     = flag.Float64("zipfs", 1.2, "zipf skew exponent (>1)")
		nospill   = flag.Bool("nospill", false, "disable batch spill-to-idle (max affinity, more queueing)")
		repeat    = flag.Int("repeat", 2, "runs of the same scenario; digests must match")
		allowLost = flag.Bool("allow-lost", false, "do not fail the run on lost jobs")
		jsonOut   = flag.Bool("json", false, "emit the full Result as JSON")
	)
	flag.Parse()

	cfg := sim.Config{
		Seed: *seed, Nodes: *nodes, Capacity: *capacity, Jobs: *jobs,
		Traffic: *traffic, Keys: *keys, CacheSlots: *cache, ZipfS: *zipfs,
		InteractiveFrac: *inter, ArrivalRate: *rate,
		HeartbeatLossP: *hbloss, NoSpill: *nospill,
	}
	var err error
	if cfg.Crashes, err = parseCrash(*crash, *nodes, *jobs, *rate, *capacity); err != nil {
		fatal(err)
	}
	if cfg.SlowFactor, err = parseSlow(*slow); err != nil {
		fatal(err)
	}

	var first sim.Result
	for i := 0; i < max(1, *repeat); i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			fatal(err)
		}
		if i == 0 {
			first = res
			continue
		}
		if res.ScheduleDigest != first.ScheduleDigest {
			fatal(fmt.Errorf("nondeterministic schedule: run 1 digest %s, run %d digest %s",
				first.ScheduleDigest, i+1, res.ScheduleDigest))
		}
		if res.ReportDigest != first.ReportDigest {
			fatal(fmt.Errorf("nondeterministic reports: run 1 digest %s, run %d digest %s",
				first.ReportDigest, i+1, res.ReportDigest))
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(first)
	} else {
		fmt.Printf("fleetsim: %d nodes × %d slots, %d jobs, %s traffic\n",
			first.Nodes, *capacity, first.Jobs, first.Traffic)
		fmt.Printf("  completed %d / lost %d, retries %d, requeued %d, queue-jumps %d, spills %d\n",
			first.Completed, first.Lost, first.Retries, first.Requeued, first.QueueJumps, first.Spills)
		fmt.Printf("  warm hit rate %.1f%%, primary-routing %.1f%%, %.0f jobs/virtual-sec (makespan %.0f ms)\n",
			100*first.HitRate, 100*first.PrimaryFrac, first.JobsPerSec, first.MakespanMS)
		fmt.Printf("  wait p99: interactive %.2f ms (max %.2f), batch %.2f ms\n",
			first.InteractiveP99WaitMS, first.InteractiveMaxWaitMS, first.BatchP99WaitMS)
		fmt.Printf("  schedule digest %s, report digest %s (wall %.0f ms)\n",
			first.ScheduleDigest, first.ReportDigest, first.WallMS)
	}

	if first.ExcludedViolations > 0 {
		fatal(fmt.Errorf("%d assignments routed to an excluded node", first.ExcludedViolations))
	}
	if first.Lost > 0 && !*allowLost {
		fatal(fmt.Errorf("%d jobs lost", first.Lost))
	}
}

// parseCrash turns "k@frac" into k scripted crashes of nodes 0..k-1 at
// frac of the expected traffic horizon (jobs / arrival rate).
func parseCrash(spec string, nodes, jobs int, rate float64, capacity int) ([]sim.Crash, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.SplitN(spec, "@", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad -crash %q (want k@frac)", spec)
	}
	k, err := strconv.Atoi(parts[0])
	if err != nil || k < 1 {
		return nil, fmt.Errorf("bad -crash count %q", parts[0])
	}
	frac, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || frac <= 0 {
		return nil, fmt.Errorf("bad -crash fraction %q", parts[1])
	}
	if k >= nodes {
		return nil, fmt.Errorf("-crash %d would kill all %d nodes", k, nodes)
	}
	if rate <= 0 {
		// Mirror sim.Config's default: 70% of fleet batch capacity at
		// the default 8 ms batch service time.
		rate = 0.7 * (1000.0 / 8) * float64(capacity) * float64(nodes)
	}
	horizonMS := float64(jobs) / rate * 1000
	out := make([]sim.Crash, k)
	for i := range out {
		out[i] = sim.Crash{Node: i, AtMS: frac * horizonMS}
	}
	return out, nil
}

func parseSlow(spec string) (map[int]float64, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[int]float64)
	for _, kv := range strings.Split(spec, ",") {
		parts := strings.SplitN(kv, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -slow entry %q (want index:factor)", kv)
		}
		idx, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad -slow index %q", parts[0])
		}
		f, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad -slow factor %q", parts[1])
		}
		out[idx] = f
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleetsim:", err)
	os.Exit(1)
}
