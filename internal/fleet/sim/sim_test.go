package sim

import (
	"testing"
)

// The headline determinism contract: the same seed and scenario produce
// byte-identical schedule and report digests, run after run. CI runs
// this under -race, so goroutine interleaving (there is none — the sim
// is single-threaded by construction) can never leak into schedules.
func TestSameSeedSameDigest(t *testing.T) {
	cfg := Config{Seed: 42, Nodes: 4, Jobs: 3000, Traffic: TrafficMixed,
		HeartbeatLossP: 0.02, Crashes: []Crash{{Node: 1, AtMS: 3000}}}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if b.ScheduleDigest != a.ScheduleDigest {
			t.Fatalf("run %d schedule digest %s != %s", i+2, b.ScheduleDigest, a.ScheduleDigest)
		}
		if b.ReportDigest != a.ReportDigest {
			t.Fatalf("run %d report digest %s != %s", i+2, b.ReportDigest, a.ReportDigest)
		}
	}
}

func TestDifferentSeedDifferentSchedule(t *testing.T) {
	a, err := Run(Config{Seed: 1, Jobs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 2, Jobs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if a.ScheduleDigest == b.ScheduleDigest {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestHealthyRunCompletesEverything(t *testing.T) {
	res, err := Run(Config{Seed: 7, Nodes: 4, Jobs: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 || res.Completed != 5000 {
		t.Fatalf("healthy run: completed %d, lost %d", res.Completed, res.Lost)
	}
	if res.Retries != 0 || res.Requeued != 0 {
		t.Fatalf("healthy run retried %d / requeued %d jobs", res.Retries, res.Requeued)
	}
	if res.ExcludedViolations != 0 {
		t.Fatalf("%d excluded-node violations", res.ExcludedViolations)
	}
	if res.HitRate <= 0 {
		t.Fatal("zipf traffic with warm routing produced zero cache hits")
	}
}

// The failover acceptance test: kill k of N mid-traffic. Zero lost
// jobs, no assignment ever lands on an excluded node, and the aggregate
// report digest is byte-identical to a single-node run of the same
// traffic — failover must not change *what* is computed, only *where*.
func TestFailoverLosesNothingAndReportsMatchSingleNode(t *testing.T) {
	const jobs = 8000
	single, err := Run(Config{Seed: 99, Nodes: 1, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if single.Lost != 0 {
		t.Fatalf("single-node baseline lost %d jobs", single.Lost)
	}

	for _, tc := range []struct {
		name    string
		crashes []Crash
	}{
		{"kill-1-of-4", []Crash{{Node: 0, AtMS: 5000}}},
		{"kill-2-of-4", []Crash{{Node: 0, AtMS: 4000}, {Node: 2, AtMS: 9000}}},
		{"kill-3-of-8", []Crash{{Node: 1, AtMS: 2000}, {Node: 4, AtMS: 6000}, {Node: 7, AtMS: 6000}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := 4
			if tc.name == "kill-3-of-8" {
				nodes = 8
			}
			res, err := Run(Config{Seed: 99, Nodes: nodes, Jobs: jobs, Crashes: tc.crashes})
			if err != nil {
				t.Fatal(err)
			}
			if res.Lost != 0 {
				t.Fatalf("lost %d jobs across %d crashes", res.Lost, len(tc.crashes))
			}
			if res.Retries == 0 {
				t.Fatal("crash scenario saw zero retries — crashes did not bite")
			}
			if res.ExcludedViolations != 0 {
				t.Fatalf("%d assignments routed back to an excluded node", res.ExcludedViolations)
			}
			if res.ReportDigest != single.ReportDigest {
				t.Fatalf("report digest %s != single-node %s: failover changed results",
					res.ReportDigest, single.ReportDigest)
			}
		})
	}
}

// Report digests are also invariant under the routing policy — the
// strongest evidence that routing is purely a performance choice. The
// two policies are batch spill-to-idle on and off.
func TestReportDigestInvariantUnderRouting(t *testing.T) {
	base := Config{Seed: 5, Nodes: 4, Jobs: 4000}
	spill, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	pinned := base
	pinned.NoSpill = true
	nospill, err := Run(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if spill.Spills == 0 || spill.ScheduleDigest == nospill.ScheduleDigest {
		t.Fatalf("spill-to-idle never changed the schedule (spills=%d): the comparison is vacuous", spill.Spills)
	}
	if spill.ReportDigest != nospill.ReportDigest {
		t.Fatalf("routing policy changed reports: %s vs %s", spill.ReportDigest, nospill.ReportDigest)
	}
}

// Heartbeat loss drives nodes through suspect→revive (and occasionally
// dead→re-join) without losing any work, deterministically.
func TestHeartbeatLossIsSurvivable(t *testing.T) {
	cfg := Config{Seed: 3, Nodes: 4, Jobs: 4000, HeartbeatLossP: 0.3}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lost != 0 {
		t.Fatalf("lost %d jobs to heartbeat loss alone", a.Lost)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ScheduleDigest != b.ScheduleDigest {
		t.Fatal("heartbeat-loss scenario is nondeterministic")
	}
}

// Mixed traffic under heavy batch load: interactive first-dispatch wait
// stays bounded by roughly one batch service time — the reserved slot
// plus strict queue priority at work — while batch queues far longer.
func TestInteractiveNeverStarved(t *testing.T) {
	res, err := Run(Config{Seed: 21, Nodes: 4, Jobs: 8000, Traffic: TrafficMixed,
		ArrivalRate: 900}) // ~1.29x batch capacity: a real backlog
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 {
		t.Fatalf("lost %d jobs", res.Lost)
	}
	if res.QueueJumps == 0 {
		t.Fatal("overloaded mixed traffic produced zero queue-jumps")
	}
	// One cold batch service is 8ms +20% jitter; give double for pileup.
	if res.InteractiveMaxWaitMS > 20 {
		t.Fatalf("interactive max wait %.2f ms — starved behind batch", res.InteractiveMaxWaitMS)
	}
	if res.BatchP99WaitMS < res.InteractiveP99WaitMS {
		t.Fatalf("batch p99 wait %.2f ms below interactive %.2f ms under overload",
			res.BatchP99WaitMS, res.InteractiveP99WaitMS)
	}
}

// Slow nodes only stretch the schedule; they must not change results.
func TestSlowNodeChangesScheduleNotReports(t *testing.T) {
	base := Config{Seed: 13, Nodes: 4, Jobs: 3000}
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	slow := base
	slow.SlowFactor = map[int]float64{1: 4}
	b, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lost != 0 {
		t.Fatalf("slow node lost %d jobs", b.Lost)
	}
	if a.ScheduleDigest == b.ScheduleDigest {
		t.Fatal("4x slower node did not change the schedule")
	}
	if a.ReportDigest != b.ReportDigest {
		t.Fatal("slow node changed job reports")
	}
}

func TestConfigRejectsKillingWholeFleet(t *testing.T) {
	_, err := Run(Config{Nodes: 2, Jobs: 100,
		Crashes: []Crash{{Node: 0, AtMS: 1}, {Node: 1, AtMS: 2}}})
	if err == nil {
		t.Fatal("killing every node should be rejected, not simulated")
	}
}
