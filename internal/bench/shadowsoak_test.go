package bench

import (
	"fmt"
	"testing"

	"barracuda/internal/detector"
	"barracuda/internal/logging"
	"barracuda/internal/shadow"
)

// maxRegionBytes returns the resident footprint of one full global page
// region at granularity 1 (a refined page; a word-granular one is a
// quarter of it) — the worst-case transient overshoot of the bounded
// shadow (makeRoom runs before the allocation publishes, so a single
// in-flight allocation can exceed the cap by at most one region when
// nothing is evictable).
func maxRegionBytes(t *testing.T) int64 {
	t.Helper()
	m := shadow.New(1, 0)
	m.SpanCached(nil, logging.SpaceGlobal, -1, 1, 1, func(*shadow.Region, int, int) {}) // a byte access refines the page
	r, _ := m.RegionFor(nil, logging.SpaceGlobal, -1, 0)
	return r.RegionBytes()
}

// TestBoundedShadowSoak replays the full 26-benchmark suite under a
// shadow byte cap a fraction of the biggest benchmarks' natural
// footprint, one detector session per benchmark, single queue (the
// deterministic schedule). The contract:
//
//   - the cap holds: peak resident bytes never exceed it by more than
//     one transient region allocation;
//   - eviction is honest: PrecisionDegraded is reported exactly when a
//     live region (one holding epochs) was discarded;
//   - reports stay correct on non-evicted state: with no live eviction
//     the canonical report is byte-identical to the unbounded run, and
//     with live evictions the detector may only MISS races (discarded
//     epochs pass every check), never invent them;
//   - the cap is doing real work: at least one benchmark's unbounded
//     shadow exceeds the cap by >= 4x, and the soak as a whole evicts.
func TestBoundedShadowSoak(t *testing.T) {
	if raceDetectorEnabled {
		// The soak is single-queue and deterministic, so the race
		// detector adds no interleaving coverage here — concurrent
		// bounded-shadow traffic is exercised under -race by
		// TestBoundedShadowEquivalence (bugsuite, 4 queues). Detecting
		// all 26 benchmarks twice under the ~10x slowdown would blow
		// the package's default test timeout.
		t.Skip("deterministic single-queue soak skipped under -race")
	}
	// 32 word-granular page slabs (a quarter of a refined page each); the
	// suite's programs never make a sub-word access, so none is ever
	// refined.
	slack := maxRegionBytes(t)
	capBytes := 32 * slack / 4
	// The soak replays the unpruned stream. The default instrumentation
	// drops the thread-private accesses that make up most of the suite's
	// shadow: its largest unbounded peak is about 1.5 MB, four word pages,
	// and a cap a quarter of that is below one page, where the slack of
	// "the cap holds" is bigger than any peak.
	unpruned := detector.Config{NoPrune: true}

	var maxUnboundedPeak int64
	var totalEvictions, totalLiveEvictions uint64
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			free := baseline(t, b, unpruned, 0)
			if free.peak > maxUnboundedPeak {
				maxUnboundedPeak = free.peak
			}

			bound, err := Detect(b, detector.Config{Queues: 1, NoPrune: true, ShadowCapBytes: capBytes})
			if err != nil {
				t.Fatal(err)
			}
			sh := bound.Report.Shadow
			totalEvictions += sh.Evictions
			totalLiveEvictions += sh.LiveEvictions

			if sh.PeakResidentBytes > capBytes+slack {
				t.Errorf("cap violated: peak resident %d > cap %d + slack %d",
					sh.PeakResidentBytes, capBytes, slack)
			}
			if sh.PrecisionDegraded != (sh.LiveEvictions > 0) {
				t.Errorf("PrecisionDegraded = %t but LiveEvictions = %d",
					sh.PrecisionDegraded, sh.LiveEvictions)
			}
			if bound.Report.PrecisionDegraded != sh.PrecisionDegraded {
				t.Errorf("report-level PrecisionDegraded = %t disagrees with shadow stats %t",
					bound.Report.PrecisionDegraded, sh.PrecisionDegraded)
			}
			if sh.LiveEvictions == 0 {
				if got := bound.Report.CanonicalDigest(); got != free.digest {
					t.Errorf("no live state was discarded, yet reports diverged:\n--- unbounded ---\n%s--- bounded ---\n%s",
						free.digest, got)
				}
				return
			}
			// Live evictions: the bounded run may miss races whose epochs
			// were discarded, but every race it does report must be one
			// the unbounded run reports too.
			for _, rc := range bound.Report.Races {
				if !free.races[fmt.Sprintf("%+v", rc)] {
					t.Errorf("bounded run invented a race the unbounded run never saw: %+v", rc)
				}
			}
		})
	}

	t.Logf("max unbounded peak %d bytes, cap %d: %d eviction(s), %d of live state",
		maxUnboundedPeak, capBytes, totalEvictions, totalLiveEvictions)
	if maxUnboundedPeak < 4*capBytes {
		t.Errorf("soak is too gentle: max unbounded peak %d < 4x cap %d; tighten the cap",
			maxUnboundedPeak, capBytes)
	}
	if totalEvictions == 0 {
		t.Error("soak never evicted: the cap did no work")
	}
	if totalLiveEvictions == 0 {
		t.Error("soak never discarded live state: the degradation path went unexercised")
	}
}
