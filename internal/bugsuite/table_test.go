package bugsuite

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
	"barracuda/internal/hb"
	"barracuda/internal/logging"
	"barracuda/internal/ptvc"
	"barracuda/internal/trace"
)

// The table is the correctness contract of every detector configuration.
// Each row runs the 76 programs of Tests and SubwordTests at warp sizes
// 32 and 5, and is judged by the happens-before definition of §3.2
// (internal/hb, Theorem 1) applied to the launch's unpruned record stream:
//
//   - every race a row reports is a pair that happened: its address, both
//     threads, both lines and both access modes;
//   - at one queue, where the detector meets accesses in trace order, the
//     first access to race at each address has one of its pairs reported.
//     That is FastTrack's guarantee: a later pair on an address that
//     already raced may hide behind a newer write epoch, so
//     sh-waw-interwarp-racy reports 2 of its 3 static pairs;
//   - the suite's verdicts hold at warp size 32 on the deterministic schedule.
//
// A row's by-design exceptions are written next to it (mayMiss, mayAdd).
// The same routine also holds each row to the path beneath it: at one
// queue a row whose knobs only decide how a report is reached reproduces
// Config{}'s outcome exactly — discovery order, races with counts,
// divergences, counters, launch stats and the PTVC format census; a
// QueueCap row reproduces every byte of its configuration at the default
// ring; and above one queue a row's digest is its one-queue digest
// (provableDigest), with the same launch stats and format census.

// row is one configuration of the table.
type row struct {
	cfg    detector.Config
	queues []int   // queue counts to run; nil is 1 and 4 (only 1 in -short)
	warps  []int   // warp sizes to run; nil is 32 (0) and 5
	seeds  []int64 // random-schedule seeds; nil is the deterministic schedule
	rounds int     // runs of each point; 0 is 1
	// mayMiss lists, per program, first races (staticKey) the row may
	// leave unreported; mayAdd, pairs it may report that the suite's
	// verdict does not count: pairs that did not happen, or same-value
	// stores.
	mayMiss, mayAdd map[string][]string
}

// sameValue is what the same-value filter (§3.3.1) gags by design: the
// first race at these addresses is a pair of lanes of one store that
// wrote one value. NoSameValueFilter reports every one of them.
var sameValue = map[string][]string{
	"sh-raw-interwarp-racy":       {"intra-warp global {13 write | 13 write}"},
	"sh-war-interwarp-racy":       {"intra-warp global {16 write | 16 write}"},
	"sh-intrawarp-waw-racy":       {"intra-warp global {11 write | 11 write}"},
	"sh-intrawarp-samevalue-free": {"intra-warp global {10 write | 10 write}", "intra-warp shared {8 write | 8 write}"},
	"gl-bfs-frontier-racy":        {"intra-warp global {12 write | 12 write}", "intra-warp global {13 write | 13 write}"},
	"br-order-gl-racy":            {"intra-warp global {10 write | 10 write}", "intra-warp global {13 write | 13 write}"},
	"br-nested-gl-racy":           {"intra-warp global {12 write | 12 write}", "intra-warp global {15 write | 15 write}"},
	"br-samevalue-paths-gl-racy":  {"intra-warp global {10 write | 10 write}", "intra-warp global {13 write | 13 write}"},
}

// fastPaths are the three knobs suite26_fastpaths ships together. All
// three are read by nothing: Config{} prunes statically, the one shadow
// walk has no ownership tier to switch, and the simulator has no producer
// filter.
var fastPaths = detector.Config{Ownership: true, ProducerFilter: true, StaticPrune: true}

// The rows, one test each, so that `go test -run` names a row.

// TestMultiQueueReportEquivalence is the default row, Config{}, at one
// queue and at four.
func TestMultiQueueReportEquivalence(t *testing.T) {
	judge(t, allPrograms(), row{mayMiss: sameValue})
}

// TestMultiQueueSuiteConsistency is Config{} at two queues.
func TestMultiQueueSuiteConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("one queue only in -short")
	}
	judge(t, allPrograms(), row{queues: []int{2}, mayMiss: sameValue})
}

// TestNoSameValueFilterEquivalence: without the filter every first race
// is reported.
func TestNoSameValueFilterEquivalence(t *testing.T) {
	judge(t, allPrograms(), row{cfg: detector.Config{NoSameValueFilter: true}, mayAdd: map[string][]string{
		// Lanes storing one value are benign (CUDA's rule, and the suite's
		// verdict); unfiltered, they are reported.
		"sh-intrawarp-samevalue-free": sameValue["sh-intrawarp-samevalue-free"],
	}})
}

// TestStaticPruneReportEquivalence: StaticPrune is read by nothing, so at
// one queue the row is Config{}'s outcome byte for byte, records=
// included, at both warp sizes.
func TestStaticPruneReportEquivalence(t *testing.T) {
	judge(t, allPrograms(), row{cfg: detector.Config{StaticPrune: true}, mayMiss: sameValue})
}

// TestStaticPruneSuiteVerdicts: the pruned detector still scores 66/66.
func TestStaticPruneSuiteVerdicts(t *testing.T) {
	suiteVerdicts(t, detector.Config{StaticPrune: true})
}

// TestOwnershipEquivalence: Ownership is read by nothing — the one shadow
// walk has no ownership tier — so the row is Config{}'s outcome byte for
// byte, records= included. One queue is enough to show that a name
// benchmarks/e2e still sets changes nothing.
func TestOwnershipEquivalence(t *testing.T) {
	judge(t, allPrograms(), row{cfg: detector.Config{Ownership: true}, queues: []int{1}, mayMiss: sameValue})
}

// TestProducerFilterEquivalence: ProducerFilter is read by nothing — the
// simulator has no producer filter — so the row is Config{}'s outcome
// byte for byte, records= included. One queue is enough to show that a
// name benchmarks/e2e still sets changes nothing.
func TestProducerFilterEquivalence(t *testing.T) {
	judge(t, allPrograms(), row{cfg: detector.Config{ProducerFilter: true}, queues: []int{1}, mayMiss: sameValue})
}

// TestProducerFilterRandomScheduleEquivalence is the table's randomized
// warp scheduling row, three fixed seeds at one queue, under the inert
// ProducerFilter name: each seed's outcome is Config{}'s at that seed.
func TestProducerFilterRandomScheduleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep skipped in -short")
	}
	judge(t, allPrograms(), row{cfg: detector.Config{ProducerFilter: true}, queues: []int{1}, seeds: []int64{0, 1, 2}, mayMiss: sameValue})
}

// TestFastPathsEquivalence: the three fast-path names together, which is
// Config{}: at one queue Config{}'s outcome byte for byte, records=
// included.
func TestFastPathsEquivalence(t *testing.T) {
	judge(t, allPrograms(), row{cfg: fastPaths, mayMiss: sameValue})
}

// TestFullVCMultiQueueEquivalence: the uncompressed vector-clock
// ablation of §4.3.1, on the default shadow.
func TestFullVCMultiQueueEquivalence(t *testing.T) {
	judge(t, allPrograms(), row{cfg: detector.Config{FullVC: true}, mayMiss: sameValue})
}

// TestFullVCSuiteConsistency runs the suite under the uncompressed
// vector-clock baseline: same 66/66.
func TestFullVCSuiteConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite sweep in -short mode")
	}
	suiteVerdicts(t, detector.Config{FullVC: true})
}

// TestCoalescedSpanEquivalence: PerCellShadow is read by nothing — every
// record takes the per-cell walk, and no coalesced-span path is left to
// switch off — so the row is Config{}'s outcome byte for byte, at one
// queue, like TestOwnershipEquivalence's.
func TestCoalescedSpanEquivalence(t *testing.T) {
	judge(t, allPrograms(), row{cfg: detector.Config{PerCellShadow: true}, queues: []int{1}, mayMiss: sameValue})
}

// TestBackpressureEquivalence: the ring's size — two records, full most
// of the time, or 64, against the default 4096 — decides when the
// producer blocks, never what is reported, under the default
// configuration and under the fast paths.
func TestBackpressureEquivalence(t *testing.T) {
	var rows []row
	for _, c := range []detector.Config{{}, fastPaths} {
		for _, qc := range []int{1, 64} {
			c.QueueCap = qc
			rows = append(rows, row{cfg: c, mayMiss: sameValue})
		}
	}
	judge(t, allPrograms(), rows...)
}

// TestGranularity4SuiteConsistency: 4-byte shadow cells.
func TestGranularity4SuiteConsistency(t *testing.T) {
	judge(t, allPrograms(), row{cfg: detector.Config{Granularity: 4}, mayMiss: sameValue, mayAdd: map[string][]string{
		// Byte-disjoint stores to one word share a 4-byte cell, so the
		// three race-free mixed-width programs report pairs that did not
		// happen, and read racy.
		"sw-adjacent-u8-free":           {"inter-block global {10 write | 13 write}"},
		"sw-misaligned-u32-free":        {"inter-block global {10 write | 13 write}", "inter-block global {10 write | 14 write}"},
		"sw-word-byte-page-stress-free": {"intra-warp global {39 write | 39 write}", "intra-block global {39 write | 39 write}", "intra-block global {39 write | 43 read}"},
	}})
}

// TestBoundedShadowEquivalence: a shadow cap far above any program's
// footprint arms barrier compaction, which may discard converged shared
// slabs but never precision. The FullVC ablation walks the same bounded
// shadow; it handles barriers itself, so it never compacts.
func TestBoundedShadowEquivalence(t *testing.T) {
	judge(t, allPrograms(),
		row{cfg: detector.Config{ShadowCapBytes: 64 << 20}, mayMiss: sameValue},
		row{cfg: detector.Config{FullVC: true, ShadowCapBytes: 64 << 20}, mayMiss: sameValue})
}

// TestSubwordQueuesStress runs two rows 20 times at four queues and warp
// size 32 on the mixed-width programs: blocks on different detector
// threads issue word and byte accesses to one shadow page, so one thread
// refines it while others resolve, lock and index it. Under -race it is
// the data-race check of the refinement protocol.
func TestSubwordQueuesStress(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	var rows []row
	for _, c := range []detector.Config{{}, {ShadowCapBytes: 64 << 20}} {
		rows = append(rows, row{cfg: c, queues: []int{4}, warps: []int{0}, rounds: rounds})
	}
	judge(t, SubwordTests(), rows...)
}

// suiteVerdicts scores the 66 programs of Tests under cfg through
// RunSuite and asks for every verdict.
func suiteVerdicts(t *testing.T, cfg detector.Config) {
	t.Helper()
	res, err := RunSuite(Tests(), func(tc *Test) (Verdict, error) {
		return RunBarracudaWith(tc, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != res.Total {
		var wrong []string
		for _, tc := range Tests() {
			if !tc.Expect.Correct(res.Verdicts[tc.Name]) {
				wrong = append(wrong, tc.Name+"="+res.Verdicts[tc.Name].String())
			}
		}
		t.Fatalf("%+v: correct on %d/%d; wrong: %v", cfg, res.Correct, res.Total, wrong)
	}
}

// allPrograms is the table's program set.
func allPrograms() []*Test { return append(Tests(), SubwordTests()...) }

// judge runs rows over a suite, one subtest per program.
func judge(t *testing.T, suite []*Test, rows ...row) {
	for _, tc := range suite {
		t.Run(tc.Name, func(t *testing.T) {
			for _, ws := range []int{0, 5} {
				for _, r := range rows {
					if r.warps != nil && !slices.Contains(r.warps, ws) {
						continue
					}
					seeds := r.seeds
					if seeds == nil {
						seeds = []int64{-1}
					}
					for _, seed := range seeds {
						r.point(t, tc, ws, seed)
					}
				}
			}
		})
	}
}

// point runs the row at one warp size and seed at each of its queue
// counts.
func (r row) point(t *testing.T, tc *Test, ws int, seed int64) {
	t.Helper()
	var one outcome // the one-queue run
	tr := definition(tc, ws, seed)
	queues := r.queues
	if queues == nil {
		queues = []int{1, 4}
		if testing.Short() {
			queues = []int{1}
		}
	}
	for _, q := range queues {
		cfg := r.cfg
		cfg.Queues = q
		for range max(r.rounds, 1) {
			o := detect(tc, ws, cfg, seed)
			ctx := fmt.Sprintf("%+v ws=%d seed=%d", cfg, ws, seed)
			r.judgeRun(t, tc, tr, o, ws, q, seed, ctx)
			switch {
			case q == 1:
				one = o
				if r.cfg.QueueCap != 0 {
					// The ring's size decides when the producer blocks,
					// never what is reported: every byte of the default
					// ring's outcome.
					base := r.cfg
					base.QueueCap = 0
					sameOutcome(t, o, baseline(tc, ws, base, seed), ctx, fmt.Sprintf("%+v", base))
				}
				if r.exact() {
					sameOutcome(t, o, baseline(tc, ws, detector.Config{}, seed), ctx, "Config{}")
				}
			case o.fail == "":
				if one.res == nil && one.fail == "" {
					cfg.Queues = 1
					one = detect(tc, ws, cfg, seed)
				}
				sameAcrossQueues(t, o, one, q, ctx)
			}
		}
	}
}

// outcome is one detection run.
type outcome struct {
	fail       string // "HANG" or "ERROR: …" when the launch did not finish
	discovered string // races in discovery order (Race.ExactText)
	res        *detector.Result
}

// detect runs tc under cfg at warp size ws (0 is 32), on seed's random
// schedule or, for a negative seed, the deterministic one.
func detect(tc *Test, ws int, cfg detector.Config, seed int64) outcome {
	var o outcome
	s, err := detector.OpenPTX(tc.PTX, cfg)
	if err != nil {
		return outcome{fail: "ERROR: " + err.Error()}
	}
	launch, err := tc.launch(s)
	if err != nil {
		return outcome{fail: "ERROR: " + err.Error()}
	}
	launch.WarpSize = ws
	launch.RandomSched, launch.Seed = seed >= 0, seed
	o.res, err = s.DetectObserved(tc.Kernel, launch, func(rc core.Race) {
		o.discovered += rc.ExactText() + "\n"
	})
	switch {
	case errors.Is(err, gpusim.ErrStepBudget):
		o.fail = "HANG"
	case err != nil:
		o.fail = "ERROR: " + err.Error()
	}
	return o
}

// verdict is the run's verdict when races of its races count.
func (o outcome) verdict(races int) Verdict {
	switch {
	case o.fail == "HANG":
		return VHang
	case o.fail != "":
		return VError
	}
	return classify(o.res.Report, races)
}

// witness is one concrete racing pair: the access at addr and the access
// it raced with.
type witness struct {
	space     logging.SpaceID
	block     int32
	addr      uint64
	cur, prev core.Access
}

type loc struct {
	space logging.SpaceID
	block int32
	addr  uint64
}

// truth is what the definition says of one launch.
type truth struct {
	fail  string
	pairs map[witness]bool // every racing pair, from either side
	first map[loc][]string // per address, the pairs of its first racing access
}

// hbSink feeds a launch's records to the reference checker.
type hbSink struct{ *hb.Checker }

func (s hbSink) Emit(r *logging.Record) { s.Handle(r) }

type memoKey struct {
	name string
	ws   int
	seed int64
	cfg  detector.Config
}

// A point's definition and its baseline runs are deterministic, and many
// rows ask for them.
var (
	memoMu      sync.Mutex
	definitions = map[memoKey]*truth{}
	baselines   = map[memoKey]outcome{}
)

func remember[T any](k memoKey, m *map[memoKey]T, f func() T) T {
	memoMu.Lock()
	defer memoMu.Unlock()
	if v, ok := (*m)[k]; ok {
		return v
	}
	v := f()
	(*m)[k] = v
	return v
}

// baseline is the memoised run of a point under cfg.
func baseline(tc *Test, ws int, cfg detector.Config, seed int64) outcome {
	return remember(memoKey{tc.Name, ws, seed, cfg}, &baselines, func() outcome {
		return detect(tc, ws, cfg, seed)
	})
}

// definition runs the program's unpruned instrumentation into hb.
func definition(tc *Test, ws int, seed int64) *truth {
	return remember(memoKey{tc.Name, ws, seed, detector.Config{}}, &definitions, func() *truth {
		s, err := detector.OpenPTX(tc.PTX, detector.Config{NoPrune: true})
		if err != nil {
			return &truth{fail: "ERROR: " + err.Error()}
		}
		launch, err := tc.launch(s)
		if err != nil {
			return &truth{fail: "ERROR: " + err.Error()}
		}
		launch.WarpSize = ws
		launch.RandomSched, launch.Seed = seed >= 0, seed
		geo := ptvc.Geometry{WarpSize: ws, BlockSize: tc.Block.Count(), Blocks: tc.Grid.Count()}
		if ws == 0 {
			geo.WarpSize = gpusim.WarpSize
		}
		c := hb.New(geo)
		if _, err := s.LaunchInto(tc.Kernel, launch, hbSink{c}); err != nil {
			if errors.Is(err, gpusim.ErrStepBudget) {
				return &truth{fail: "HANG"}
			}
			return &truth{fail: "ERROR: " + err.Error()}
		}
		tr := &truth{pairs: map[witness]bool{}, first: map[loc][]string{}}
		side := func(a hb.Access) core.Access {
			return core.Access{TID: a.TID, PC: a.PC, Write: a.Op.Writes(), Atomic: a.Op == trace.OpAtom}
		}
		// Races lists the pairs by later access in trace order, so a run
		// of pairs with one Cur is one access.
		firstAt, access := map[loc]int{}, 0
		races := c.Races()
		for n, rc := range races {
			if n == 0 || rc.Cur != races[n-1].Cur {
				access++
			}
			prev, cur := side(rc.Prev), side(rc.Cur)
			tr.pairs[witness{rc.Space, rc.Block, rc.Cur.Addr, cur, prev}] = true
			tr.pairs[witness{rc.Space, rc.Block, rc.Prev.Addr, prev, cur}] = true
			l := loc{rc.Space, rc.Block, rc.Cur.Addr}
			if firstAt[l] == 0 {
				firstAt[l] = access
			}
			if firstAt[l] == access {
				kind := core.InterBlock
				switch {
				case geo.WarpOf(prev.TID) == geo.WarpOf(cur.TID):
					kind = core.IntraWarp
				case geo.BlockOf(prev.TID) == geo.BlockOf(cur.TID):
					kind = core.IntraBlock
				}
				tr.first[l] = append(tr.first[l], staticKey(kind, rc.Space, prev, cur))
			}
		}
		return tr
	})
}

// staticKey names a static race as CanonicalDigest does, less the
// same-instruction flag, which the definition does not see.
func staticKey(kind core.RaceKind, space logging.SpaceID, a, b core.Access) string {
	rw := func(s core.Access) string {
		switch {
		case s.Atomic:
			return fmt.Sprintf("%d atomic", s.PC)
		case s.Write:
			return fmt.Sprintf("%d write", s.PC)
		}
		return fmt.Sprintf("%d read", s.PC)
	}
	x, y := rw(a), rw(b)
	if y < x {
		x, y = y, x
	}
	return fmt.Sprintf("%s %s {%s | %s}", kind, space, x, y)
}

// judgeRun holds one run to the definition and, at warp size 32 on the
// deterministic schedule, to the suite's verdict.
func (r row) judgeRun(t *testing.T, tc *Test, tr *truth, o outcome, ws, queues int, seed int64, ctx string) {
	t.Helper()
	races := 0 // reported races the row's exceptions do not cover
	if o.fail != "" || tr.fail != "" {
		if o.fail != tr.fail {
			t.Errorf("%s: launch ended %q, the definition's launch %q", ctx, o.fail, tr.fail)
		}
	} else {
		rep := o.res.Report
		got := map[string]bool{}
		for _, rc := range rep.Races {
			k := staticKey(rc.Kind, rc.Space, rc.Prev, rc.Cur)
			got[k] = true
			if slices.Contains(r.mayAdd[tc.Name], k) {
				continue
			}
			races++
			if !tr.pairs[witness{rc.Space, rc.Block, rc.Addr, rc.Cur, rc.Prev}] {
				t.Errorf("%s: reported %s, a pair that did not happen", ctx, rc.String())
			}
		}
		// Above one queue the detector meets accesses out of trace order,
		// and the digest against one queue's carries the contract.
		var missed []string
		for l, keys := range tr.first {
			if queues == 1 && !slices.ContainsFunc(keys, func(k string) bool { return got[k] || slices.Contains(r.mayMiss[tc.Name], k) }) {
				missed = append(missed, fmt.Sprintf("%v %#x: one of %s", l.space, l.addr, strings.Join(keys, ", ")))
			}
		}
		if len(missed) > 0 {
			sort.Strings(missed)
			t.Errorf("%s: missed the first race at %d address(es):\n%s", ctx, len(missed), strings.Join(missed, "\n"))
		}
		if rep.PrecisionDegraded {
			t.Errorf("%s: precision degraded", ctx)
		}
	}
	if v := o.verdict(races); ws == 0 && seed < 0 && !tc.Expect.Correct(v) {
		t.Errorf("%s: verdict %v, want %v (%s)", ctx, v, tc.Expect, tc.Desc)
	}
}

// exact reports whether the row promises Config{}'s report at one queue:
// its knobs decide only how a report is reached.
func (r row) exact() bool {
	c := r.cfg
	c.StaticPrune, c.Ownership, c.ProducerFilter, c.PerCellShadow = false, false, false, false
	c.QueueCap, c.ShadowCapBytes, c.Queues = 0, 0, 0
	return c == detector.Config{}
}

// sameOutcome holds a one-queue run to a baseline's: discovery order,
// the report's exact text, launch stats and the PTVC format census.
func sameOutcome(t *testing.T, o, base outcome, ctx, name string) {
	t.Helper()
	if o.fail != "" || base.fail != "" {
		if o.fail != base.fail {
			t.Errorf("%s: launch ended %q, %s's %q", ctx, o.fail, name, base.fail)
		}
		return
	}
	if o.discovered != base.discovered {
		t.Errorf("%s: discovery order diverged:\n--- %s ---\n%s--- got ---\n%s", ctx, name, base.discovered, o.discovered)
	}
	got, want := o.res.Report.ExactText(), base.res.Report.ExactText()
	if got != want {
		t.Errorf("%s: report diverged:\n--- %s ---\n%s--- got ---\n%s", ctx, name, want, got)
	}
	gs, bs := o.res.SimStats, base.res.SimStats
	if gs != bs {
		t.Errorf("%s: launch stats diverged:\n%s: %+v\ngot: %+v", ctx, name, bs, gs)
	}
	if fmt.Sprint(o.res.FormatHist) != fmt.Sprint(base.res.FormatHist) {
		t.Errorf("%s: format histogram diverged:\n%s: %v\ngot: %v", ctx, name, base.res.FormatHist, o.res.FormatHist)
	}
}

// sameAcrossQueues holds a run above one queue to the row's one-queue
// run.
func sameAcrossQueues(t *testing.T, o, one outcome, queues int, ctx string) {
	t.Helper()
	if one.fail != "" {
		t.Errorf("%s: launch finished, at one queue it ended %q", ctx, one.fail)
		return
	}
	got, want := o.res.Report.CanonicalDigest(), one.res.Report.CanonicalDigest()
	if provableDigest(got, queues) != provableDigest(want, queues) {
		t.Errorf("%s: digest diverged from one queue's:\n--- one queue ---\n%s--- got ---\n%s", ctx, want, got)
	}
	if o.res.SimStats != one.res.SimStats {
		t.Errorf("%s: launch stats diverged from one queue's:\none queue: %+v\ngot:       %+v", ctx, one.res.SimStats, o.res.SimStats)
	}
	if fmt.Sprint(o.res.FormatHist) != fmt.Sprint(one.res.FormatHist) {
		t.Errorf("%s: format histogram diverged from one queue's:\none queue: %v\ngot:       %v", ctx, one.res.FormatHist, o.res.FormatHist)
	}
}

// provableDigest projects a canonical digest to what is provable at a queue
// count. At one queue that is every byte of it. Across queues two things
// on a global word are schedule-dependent (core.Report.CanonicalDigest):
// the block scope of a write–write pair whose writers store one value —
// in gl-bfs-frontier-racy whether the pair within one block is gagged by
// the same-value filter or reported depends on which queue's store reached
// the word first, in two runs of one configuration as much as between two
// — and which of a thread's reads a write races with, since a word keeps
// each thread's latest read only. So global-space race lines lose their
// intra-block/inter-block word and their reader PCs, and are
// de-duplicated; shared-space lines, divergences and records= stay exact.
// At every queue count each reported pair is still held to the
// definition (judgeRun).
func provableDigest(digest string, queues int) string {
	if queues <= 1 {
		return digest
	}
	lines := strings.Split(strings.TrimSuffix(digest, "\n"), "\n")
	body, last := lines[:len(lines)-1], lines[len(lines)-1] // last: records=, HANG or ERROR
	seen := make(map[string]bool)
	out := body[:0]
	for _, line := range body {
		for _, scope := range []string{"intra-block", "inter-block"} {
			if rest, ok := strings.CutPrefix(line, "race "+scope+" global "); ok {
				line = "race global " + rest
			}
		}
		if strings.HasPrefix(line, "race global ") {
			open, end := strings.Index(line, "{"), strings.Index(line, "}")
			sides := strings.Split(line[open+1:end], " | ")
			for i, side := range sides {
				if strings.HasSuffix(side, " read") {
					sides[i] = "read"
				}
			}
			sort.Strings(sides)
			line = line[:open+1] + strings.Join(sides, " | ") + line[end:]
			if seen[line] {
				continue
			}
			seen[line] = true
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return strings.Join(append(out, last), "\n") + "\n"
}
