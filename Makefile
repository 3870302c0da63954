# BARRACUDA-in-Go build/verify/bench targets (stdlib Go only).

GO ?= go

# Everything CI runs, in order: `make ci` here, one `run: make <target>`
# step each in .github/workflows/ci.yml (ci-in-sync holds the two lists
# together), so a command is written once, in this file.
CI_TARGETS := build vet fmt-check one-forward-path one-way-in one-detector one-queue one-rule one-default ci-in-sync loc test race \
	bench-e2e-smoke vet-smoke vet-fix-smoke artifacts-smoke stress-interp \
	stress-shadow stress-refine stress-drain stress-multiqueue \
	stress-failover stress-stream stress-fleet

.PHONY: all bench bench-sim bench-open fuzz-ptx serve ci $(CI_TARGETS)

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt must be a no-op across the tree.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The coordinator has one road to a worker, its /v1/stream sessions: a
# worker /jobs URL built in internal/fleet is the JSON forward grown back.
one-forward-path:
	@if grep -nE 'Addr *\+ *"/jobs' internal/fleet/*.go; then \
		echo "internal/fleet builds a worker /jobs URL: jobs are forwarded over /v1/stream only"; exit 1; fi

# The daemon has one way in, Scheduler.submit, and one place work runs,
# Scheduler.run, on a pool worker: a repair loop, a detect or a module
# opened (a ModCache lease) from any other file of internal/server is a
# side door — unqueued, untimed, uncounted — grown back.
one-way-in:
	@if grep -nE 'repairOnLease\(|\.DetectObserved\(|\.Acquire\(' $$(ls internal/server/*.go | grep -vE '_test\.go$$|/scheduler\.go$$') | grep -vE 'func repairOnLease\(|func \(c \*ModCache\) Acquire\('; then \
		echo "internal/server launches a kernel or opens a module outside scheduler.go: all work goes in through Scheduler.submit"; exit 1; fi

# The daemon runs one detector: no request, wire payload or cache key
# carries detector configuration, so outside tests internal/server,
# internal/wire and internal/fleet name detector.Config once, where
# ModCache opens a module. Any other mention is a per-job config grown back.
one-detector:
	@if grep -nE 'detector\.Config\b' $$(ls internal/server/*.go internal/wire/*.go internal/fleet/*.go | grep -v '_test\.go$$') \
		| grep -vE '^internal/server/modcache\.go:[0-9]+:[[:space:]]+e\.sess, e\.err = detector\.OpenPTX\(src, detector\.Config\{\}\)$$'; then \
		echo "internal/server, internal/wire or internal/fleet names detector.Config outside ModCache's one OpenPTX: the daemon runs Config{} on every job"; exit 1; fi

# The fleet has one FIFO queue and one placement rule: a job takes the
# first Alive, non-excluded node of its key's ring sequence with a free
# slot. A job class, a second queue, a reserved slot or spill-to-idle named
# outside tests in internal/fleet or internal/server is the class split
# grown back.
one-queue:
	@if grep -nE 'Class(Batch|Interactive)|interQ|batchQ|batchCap|Spills' $$(ls internal/fleet/*.go internal/server/*.go | grep -v '_test\.go$$'); then \
		echo "internal/fleet or internal/server names a job class, a second queue, a reserved slot or spill-to-idle: the fleet has one queue and one rule"; exit 1; fi

# Every static rule is written once. The redundant-logging rule of §4.1
# lives in internal/staticanalysis, which the default tier runs per basic
# block (BlockRedundant) and the inter-block pruner across blocks: a register
# redefinition or a fence read in a non-test file of internal/instrument
# is a second copy of it. The synchronization idioms of §3.1 that the lint
# pass and the repair templates both read are each found by one function
# of internal/staticanalysis (idioms.go): the spin-wait walk (a backward
# branch's target, LabelAt), the lock-word scan (atom.exch) and the
# divergent-region marking (a tid-dependent guard, its reconvergence).
# Any of them in a second function is the duplicate grown back.
one-rule:
	@if grep -nE '\.Defs\(|ptx\.OpMembar' $$(ls internal/instrument/*.go | grep -v '_test\.go$$'); then \
		echo "internal/instrument walks its own redundancy: the default tier's prune marks come from staticanalysis.BlockRedundant"; exit 1; fi
	@for pat in 'LabelAt\[' 'AtomExch' 'GuardTainted\(|ReconvergencePC\('; do \
		fns="$$(pat="$$pat" awk '/^func /{f = FILENAME ": " $$0; next} !/^[ \t]*\/\// && $$0 ~ ENVIRON["pat"] {print f}' \
			$$(ls internal/staticanalysis/*.go | grep -v '_test\.go$$') | sort -u)"; \
		if [ "$$(printf '%s\n' "$$fns" | grep -c .)" -gt 1 ]; then \
			echo "internal/staticanalysis matches /$$pat/ in more than one function:"; echo "$$fns"; \
			echo "the spin-wait walk, the lock-word scan and the divergent-region marking are each found once, in idioms.go"; exit 1; fi; \
	done

# Static pruning and the per-cell shadow walk are the one default path:
# Instrument prunes unless NoPrune is set, and every memory record takes the
# walk, with no coalesced-span path or ownership tier beside it; the
# simulator emits every logged access, with no producer filter. The fields
# that once switched them (detector.Config's StaticPrune, Ownership,
# PerCellShadow and ProducerFilter, instrument.Options.StaticPrune,
# core.Options' Ownership and PerCellShadow, gpusim.LaunchConfig's
# ProducerFilter and FilterGranularity) and the counters of the tier
# (shadow.MemStats' OwnedFast and Inflations, always 0) stay, read by
# nothing, only while benchmarks/e2e names them. A non-test Go file outside
# benchmarks/ that reads one is the switch grown back.
one-default:
	@if grep -nE '\.(StaticPrune|Ownership|PerCellShadow|OwnedFast|Inflations|ProducerFilter|FilterGranularity)\b' $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*'); then \
		echo "a non-test Go file outside benchmarks/ reads .StaticPrune, .Ownership, .PerCellShadow, .OwnedFast, .Inflations, .ProducerFilter or .FilterGranularity: static pruning, the per-cell walk and the unfiltered stream are the default path, not a switch"; exit 1; fi

# The workflow is a list of targets and nothing else: its `run:` lines are
# `make <target>` for exactly CI_TARGETS, in order.
ci-in-sync:
	@got="$$(sed -n 's/^ *run: //p' .github/workflows/ci.yml | tr '\n' ' ')"; \
	want="$$(for t in $(CI_TARGETS); do printf 'make %s ' $$t; done)"; \
	if [ "$$got" != "$$want" ]; then \
		echo ".github/workflows/ci.yml runs:"; echo "  $$got"; echo "make ci runs:"; echo "  $$want"; exit 1; fi

# The number ROADMAP item 2 tracks: non-test Go lines outside benchmarks/.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' | xargs cat | wc -l

# The PTX lint pass over the example corpus: clean kernels must produce
# zero diagnostics (-strict fails on a warning too), the seeded
# barrier-divergence bug must be flagged.
CLEAN := $(wildcard examples/vet/clean_*.ptx)
vet-smoke: build
	$(GO) run ./cmd/barracuda vet -strict $(CLEAN)
	@if $(GO) run ./cmd/barracuda vet examples/vet/divergent_barrier.ptx > vet-smoke.out 2>/dev/null; then \
		echo "seeded barrier-divergence bug was not flagged"; rm -f vet-smoke.out; exit 1; fi
	@grep -q barrier-divergence vet-smoke.out || { echo "wrong diagnostic:"; cat vet-smoke.out; rm -f vet-smoke.out; exit 1; }
	@rm -f vet-smoke.out

# Verified repair synthesis over the example corpus: every fixable
# kernel must end race-free with at least one verified patch, the
# synthesizer must propose nothing for the two unrepairable kernels, and
# no kernel's repair may target more than the races its baseline run
# reported (candidates= at most baseline_races=).
FIXABLE := $(wildcard examples/vet/fixable_*.ptx)
UNFIXABLE := $(wildcard examples/vet/unfixable_*.ptx)
FIX_TARGETS_REPORTED = awk '/ baseline_races=/ { for (i = 1; i <= NF; i++) if (split($$i, kv, "=") == 2) n[kv[1]] = kv[2] + 0; \
	if (n["candidates"] > n["baseline_races"]) { print "repair targets more than the reported races: " $$0; bad = 1 } } \
	END { exit bad }' vet-fix.out || { cat vet-fix.out; rm -f vet-fix.out; exit 1; }
vet-fix-smoke: build
	@$(GO) run ./cmd/barracuda vet -fix $(FIXABLE) > vet-fix.out 2>&1 || true
	@$(FIX_TARGETS_REPORTED)
	@for f in $(FIXABLE); do \
		line="$$(grep "^$$f: kernel .*baseline_races=" vet-fix.out)"; \
		case "$$line" in \
		*" verified=0 "*|*"baseline_races=0 "*) \
			echo "$$f: repair failed: $$line"; cat vet-fix.out; rm -f vet-fix.out; exit 1;; \
		*"final_races=0") ;; \
		*) echo "$$f: patched module still races: $$line"; cat vet-fix.out; rm -f vet-fix.out; exit 1;; \
		esac; \
	done
	@rm -f vet-fix.out
	@$(GO) run ./cmd/barracuda vet -fix $(UNFIXABLE) > vet-fix.out 2>&1 || true
	@$(FIX_TARGETS_REPORTED)
	@for f in $(UNFIXABLE); do \
		line="$$(grep "^$$f: kernel .*baseline_races=" vet-fix.out)"; \
		case "$$line" in \
		*" proposals=0 verified=0 "*) ;; \
		*) echo "$$f: expected an honest decline: $$line"; cat vet-fix.out; rm -f vet-fix.out; exit 1;; \
		esac; \
	done
	@rm -f vet-fix.out
	@echo "vet-fix-smoke: $(words $(FIXABLE)) fixable repaired, $(words $(UNFIXABLE)) unrepairable declined"

# The paper's artifacts still print: Table 1, Figure 9 and Figure 7 (the
# PTVC format split per program, which the benchmark does not record).
artifacts-smoke:
	$(GO) run ./cmd/benchtab -table1 -fig9 -ptvc

# Tier-1 verification: the full suite, plus the same suite under the Go
# race detector (the transport and server are concurrency-heavy).
test:
	$(GO) test ./...

# internal/bench alone is about 7 minutes under the race detector on a
# 2-CPU host, too close to go test's 10-minute default.
race:
	$(GO) test -race -timeout 30m ./...

# Every Go microbenchmark in the tree. The perf record that gates a PR
# is the end-to-end benchmark: bash benchmarks/e2e/run.sh (BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Microbenchmarks of both sides of the queue. The interpreter: warp
# stepping (BenchmarkWarpStepWide at the 26-program suite's register count
# and residency) and log emission, with allocation counts and ns per warp
# instruction; one warp instruction through the typed 32-bit loops against
# the generic closure (an op that reads the same on both sides has fallen
# off the typed path); a full-warp global ld and st through the typed loop,
# at a 4-byte and a 640-byte lane stride. The detector thread: one strided
# warp record through the run walk, and a shadow page slab taken fresh
# against recycled.
bench-sim:
	$(GO) test -bench='BenchmarkWarpStep|BenchmarkLogEmission|BenchmarkIntOps|BenchmarkLdSt' -benchmem -run=^$$ ./internal/gpusim/
	$(GO) test -bench=BenchmarkWarpAccessStrided -benchmem -run=^$$ ./internal/core/
	$(GO) test -bench=BenchmarkSlabTake -benchtime=200x -run=^$$ ./internal/shadow/

# Microbenchmarks of the cold path (a developer target, not in
# CI_TARGETS): a module's first-launch compile of every kernel of the 26
# programs, instrumented both ways, and an open of each program — parse,
# instrument, load — under Config{} and the fast paths, with allocation
# counts.
bench-open:
	$(GO) test -bench=BenchmarkCompile -benchmem -run=^$$ ./internal/gpusim/
	$(GO) test -bench=BenchmarkOpen -benchmem -run=^$$ ./internal/bench/

# The end-to-end benchmark (BENCHMARK.json) is a module of its own, so
# the root build and test never compile it: vet it and run its smoke
# test against this tree.
bench-e2e-smoke:
	cd benchmarks/e2e && $(GO) vet . && $(GO) test .

# The interpreter's goldens (recorded from the lane-major interpreter PR 12
# deleted) at every warp size, the register-file layout, the typed 32-bit
# loops against the generic closure they stand in for, the typed loads and
# stores against execLane's per-lane oracle, and the hostile inputs that
# must cost a job an error and never the worker (an address whose last
# byte wraps past 2^64, a launch past CUDA's extents, a block of more than
# 32 warps, `.shared`/`.local` declarations that are negative or past the
# loader's bound, and a kernel that spins past its job's wall-clock
# timeout, alone and inside a repair, among them), the PTX fuzz corpus (the seeds in
# internal/detector/testdata/fuzz/FuzzPTX through parse, instrument, load
# and a bounded detect; no fuzzing, so it is deterministic), and eight
# goroutines opening every shipped program at once against the open
# golden, under the Go race detector.
stress-interp:
	$(GO) test -race -run 'TestWarpVectorizedEquivalence|TestWarpVectorizedEquivalenceAllWarpSizes' ./internal/bugsuite/
	$(GO) test -race -run 'TestRegisterFileLayout|TestWarpShapeInvariance|TestTypedIntOps|TestTypedLdStMatchGeneric|TestWrappedAddressFaultsLane' ./internal/gpusim/
	$(GO) test -race -run 'TestWarpVectorizedLitmusEquivalence|TestUnderArityIsLoadError|TestRegisterBombIsLoadError|TestMemoryBombIsLoadError|TestManyBasesOpenInTime|TestBlockWarpBound' ./internal/detector/
	$(GO) test -race -run 'TestMalformedPTXFailsJobNotWorker|TestOversizedConfigRejected|TestTimedOutLaunchFreesItsWorker|TestRepairDeadlineStopsTheLoop' ./internal/server/
	$(GO) test -race -run FuzzPTX ./internal/detector/
	$(GO) test -race -run TestOpenConcurrent ./internal/bench/

# Fuzz the open path for a minute (a developer target, not in CI_TARGETS):
# bytes through parse, instrument, load and a bounded detect. A failing
# input lands in internal/detector/testdata/fuzz/FuzzPTX and from then on
# runs with the corpus in stress-interp. Minimizing an input byte by byte
# takes a launch per candidate, so it is held to 5 s, not the default
# minute.
fuzz-ptx:
	$(GO) test -run '^$$' -fuzz '^FuzzPTX$$' -fuzztime 60s -fuzzminimizetime 5s ./internal/detector/

# The bounded-shadow correctness stress: the bug suite table's bounded
# rows (the epoch rules and FullVC under a byte cap) under the Go race
# detector at 4 queues, the shadow's own eviction, cache-generation and
# slab-compaction tests, and the slab pool: its bound, a recycled slab
# against a fresh one, use after Release, and takes and releases beside
# running detections.
stress-shadow:
	GOMAXPROCS=4 $(GO) test -race -run 'TestBoundedShadowEquivalence' ./internal/bugsuite/
	$(GO) test -race -run 'TestBoundedEviction|TestValidateCacheGeneration|TestCompactSharedSlab' ./internal/shadow/
	$(GO) test -race -count=3 -run 'TestSlabPoolCap|TestSlabTakeClears|TestReleaseThenUseFailsLoudly|TestRecycledSlabIsVirgin|TestSlabPoolConcurrent' ./internal/shadow/

# The per-region-granule correctness stress, one shadow discipline for
# every configuration: the recorded per-byte outcomes (bug suite,
# mixed-width programs and litmus corpus, Granularity 1/2/4; FullVC held
# to its own recording from 9dddb42), the refinement unit and property
# tests, the power-of-two granule, the cell-layout contract, the region
# lock's mutual exclusion and the run walk's equivalence with one walk per
# lane (and its one prologue per run), and —
# repeated, with real parallelism, under the Go race detector — blocks on
# four detector threads issuing word and byte accesses to the same shadow
# page, FullVC's among them.
stress-refine:
	$(GO) test -race -run 'TestGranuleGoldenEquivalence|TestSubword' ./internal/bugsuite/
	$(GO) test -race -run 'TestGranuleLitmusGoldenEquivalence' ./internal/detector/
	$(GO) test -race -run 'TestRefine|TestRegionGranulePerMode|TestNewRejectsNonPowerOfTwo|TestCellLayout|TestVisitLanesEquivalence|TestRegionLockMutualExclusion' ./internal/shadow/
	$(GO) test -race -run 'TestRefine|TestReportWeight' ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -count=3 -run 'TestSubwordQueuesStress' ./internal/bugsuite/
	GOMAXPROCS=4 $(GO) test -race -count=3 -run 'TestFullVCMultiQueueEquivalence' ./internal/bugsuite/
	GOMAXPROCS=4 $(GO) test -race -count=3 -run 'TestRefineConcurrentWorkers' ./internal/core/

# Graceful drain and the worker link (join, heartbeat, leave), end to end,
# under the Go race detector.
stress-drain:
	$(GO) test -race -run 'TestDrain|TestWorkerLink' ./internal/fleet/

# Failover and warm routing through real HTTP nodes; then, repeated under
# the Go race detector, the fleet's fault properties against the real
# coordinator and real workers (crashed workers, lost heartbeats, a slow
# node, a full primary: none may lose a job or change a report) and the
# coordinator's virtual-time event loop (one seed, one schedule, no job
# lost).
stress-failover:
	$(GO) test -race -run 'TestFleetFailoverRetriesElsewhere|TestFleetEndToEndWarmRouting' ./internal/fleet/
	$(GO) test -race -count=3 -run 'TestFailoverLosesNothingAndReportsMatchSingleNode|TestHeartbeatLossIsSurvivable|TestSlowNodeChangesScheduleNotReports|TestReportDigestInvariantUnderRouting|TestSameSeedSameSchedule' ./internal/fleet/

# The streaming-protocol correctness stress: frame-decoder fuzz corpus
# regression, then stream-vs-JSON report equivalence over the
# 66-program bug suite, a repair launch and an oversize summary under
# the Go race detector.
stress-stream:
	$(GO) test -run 'FuzzFrames|TestDecodeMalformedPayloads|TestRaceStreamRoundTrip|TestSummaryRoundTrip' ./internal/wire/
	$(GO) test -race -run 'TestStreamJSONEquivalence|StreamRepairLaunch|OversizeSummary' ./internal/server/

# The standing-session stress, repeated under the Go race detector: the
# coordinator's pool of /v1/stream sessions against cut connections, dead
# workers, refused launches, membership changes and eight concurrent
# submitters, the stream-forwarding tests it must not have changed, bench
# and repair jobs on the same road, a worker that refuses the upgrade, and
# the worker closing the idle streams net/http no longer tracks.
stress-fleet:
	$(GO) test -race -count=5 -run 'Pooled|StaleSession|PoolClosed|LaunchRejectKeepsSession|StreamForward|BenchJobRidesTheStream|FleetRunsRepairJobs|StreamForwardFallbackOldWorker' ./internal/fleet/
	$(GO) test -race -run 'ServerCloseEndsIdleStreams' ./internal/server/

# The multi-queue stress, with real parallelism and under the Go race
# detector: the transport's one-producer-per-queue stresses (Queues 1 and
# 4, two-record rings, every wire form), the park/wake handoff at
# GOMAXPROCS 4 under the race detector and again at GOMAXPROCS 1, where
# producer and consumer take turns on one thread, the round-trip fuzz
# seeds, the bug suite table's rows whose multi-queue runs no other target
# takes under the race detector (Config{} at 2 and 4 queues, the fast
# paths, NoSameValueFilter, Granularity 4) and its QueueCap 1 and 64 rows (the
# ring size moves when the producer blocks, never what is reported), the
# program whose global write–write pairs change block scope
# with the queue schedule (core/digest.go) repeated plain and under the race
# detector, where two runs of one configuration differ, and four detector
# threads holding page locks across the lanes of records that interleave
# over the same three pages. Last, the rings' hand-off between the
# simulator and the detector threads, at GOMAXPROCS 1, where a producer
# that waited on a thread unable to run would hang into the timeout, and
# at GOMAXPROCS 4 under the race detector.
SCOPE_WITNESS := TestMultiQueueReportEquivalence/gl-bfs-frontier-racy
RING_HANDOFF := TestRingHandoff|TestDetectErrorJoinsDetectorThreads

stress-multiqueue:
	GOMAXPROCS=4 $(GO) test -race -count=3 -run 'TestConcurrentProducers|TestDequeueBatchConcurrentProducers|TestStress|TestQueueBackpressure|TestWorstCaseThroughSmallestRing|TestPark' ./internal/logging/
	GOMAXPROCS=1 $(GO) test -count=3 -timeout 60s -run 'TestPark' ./internal/logging/
	$(GO) test -run 'FuzzQueueRoundTrip|TestQueueRoundTripProperty|TestWrapAtEveryOffset' ./internal/logging/
	GOMAXPROCS=4 $(GO) test -count=5 -run TestMultiQueueReportEquivalence ./internal/bugsuite/
	GOMAXPROCS=4 $(GO) test -race -count=2 -run 'TestMultiQueueReportEquivalence|TestMultiQueueSuiteConsistency|TestFastPathsEquivalence|TestNoSameValueFilterEquivalence|TestGranularity4SuiteConsistency|TestBackpressureEquivalence' ./internal/bugsuite/
	$(GO) test -count=40 -run '$(SCOPE_WITNESS)' ./internal/bugsuite/
	$(GO) test -race -count=20 -run '$(SCOPE_WITNESS)' ./internal/bugsuite/
	GOMAXPROCS=4 $(GO) test -race -run TestSameValueGoldenEquivalence ./internal/detector/
	GOMAXPROCS=4 $(GO) test -race -count=3 -run TestStridedLockHoldStress ./internal/core/
	GOMAXPROCS=1 $(GO) test -count=3 -timeout 60s -run '$(RING_HANDOFF)' ./internal/detector/
	GOMAXPROCS=4 $(GO) test -race -count=5 -run '$(RING_HANDOFF)' ./internal/detector/

serve:
	$(GO) run ./cmd/barracudad -addr :8321

ci: $(CI_TARGETS)
