# BARRACUDA-in-Go build/verify/bench targets (stdlib Go only).

GO ?= go

# Everything CI runs, in order: `make ci` here, one `run: make <target>`
# step each in .github/workflows/ci.yml (ci-in-sync holds the two lists
# together), so a command is written once, in this file.
CI_TARGETS := build vet fmt-check one-forward-path one-way-in ci-in-sync loc test race \
	bench-e2e-smoke vet-smoke vet-fix-smoke artifacts-smoke stress-interp stress-span \
	stress-ownership stress-refine stress-filter stress-drain stress-multiqueue \
	stress-failover stress-stream stress-fleet fleet-sim

.PHONY: all bench bench-sim serve ci $(CI_TARGETS)

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

# The daemon has one place a kernel is launched, Scheduler.run, on a pool
# worker: a repair loop or a detect started from any other file of
# internal/server is /v1/repair's old road — unqueued, untimed, uncounted —
# grown back.
one-way-in:
	@if grep -nE 'repairOnLease\(|\.DetectObserved\(' $$(ls internal/server/*.go | grep -vE '_test\.go$$|/scheduler\.go$$') | grep -v 'func repairOnLease('; then \
		echo "internal/server launches a kernel outside scheduler.go: every launch goes in through Scheduler.SubmitTenant"; exit 1; fi

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
# zero diagnostics, the seeded barrier-divergence bug must be flagged.
vet-smoke: build
	$(GO) run ./cmd/barracuda vet examples/vet/clean_saxpy.ptx examples/vet/clean_blockreduce.ptx
	@if $(GO) run ./cmd/barracuda vet examples/vet/divergent_barrier.ptx > vet-smoke.out 2>/dev/null; then \
		echo "seeded barrier-divergence bug was not flagged"; rm -f vet-smoke.out; exit 1; fi
	@grep -q barrier-divergence vet-smoke.out || { echo "wrong diagnostic:"; cat vet-smoke.out; rm -f vet-smoke.out; exit 1; }
	@rm -f vet-smoke.out

# Verified repair synthesis over the example corpus: every fixable
# kernel must end race-free with at least one verified patch, and the
# synthesizer must propose nothing for the two unrepairable kernels.
FIXABLE := $(wildcard examples/vet/fixable_*.ptx)
UNFIXABLE := $(wildcard examples/vet/unfixable_*.ptx)
vet-fix-smoke: build
	@$(GO) run ./cmd/barracuda vet -fix $(FIXABLE) > vet-fix.out 2>&1 || true
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
	@for f in $(UNFIXABLE); do \
		line="$$(grep "^$$f: kernel .*baseline_races=" vet-fix.out)"; \
		case "$$line" in \
		*" proposals=0 verified=0 "*) ;; \
		*) echo "$$f: expected an honest decline: $$line"; cat vet-fix.out; rm -f vet-fix.out; exit 1;; \
		esac; \
	done
	@rm -f vet-fix.out
	@echo "vet-fix-smoke: $(words $(FIXABLE)) fixable repaired, $(words $(UNFIXABLE)) unrepairable declined"

# The paper's artifacts still print: Table 1 and Figure 9.
artifacts-smoke:
	$(GO) run ./cmd/benchtab -table1 -fig9

# Tier-1 verification: the full suite, plus the same suite under the Go
# race detector (the transport and server are concurrency-heavy).
test:
	$(GO) test ./...

# internal/bench alone is 12 minutes under the race detector on a 2-CPU
# host, past go test's 10-minute default.
race:
	$(GO) test -race -timeout 30m ./...

# Every Go microbenchmark in the tree. The perf record that gates a PR
# is the end-to-end benchmark: bash benchmarks/e2e/run.sh (BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Interpreter microbenchmarks: warp stepping (BenchmarkWarpStepWide at the
# 26-program suite's register count and residency) and log emission, with
# allocation counts and ns per warp instruction; one warp instruction
# through the typed 32-bit loops against the generic closure (an op that
# reads the same on both sides has fallen off the typed path); and a
# shadow page slab taken fresh against recycled.
bench-sim:
	$(GO) test -bench='BenchmarkWarpStep|BenchmarkLogEmission|BenchmarkIntOps' -benchmem -run=^$$ ./internal/gpusim/
	$(GO) test -bench=BenchmarkSlabTake -benchtime=200x -run=^$$ ./internal/shadow/

# The end-to-end benchmark (BENCHMARK.json) is a module of its own, so
# the root build and test never compile it: vet it and run its smoke
# test against this tree.
bench-e2e-smoke:
	cd benchmarks/e2e && $(GO) vet . && $(GO) test .

# The interpreter's goldens (recorded from the lane-major interpreter PR 12
# deleted) at every warp size, the register-file layout, the typed 32-bit
# loops against the generic closure they stand in for, and the hostile
# inputs that must cost a job an error and never the worker, under the Go
# race detector.
stress-interp:
	$(GO) test -race -run 'TestWarpVectorizedEquivalence|TestWarpVectorizedEquivalenceAllWarpSizes' ./internal/bugsuite/
	$(GO) test -race -run 'TestRegisterFileLayout|TestWarpShapeInvariance|TestTypedIntOps' ./internal/gpusim/
	$(GO) test -race -run 'TestWarpVectorizedLitmusEquivalence|TestUnderArityIsLoadError|TestRegisterBombIsLoadError' ./internal/detector/
	$(GO) test -race -run 'TestMalformedPTXFailsJobNotWorker|TestOversizedConfigRejected' ./internal/server/

# Coalesced-span vs per-cell report equivalence: the bug suite and the
# random-trace property tests, under the Go race detector.
stress-span:
	$(GO) test -race -run TestCoalescedSpanEquivalence ./internal/bugsuite/
	$(GO) test -race -run 'TestSpanPropertyEquivalence|TestSpanPropertyEquivalenceSmallWarp' ./internal/core/

# The adaptive-shadow correctness stress: ownership and bounded-shadow
# equivalence over the 66-program bug suite under the Go race detector
# (concurrent claim/inflate traffic at 4 queues), the shadow's own
# ownership-transition, eviction and slab-compaction tests, and the slab
# pool: its bound, a recycled slab against a fresh one, use after Release,
# and takes and releases beside running detections.
stress-ownership:
	GOMAXPROCS=4 $(GO) test -race -run 'TestOwnershipEquivalence|TestBoundedShadowEquivalence' ./internal/bugsuite/
	$(GO) test -race -run 'TestOwnershipTransitions|TestOwnershipProbeConcurrent|TestBoundedEviction|TestValidateCacheGeneration|TestCompactSharedSlab' ./internal/shadow/
	$(GO) test -race -count=3 -run 'TestSlabPoolCap|TestSlabTakeClears|TestReleaseThenUseFailsLoudly|TestRecycledSlabIsVirgin|TestSlabPoolConcurrent' ./internal/shadow/

# The per-region-granule correctness stress, one shadow discipline for
# every configuration: the recorded per-byte outcomes (bug suite,
# mixed-width programs and litmus corpus, Granularity 1/2/4; FullVC held
# to its own recording from 9dddb42), the refinement unit and property
# tests, the cell-layout contract, the region lock's mutual exclusion and
# the record-level walk's equivalence with one walk per lane, and —
# repeated, with real parallelism, under the Go race detector — blocks on
# four detector threads issuing word and byte accesses to the same shadow
# page, FullVC's among them.
stress-refine:
	$(GO) test -race -run 'TestGranuleGoldenEquivalence|TestSubword' ./internal/bugsuite/
	$(GO) test -race -run 'TestGranuleLitmusGoldenEquivalence' ./internal/detector/
	$(GO) test -race -run 'TestRefine|TestRegionGranulePerMode|TestCellLayout|TestVisitLanesEquivalence|TestRegionLockMutualExclusion' ./internal/shadow/
	$(GO) test -race -run 'TestRefine|TestReportWeight' ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -count=3 -run 'TestSubwordQueuesStress' ./internal/bugsuite/
	GOMAXPROCS=4 $(GO) test -race -count=3 -run 'TestFullVCMultiQueueEquivalence' ./internal/bugsuite/
	GOMAXPROCS=4 $(GO) test -race -count=3 -run 'TestRefineConcurrentWorkers' ./internal/core/

# Graceful drain and the worker link (join, heartbeat, leave), end to end,
# under the Go race detector.
stress-drain:
	$(GO) test -race -run 'TestDrain|TestWorkerLink' ./internal/fleet/

# Failover and warm routing through real HTTP nodes, and the simulator's
# same-seed determinism and nothing-lost properties, under the Go race
# detector.
stress-failover:
	$(GO) test -race -run 'TestFleetFailoverRetriesElsewhere|TestFleetEndToEndWarmRouting' ./internal/fleet/
	$(GO) test -race -run 'TestSameSeedSameDigest|TestFailoverLosesNothingAndReportsMatchSingleNode' ./internal/fleet/sim/

# The cluster-simulator determinism smoke, under the Go race detector:
# each scenario runs twice at a fixed seed and fails unless both passes
# produce identical schedule and report digests with zero lost jobs —
# including a crash + heartbeat-loss scenario that exercises failover.
fleet-sim:
	$(GO) run -race ./cmd/fleetsim -nodes 4 -jobs 20000 -seed 42 -repeat 2
	$(GO) run -race ./cmd/fleetsim -nodes 8 -jobs 20000 -seed 42 -traffic mixed -crash 2@0.3 -hbloss 0.05 -repeat 2

# The producer-filter correctness stress: filtered-vs-unfiltered report
# equivalence over the 66-program bug suite (sequential and randomized
# schedules), the benchmark suite, and the record-batch codec fuzz
# corpus, under the Go race detector where schedules are concurrent.
stress-filter:
	GOMAXPROCS=4 $(GO) test -race -run 'TestProducerFilter' ./internal/bugsuite/ ./internal/detector/ ./internal/server/
	$(GO) test -run 'TestFilterBenchmarkEquivalence' ./internal/bench/
	$(GO) test -run 'FuzzRecords|TestRecordSeedsRoundTrip' ./internal/wire/

# The streaming-protocol correctness stress: frame-decoder fuzz corpus
# regression, then stream-vs-JSON report equivalence over the
# 66-program bug suite, a repair launch and an oversize summary under
# the Go race detector.
stress-stream:
	$(GO) test -run 'FuzzFrames|TestDecodeMalformedPayloads|TestRaceStreamRoundTrip|TestSummaryRoundTrip|TestRecordBatchRoundTrip' ./internal/wire/
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
# 4, two-record rings, every wire form), the round-trip fuzz seeds, the
# 66-program bug suite at 4 queues vs 1 queue, and the reports at QueueCap
# 1/64/4096 (the ring size moves when the producer blocks, never what is
# reported), the program whose global write–write pairs change block scope
# with the queue schedule (core/digest.go) repeated plain and under the race
# detector, where two runs of one configuration differ, and four detector
# threads holding page locks across the lanes of records that interleave
# over the same three pages.
SCOPE_WITNESS := (TestProducerFilterEquivalence|TestCoalescedSpanEquivalence|TestMultiQueueReportEquivalence)/gl-bfs-frontier-racy
stress-multiqueue:
	GOMAXPROCS=4 $(GO) test -race -count=3 -run 'TestConcurrentProducers|TestDequeueBatchConcurrentProducers|TestStress|TestQueueBackpressure|TestWorstCaseThroughSmallestRing' ./internal/logging/
	$(GO) test -run 'FuzzQueueRoundTrip|TestQueueRoundTripProperty|TestWrapAtEveryOffset' ./internal/logging/
	GOMAXPROCS=4 $(GO) test -count=5 -run TestMultiQueueReportEquivalence ./internal/bugsuite/
	GOMAXPROCS=4 $(GO) test -race -count=2 -run 'TestMultiQueueReportEquivalence|TestBackpressureEquivalence' ./internal/bugsuite/
	$(GO) test -count=40 -run '$(SCOPE_WITNESS)' ./internal/bugsuite/
	$(GO) test -race -count=20 -run '$(SCOPE_WITNESS)' ./internal/bugsuite/
	GOMAXPROCS=4 $(GO) test -race -run TestSameValueGoldenEquivalence ./internal/detector/
	GOMAXPROCS=4 $(GO) test -race -count=3 -run TestStridedLockHoldStress ./internal/core/

serve:
	$(GO) run ./cmd/barracudad -addr :8321

ci: $(CI_TARGETS)
