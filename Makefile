# Developer entry points. `make ci` is the gate every change must pass:
# vet, the full test suite under the race detector (the parallel
# evaluator's determinism tests only mean something with -race on), and
# the coverage floors below.

GO ?= go

# Minimum statement coverage for the packages whose correctness rests on
# their tests rather than on downstream use: the telemetry layer (whose
# disabled path must stay invisible), the evaluator/explorer core, and the
# fault-injection registry (which exists purely to make failure paths
# testable, so untested lines defeat its point). Measured 91%/90%/97% when
# the gates were set; the slack absorbs small refactors, not test deletions.
# The simulator core and the conformance harness joined later: the
# timing entry points (Run and RunStream, one per-instruction loop) and
# the parallel streamed DEG analyzer claim bit-identical results, so
# untested simulator lines are unpinned behaviour (measured 94%/90% at
# gate time). The trace package joined with self-contained records: the
# record layout, its annotation capacities and the capacity-class trace
# pool are what every stage downstream of the simulator trusts (measured
# 98% at gate time).
COVER_MIN_OBS := 85
COVER_MIN_DSE := 80
COVER_MIN_FAULT := 90
COVER_MIN_SELFDEG := 80
COVER_MIN_OOO := 80
COVER_MIN_CONFORMANCE := 90
COVER_MIN_PIPETRACE := 85

.PHONY: build vet test race cover fuzz-seeds bench bench-deg bench-sim bench-sim-smoke bench-pipeline bench-pipeline-smoke bench-pipeline-par bench-spans bench-all bench-all-smoke bench-pair archbench-pair bench-smoke profile-sim profile-deg profile-pipeline ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The second line repeats the pooled-core concurrency test: recycled
# cores cross goroutines through a sync.Pool, and one pass of a race test
# only sees the interleavings that pass happened to run. The third repeats
# the streamed windowed-DEG tests for the same reason: every window a
# stream analyzer seals, at one worker or several, crosses goroutines
# through the window ring, which the stream, parallel, ring and overlap
# tests all drive. The fourth repeats the stage-timeout tests: a
# timed-out attempt must be cancelled and gone, with its storage
# released, whenever its deadline lands. The fifth repeats the
# streamed-evaluation tests: every streamed evaluation drives its window
# ring from the simulating goroutine, inside the evaluator's workload
# fan-out.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestRecycledCoresConcurrent$$' ./internal/ooo/
	$(GO) test -race -count=5 -run 'TestStream|TestParallel|TestWindowRing|TestOverlapCovers' ./internal/deg/
	$(GO) test -race -count=10 -run 'TestStageTimeout|TestNoTraceLeakWithStageTimeouts|TestCancelStalledDEGStage|TestCancelTimedOutStream|TestCancelTimedOutStatsSim' ./internal/dse/
	$(GO) test -race -count=5 -run 'TestEvaluatorStreamed|TestEvaluatorDEGWorkersDeterminism' ./internal/dse/

cover:
	@set -e; \
	check() { \
	  pct=$$($(GO) test -cover "./internal/$$1/" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	  if [ -z "$$pct" ]; then echo "internal/$$1: coverage not reported (test failure?)"; exit 1; fi; \
	  echo "internal/$$1 coverage: $$pct% (minimum $$2%)"; \
	  awk -v p="$$pct" -v m="$$2" 'BEGIN { exit !(p+0 >= m+0) }' || { echo "internal/$$1 coverage below minimum"; exit 1; }; \
	}; \
	check obs $(COVER_MIN_OBS); \
	check dse $(COVER_MIN_DSE); \
	check fault $(COVER_MIN_FAULT); \
	check selfdeg $(COVER_MIN_SELFDEG); \
	check ooo $(COVER_MIN_OOO); \
	check conformance $(COVER_MIN_CONFORMANCE); \
	check pipetrace $(COVER_MIN_PIPETRACE)

# A short randomized pass over the campaign-file reader, the engine
# conformance check, the capacity-pool/heap differential (the
# calendar-queue pool must pop bit-identically to container/heap), the
# unit-bank differential (the masked scan must pick the unit the branching
# scan picked, lowest index on ties), the DEG's anchor-order DP against
# a comparison-sorted reference DP over perturbed traces, and Rule 2's
# target lookup against the plain scan (closest instruction, earliest on
# ties), on top of the checked-in seed corpora that `make test` already
# replays.
fuzz-seeds:
	$(GO) test -fuzz=FuzzRead -fuzztime=10s ./internal/persist/
	$(GO) test -fuzz=FuzzConformance -fuzztime=10s ./internal/conformance/
	$(GO) test -fuzz=FuzzCapPoolParity -fuzztime=10s ./internal/ooo/
	$(GO) test -fuzz=FuzzUnitPoolParity -fuzztime=10s ./internal/ooo/
	$(GO) test -fuzz=FuzzLongestPathOrder -fuzztime=10s ./internal/deg/
	$(GO) test -fuzz=FuzzRule2Lookup -fuzztime=10s ./internal/deg/

# One regeneration per experiment plus the evaluator fan-out comparison.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# The DEG layer: whole-trace Analyze (a fresh graph per call) and windowed
# AnalyzeWindowed (pooled buffers) on the 20k-instruction trace, plus
# BenchmarkDEGAnalyzeProbe, the DEG work of one explore probe (12 SPEC06
# workloads x 500 instructions, whole-trace). BENCH_deg.json records the
# numbers before and after the sort-free, map-free core, and the parent
# and change medians of the anchor-ordered DP (anchor_order), of the
# implicit pipeline edges (implicit_pipeline) and of Rule 2 by lookup
# (rule2_lookup, from `make bench-pair`), which bench-all gates.
bench-deg:
	$(GO) test -bench='BenchmarkDEGAnalyze(Windowed|Probe)?$$' -benchmem -run XXX -count 3 .

# Simulator hot path: full-fidelity (pooled, annotated) runs on the
# 20k-instruction trace, the same run stats-only (BenchmarkSimStats,
# RunStats with ring-mode pools), plus BenchmarkSimProbe, the simulation
# work of explore probes (12 SPEC06 workloads x 500 instructions,
# New+Run+Release per simulation). BENCH_sim.json records the
# before/after of each rewrite; re-run this after touching internal/ooo.
bench-sim:
	$(GO) test -bench='BenchmarkSim(Full|Stats|Probe)$$' -benchmem -run XXX -count 3 .

# Single-iteration smoke of the simulator benchmarks — catches a broken
# bench harness in CI without paying for a full measurement run.
bench-sim-smoke:
	$(GO) test -bench='BenchmarkSim(Full|Stats|Probe)$$' -benchtime=1x -run XXX .

# Buffered (Run + AnalyzeWindowed) vs fused streaming (RunStream +
# StreamAnalyzer) sim→DEG pipeline on the 20k-instruction trace.
# BENCH_pipeline.json records the before/after, including the 1M-instruction
# live-heap measurements from the Large variants (run those with
# -benchtime=1x; they dominate wall-clock otherwise).
bench-pipeline:
	$(GO) test -bench='BenchmarkPipeline(Buffered|Stream|StreamPar)$$' -benchmem -run XXX -count 3 .

# Single-iteration smoke of the pipeline benchmarks for CI: exercises the
# fused streaming path end to end (sequential and 4-worker) without paying
# for a measurement run.
bench-pipeline-smoke:
	$(GO) test -bench='BenchmarkPipeline(Buffered|Stream|StreamPar)$$' -benchtime=1x -run XXX .

# Parallel windowed DEG gate: the fused pipeline at 4 analysis workers vs
# the SAME run's sequential pipeline (benchgate's bench: baseline), so host
# speed cancels out. The speedup rides on spare cores, so the floors —
# 1.5x on the 20k run, 2.5x on the 1M run (the headline target, run at
# -benchtime=1x) — arm on hosts with >=4 cores; on smaller hosts the gate
# degrades to no-regression (>=0.9x sequential): the worker pool must not
# cost throughput even where it cannot buy any.
bench-pipeline-par:
	$(GO) build -o benchgate ./cmd/benchgate
	@cores=$$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1); \
	if [ "$$cores" -ge 4 ]; then mult=1.5; large=2.5; tol=0; \
	else mult=1.0; large=1.0; tol=0.10; \
	  echo "bench-pipeline-par: $$cores core(s), workers cannot scale: gating no-regression (>=0.9x seq) instead of the 1.5x/2.5x parallel floors"; fi; \
	( $(GO) test -bench='BenchmarkPipelineStream(Par)?$$' -run XXX -count 1 . ; \
	  $(GO) test -bench='BenchmarkPipelineStreamLarge(Par)?$$' -benchtime=1x -run XXX -count 1 . ) | \
	  ./benchgate -tolerance $$tol \
	    -expect "BenchmarkPipelineStreamPar=$$mult*bench:BenchmarkPipelineStream" \
	    -expect "BenchmarkPipelineStreamLargePar=$$large*bench:BenchmarkPipelineStreamLarge"

# Span-instrumentation overhead gate: the fused pipeline with the
# evaluator's full per-evaluation span capture must stay within 2% of the
# uninstrumented pipeline measured in the SAME run (benchgate's bench:
# baseline), so host speed cancels out of the comparison.
bench-spans:
	$(GO) build -o benchgate ./cmd/benchgate
	$(GO) test -bench='BenchmarkPipelineStream(Spans)?$$' -run XXX -count 1 . | \
	  ./benchgate -tolerance 0.02 \
	    -expect 'BenchmarkPipelineStreamSpans=bench:BenchmarkPipelineStream'

# Every benchmark family, gated against the committed baselines: fails if
# simulator, DEG or pipeline throughput lands more than 10% below what
# BENCH_sim.json / BENCH_deg.json / BENCH_pipeline.json record for the
# reference host.
# The simulator gates are the branch-free-pool numbers (the current
# baseline, BENCH_sim.json branchfree_pools, measured at -cpu 1) PLUS a
# speedup floor: SimFull must also hold >=1.2x the pre-calendar-queue
# after_full record, so the pool rewrites' win cannot silently erode back
# even across re-baselines. SimProbe holds the same section's probe number.
# SimStats is gated against the SAME run's SimFull (benchgate's bench:
# baseline, so host drift cancels): 1.1x under bench-all's 10% tolerance
# puts its floor at 0.99x, so a stats-only run may never be slower than
# the annotated one.
# Re-baseline (re-run bench-sim / bench-pipeline and update the JSONs)
# when a deliberate change moves the numbers. The span-overhead gate rides
# along (span capture must cost <2% of same-run pipeline throughput), as
# does the parallel-DEG speedup gate.
bench-all:
	$(GO) build -o benchgate ./cmd/benchgate
	$(GO) test -bench='BenchmarkSim(Full|Stats|Probe)$$|BenchmarkDEG|BenchmarkPipeline(Buffered|Stream)$$' -benchmem -run XXX -count 1 . | \
	  ./benchgate -tolerance 0.10 \
	    -expect 'BenchmarkSimFull=BENCH_sim.json:branchfree_pools.change.full.inst_per_sec' \
	    -expect 'BenchmarkSimFull=1.2*BENCH_sim.json:after_full.inst_per_sec' \
	    -expect 'BenchmarkSimStats=1.1*bench:BenchmarkSimFull' \
	    -expect 'BenchmarkSimProbe=BENCH_sim.json:branchfree_pools.change.probe.inst_per_sec' \
	    -expect 'BenchmarkDEGAnalyze=BENCH_deg.json:rule2_lookup.change.analyze.inst_per_sec' \
	    -expect 'BenchmarkDEGAnalyzeWindowed=BENCH_deg.json:rule2_lookup.change.windowed.inst_per_sec' \
	    -expect 'BenchmarkDEGAnalyzeProbe=BENCH_deg.json:rule2_lookup.change.probe.inst_per_sec' \
	    -expect 'BenchmarkPipelineBuffered=BENCH_pipeline.json:before.inst_per_sec' \
	    -expect 'BenchmarkPipelineStream=BENCH_pipeline.json:after.inst_per_sec'
	$(MAKE) bench-spans
	$(MAKE) bench-pipeline-par

# Single-iteration pass of the bench-all simulator+pipeline set through
# benchgate with a near-zero floor: verifies in CI that every -expect
# mapping still resolves (benchmark names, JSON files, dotted paths) on
# any host, without paying for — or trusting — a real measurement run.
bench-all-smoke:
	$(GO) build -o benchgate ./cmd/benchgate
	$(GO) test -bench='BenchmarkSim(Full|Stats|Probe)$$|BenchmarkDEG|BenchmarkPipeline(Buffered|Stream|StreamPar)$$' -benchtime=1x -run XXX . | \
	  ./benchgate -tolerance 0.95 \
	    -expect 'BenchmarkSimFull=BENCH_sim.json:branchfree_pools.change.full.inst_per_sec' \
	    -expect 'BenchmarkSimFull=1.2*BENCH_sim.json:after_full.inst_per_sec' \
	    -expect 'BenchmarkSimStats=1.1*bench:BenchmarkSimFull' \
	    -expect 'BenchmarkSimProbe=BENCH_sim.json:branchfree_pools.change.probe.inst_per_sec' \
	    -expect 'BenchmarkDEGAnalyze=BENCH_deg.json:rule2_lookup.change.analyze.inst_per_sec' \
	    -expect 'BenchmarkDEGAnalyzeWindowed=BENCH_deg.json:rule2_lookup.change.windowed.inst_per_sec' \
	    -expect 'BenchmarkDEGAnalyzeProbe=BENCH_deg.json:rule2_lookup.change.probe.inst_per_sec' \
	    -expect 'BenchmarkPipelineBuffered=BENCH_pipeline.json:before.inst_per_sec' \
	    -expect 'BenchmarkPipelineStream=BENCH_pipeline.json:after.inst_per_sec' \
	    -expect 'BenchmarkPipelineStreamPar=1.5*bench:BenchmarkPipelineStream' \
	    -expect 'BenchmarkPipelineStreamPar=BENCH_pipeline.json:parallel.par4.inst_per_sec'

# Compare this working tree against another revision in alternating
# rounds, which cancel the host's drift (bench-all gates against absolute
# numbers recorded on another day, so a slow hour fails unchanged code):
#   make bench-pair BASE=HEAD~1
#   make bench-pair BASE=<rev> PAIR_BENCH='BenchmarkSim(Full|Probe)$$' ROUNDS=10
# It extracts BASE with git archive into .bench_pair (no worktree, nothing
# written under .git), builds both test binaries of the root package, and
# runs ROUNDS rounds of PAIR_BENCH at -cpu 1, alternating which side runs
# first. Per benchmark it prints both medians of ns/op, the median of the
# per-round ratios (base over change, above 1 when the change is faster)
# and the rounds the change won, and it fails if a median ratio falls
# below 1 - PAIR_TOL. The raw rounds stay in .bench_pair/{base,change}.txt.
BASE ?=
ROUNDS ?= 6
PAIR_BENCH ?= BenchmarkDEGAnalyze(Windowed|Probe)?$$
PAIR_BENCHTIME ?= 1s
PAIR_TOL ?= 0.05

bench-pair:
	@test -n "$(BASE)" || { echo "bench-pair: name the revision to compare against, e.g. make bench-pair BASE=HEAD~1"; exit 2; }
	$(GO) build -o benchgate ./cmd/benchgate
	git rev-parse --verify --quiet '$(BASE)^{commit}' >/dev/null || { echo "bench-pair: $(BASE) is not a revision"; exit 2; }
	rm -rf .bench_pair && mkdir -p .bench_pair/base
	git archive --format=tar '$(BASE)' | tar -x -C .bench_pair/base
	cd .bench_pair/base && $(GO) test -c -o ../base.test .
	$(GO) test -c -o .bench_pair/change.test .
	@set -e; dir=$$(cd .bench_pair && pwd); \
	run() { \
	  if [ $$1 = base ]; then cd "$$dir/base"; else cd "$(CURDIR)"; fi; \
	  "$$dir/$$1.test" -test.run XXX -test.bench '$(PAIR_BENCH)' -test.cpu 1 -test.benchmem \
	    -test.benchtime $(PAIR_BENCHTIME) -test.count 1 -test.timeout 10m >> "$$dir/$$1.txt"; \
	}; \
	for r in $$(seq 1 $(ROUNDS)); do \
	  if [ $$((r % 2)) -eq 1 ]; then run base; run change; else run change; run base; fi; \
	  echo "bench-pair: round $$r of $(ROUNDS) done"; \
	done
	./benchgate -pair -tolerance $(PAIR_TOL) .bench_pair/base.txt .bench_pair/change.txt

# The same alternating comparison on the archbench campaign benchmark, the
# end-to-end numbers a change is judged by:
#   make archbench-pair BASE=HEAD WORKLOAD=analyze-stream PAIRS=10 SEED0=41
# It extracts BASE with git archive into .archbench_pair/base and makes
# PAIRS pairs of `bash bench/archbench.sh --workload WORKLOAD --seed S
# --seconds N --trace 0` runs, one in BASE and one in this working tree,
# pair i at seed SEED0+i-1, alternating which side runs first. N is
# BENCHMARK.json's run_seconds, as bench/run.sh reads it, so both sides
# run at the benchmark's own length. Each side builds into its own
# CARGO_TARGET_DIR (.archbench_pair/build-base, .archbench_pair/build-change).
# Every run's result line is appended to
# .archbench_pair/WORKLOAD-{base,change}.jsonl and its whole output to the
# .log beside it. benchgate -archpair then prints, per end-to-end metric
# of BENCHMARK.json, both medians with quartiles, the median per-pair
# ratio (base over change, as bench-pair prints it), the pairs won and
# lost (ties count for neither) and each side's failed operations; it
# fails if a median is worse than the metric's bound, a run fails its
# checks, or the change fails a larger share of operations.
WORKLOAD ?= analyze-stream
PAIRS ?= 10
SEED0 ?= 1

archbench-pair:
	@test -n "$(BASE)" || { echo "archbench-pair: name the revision to compare against, e.g. make archbench-pair BASE=HEAD WORKLOAD=explore"; exit 2; }
	$(GO) build -o benchgate ./cmd/benchgate
	git rev-parse --verify --quiet '$(BASE)^{commit}' >/dev/null || { echo "archbench-pair: $(BASE) is not a revision"; exit 2; }
	rm -rf .archbench_pair/base && mkdir -p .archbench_pair/base
	git archive --format=tar '$(BASE)' | tar -x -C .archbench_pair/base
	rm -f .archbench_pair/$(WORKLOAD)-base.* .archbench_pair/$(WORKLOAD)-change.*
	@set -e; dir=$$(cd .archbench_pair && pwd); \
	secs=$$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])'); \
	run() { \
	  if [ $$1 = base ]; then src="$$dir/base"; else src="$(CURDIR)"; fi; \
	  ( cd "$$src" && CARGO_TARGET_DIR="$$dir/build-$$1" bash bench/archbench.sh \
	      --workload '$(WORKLOAD)' --seed $$2 --seconds $$secs --trace 0 ) > "$$dir/run.out" || true; \
	  cat "$$dir/run.out" >> "$$dir/$(WORKLOAD)-$$1.log"; \
	  tail -n 1 "$$dir/run.out" | grep '^{' >> "$$dir/$(WORKLOAD)-$$1.jsonl" || \
	    { echo "archbench-pair: the $$1 run at seed $$2 printed no result line"; exit 1; }; \
	}; \
	for p in $$(seq 1 $(PAIRS)); do \
	  seed=$$(($(SEED0) + p - 1)); \
	  if [ $$((p % 2)) -eq 1 ]; then run base $$seed; run change $$seed; else run change $$seed; run base $$seed; fi; \
	  echo "archbench-pair: pair $$p of $(PAIRS) (seed $$seed) done"; \
	done
	./benchgate -archpair BENCHMARK.json .archbench_pair/$(WORKLOAD)-base.jsonl .archbench_pair/$(WORKLOAD)-change.jsonl

# The archbench campaign benchmark's own tests (bench/ is a separate module
# that compiles against this one): deleting or renaming root API that the
# benchmark uses fails here rather than in a benchmark run.
bench-smoke:
	$(GO) -C bench test ./...

# CPU profile of the simulator benchmarks (BenchmarkSimFull,
# BenchmarkSimStats and BenchmarkSimProbe) at one CPU, the profile the
# simulator items of ROADMAP.md are sized from. Inspect with
#   go tool pprof -top sim.pprof
#   go tool pprof -list 'capPool..alloc' sim.pprof
profile-sim:
	$(GO) test -bench='BenchmarkSim(Full|Stats|Probe)$$' -cpu 1 -run XXX -cpuprofile sim.pprof -o sim.test .
	@echo "wrote sim.pprof (binary: sim.test); try: go tool pprof -top sim.pprof"

# CPU profile of the DEG layer at one CPU, in both shapes the evaluator
# runs: windowed analysis (BenchmarkDEGAnalyzeWindowed, 2000-instruction
# windows of a 20k-instruction trace, the shape of analyze-stream) and one
# explore probe's whole-trace work (BenchmarkDEGAnalyzeProbe). It is the
# profile the DEG items of ROADMAP.md are sized from. Inspect with
#   go tool pprof -top deg.pprof
#   go tool pprof -list 'deg.buildInto' deg.pprof
profile-deg:
	$(GO) test -bench='BenchmarkDEGAnalyze(Windowed|Probe)$$' -cpu 1 -run XXX -cpuprofile deg.pprof -o deg.test .
	@echo "wrote deg.pprof (binary: deg.test); try: go tool pprof -top deg.pprof"

# CPU + heap profile of the fused 1M-instruction sim→DEG pipeline — the
# DSE inner loop's dominant cost and the profile that motivated the
# parallel windowed analysis (DESIGN.md §16 records the top-10). Inspect:
#   go tool pprof -top pipeline_cpu.pprof
#   go tool pprof -top pipeline_mem.pprof
#   go tool pprof -http=: pipeline_cpu.pprof
profile-pipeline:
	$(GO) test -bench='BenchmarkPipelineStreamLarge$$' -benchtime=1x -run XXX -cpuprofile pipeline_cpu.pprof -memprofile pipeline_mem.pprof -o pipeline.test .
	@echo "wrote pipeline_cpu.pprof / pipeline_mem.pprof (binary: pipeline.test); try: go tool pprof -top pipeline_cpu.pprof"

# The alloc gate on the streaming hot path (internal/deg
# TestStreamAllocsBounded) runs inside `cover`'s non-race test pass; the
# bench smokes keep the bench harnesses AND the bench-all gate wiring
# (expect names, baseline JSON paths) compiling and resolving, and
# bench-smoke keeps the archbench module building against the root API.
ci: vet race cover fuzz-seeds bench-all-smoke bench-smoke
