GO ?= go

.PHONY: all build test vet lint lint-budgets lint-bench lint-diff race fuzz-smoke ci bench-smoke bench bench-json bench-compare trace-smoke chaos-smoke tracestat-smoke partition-smoke experiments

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# chordalvet: the repo's own determinism & concurrency linter
# (cmd/chordalvet, stdlib-only). Runs the full analyzer suite — including
# the interprocedural hotalloc budgets, sharedwrite, and goroleak — over
# every package in the module, writes the findings as a SARIF artifact
# for code-scanning UIs, and checks the machine-readable findings against
# the committed baseline. See DESIGN.md "Analysis substrate".
lint:
	mkdir -p lint-report
	$(GO) run ./cmd/chordalvet -sarif lint-report/chordalvet.sarif ./...
	scripts/lintdiff.sh

# Hot-path allocation budget usage table: one row per
# //chordalvet:hotpath root with budget, current sites, and the largest
# per-function contributors. Read this before raising a budget.
lint-budgets:
	$(GO) run ./cmd/chordalvet -budgets ./...

# Wall-clock gate for the analysis substrate itself: loading,
# type-checking, and analyzing the whole module must finish inside
# CHORDALVET_BENCH_BUDGET (default 45s) so `make lint` stays cheap
# enough to run on every push.
lint-bench:
	$(GO) test -run '^TestModuleAnalysisUnderBudget$$' -count=1 -v ./cmd/chordalvet

# Diff current findings against the committed lint-baseline.json without
# rerunning the rest of the lint target.
lint-diff:
	scripts/lintdiff.sh

# Race-detector gate for the concurrent simulation core and everything
# that drives it: the engine (dist), the algorithm core, peeling, the
# experiment harness, the public API, the graph substrate whose Indexed
# snapshots are shared across the worker pool, the CSR ball views the
# parallel decide kernel reads concurrently, and the clique-tree stage
# the pipeline shards.
race:
	$(GO) test -race ./internal/dist ./internal/core ./internal/peel ./internal/exp ./internal/graph ./internal/view ./internal/cliquetree ./internal/obs ./internal/wire ./cmd/tracestat .

# Short fuzz runs of every Fuzz* target (10s each) so the fuzzers
# execute somewhere instead of shipping as dormant seed-corpus tests.
# go test -fuzz accepts exactly one target per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzGraphOps$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzRecognize$$' -fuzztime 10s ./internal/interval
	$(GO) test -run '^$$' -fuzz '^FuzzChordalPipeline$$' -fuzztime 10s ./internal/interval
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStepResult$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDeliver$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeOutputs$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzShardDeliverBlock$$' -fuzztime 10s ./internal/dist

# The full CI gate: compile, vet, chordalvet (with SARIF artifact and
# baseline diff), the analysis wall-clock gate, race-detect the
# concurrent core, run the whole test suite, then the fault-injection
# and trace-analysis smokes. .github/workflows/ci.yml runs exactly this
# target.
ci: build vet lint lint-bench race test chaos-smoke tracestat-smoke partition-smoke bench-compare

# Quick-mode benchmark smoke: one iteration of the substrate and
# experiment benchmarks plus the 20k-node end-to-end pipeline, with
# allocation reporting. Finishes in minutes.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineRound|BenchmarkFloodRadius|BenchmarkFloodN100k|BenchmarkFloodBallCollection|BenchmarkDistributedPruneN256|BenchmarkPipelineN20k|BenchmarkE[0-9]+_' -benchtime 1x -benchmem .

# Full benchmark sweep (slow).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Machine-readable benchmark record: the engine/flood/prune/peel
# benchmarks plus the 100k-node stage benchmarks and the end-to-end
# pipelines (20k smoke, 1M headline) through `go test -json`,
# post-processed by cmd/benchjson into the repo's perf-trajectory
# format. BENCH_7.json in the repo root is a recorded run of exactly
# this target (it adds the BenchmarkPipelineN20kMetrics A/B row — the
# 'BenchmarkPipelineN20k' pattern matches it by substring — so the
# nil-observer vs -metrics delta is recorded alongside the trend).
# The substrate and stage/pipeline sweeps run as two separate `go test`
# processes (benchjson accepts the concatenated streams): the 10^6-node
# pipeline leaves a multi-GB heap behind, and sharing a process would
# taint the substrate numbers recorded under BENCH_5's conditions.
BENCHJSON_OUT ?= BENCH_7.json
bench-json:
	( $(GO) test -run '^$$' -bench 'BenchmarkEngineRound|BenchmarkFloodRadius|BenchmarkFloodN100k|BenchmarkFloodBallCollection|BenchmarkDistributedPruneN256|BenchmarkPeelingN4096' \
		-benchmem -json . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkPeelingN100k|BenchmarkMISStageN100k|BenchmarkCorrectionPhaseN100k|BenchmarkPipelineN20k|BenchmarkPipelineN1M' \
		-benchmem -json -timeout 2h . ) | $(GO) run ./cmd/benchjson -out $(BENCHJSON_OUT)

# Per-benchmark ns/op, B/op, allocs/op deltas between the two most
# recent recorded runs. >10% regressions on any metric print a warning
# to stderr but never fail the target — this is a trend report, not a
# gate; missing record files skip the comparison cleanly.
BENCHJSON_BASE ?= BENCH_6.json
bench-compare:
	$(GO) run ./cmd/benchjson compare $(BENCHJSON_BASE) $(BENCHJSON_OUT)

# Observability smoke: run the tracing workload in quick mode with CPU
# and heap profiling, leaving the artifacts in ./trace-smoke/, then
# validate the trace with `tracestat check` (every line parses, schema
# version consistent, round numbers monotone per phase) and render the
# aggregate report. CI uploads this directory so every push records a
# round trace, profiles, and the per-phase/per-kernel tables.
trace-smoke:
	mkdir -p trace-smoke
	$(GO) run ./cmd/experiments -quick -trace trace-smoke/trace.jsonl \
		-cpuprofile trace-smoke/cpu.pprof -memprofile trace-smoke/mem.pprof
	@wc -l trace-smoke/trace.jsonl
	$(GO) run ./cmd/tracestat check trace-smoke/trace.jsonl
	$(GO) run ./cmd/tracestat report trace-smoke/trace.jsonl > trace-smoke/tracestat.txt
	@head -4 trace-smoke/tracestat.txt

# Fault-injection smoke: run the -faults trace workload in quick mode
# (fault-injected pruning on the Figure-1 graph plus a retransmitting
# flood under 20% message loss), leaving the schema-v2 trace in
# ./chaos-smoke/. The schedule is a pure function of the seed, so the
# trace is byte-reproducible; CI uploads the directory.
chaos-smoke:
	mkdir -p chaos-smoke
	$(GO) run ./cmd/experiments -quick -trace chaos-smoke/trace.jsonl \
		-faults drop=0.2,dup=0.2,delay=2 -fault-seed 7
	@wc -l chaos-smoke/trace.jsonl

# Trace-analysis smoke: the determinism gate behind `tracestat diff`.
# Two runs of the same-seed quick workload — one with -metrics, so the
# traces differ in every timing and in the v3 measurement records — must
# produce zero divergence in the deterministic round/layer records;
# both traces must pass `tracestat check`. The -metrics run's aggregate
# report lands in ./tracestat-smoke/report.txt, which CI uploads.
tracestat-smoke:
	mkdir -p tracestat-smoke
	$(GO) run ./cmd/experiments -quick -trace tracestat-smoke/a.jsonl
	$(GO) run ./cmd/experiments -quick -metrics -trace tracestat-smoke/b.jsonl \
		2> tracestat-smoke/report.txt
	$(GO) run ./cmd/tracestat check tracestat-smoke/a.jsonl tracestat-smoke/b.jsonl
	$(GO) run ./cmd/tracestat diff tracestat-smoke/a.jsonl tracestat-smoke/b.jsonl
	$(GO) run ./cmd/tracestat chrome tracestat-smoke/b.jsonl > tracestat-smoke/chrome.json

# Partitioned-runtime smoke: the byte-identity gate for out-of-process
# execution. The same-seed quick workload runs once on the in-process
# LOCAL engine and once each on 2 and 3 shard-host child processes;
# `tracestat diff` must find zero divergence in the deterministic
# round/layer records (the partitioned traces legitimately differ in
# timings and wire_in_b/wire_out_b, which diff excludes). With 3 shards
# the middle shard splices blocks from both sides around its own
# copies. A second set of faulted runs pins the same identity under an
# active dup/delay/drop schedule.
partition-smoke:
	mkdir -p partition-smoke
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/local.jsonl
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/part2.jsonl -partitions 2
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/part3.jsonl -partitions 3
	$(GO) run ./cmd/tracestat check partition-smoke/local.jsonl partition-smoke/part2.jsonl partition-smoke/part3.jsonl
	$(GO) run ./cmd/tracestat diff partition-smoke/local.jsonl partition-smoke/part2.jsonl
	$(GO) run ./cmd/tracestat diff partition-smoke/local.jsonl partition-smoke/part3.jsonl
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/local-faulty.jsonl \
		-faults drop=0.2,dup=0.2,delay=2 -fault-seed 7
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/part2-faulty.jsonl \
		-faults drop=0.2,dup=0.2,delay=2 -fault-seed 7 -partitions 2
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/part3-faulty.jsonl \
		-faults drop=0.2,dup=0.2,delay=2 -fault-seed 7 -partitions 3
	$(GO) run ./cmd/tracestat check partition-smoke/local-faulty.jsonl partition-smoke/part2-faulty.jsonl \
		partition-smoke/part3-faulty.jsonl
	$(GO) run ./cmd/tracestat diff partition-smoke/local-faulty.jsonl partition-smoke/part2-faulty.jsonl
	$(GO) run ./cmd/tracestat diff partition-smoke/local-faulty.jsonl partition-smoke/part3-faulty.jsonl

# Full experiment tables as recorded in EXPERIMENTS.md (slow).
experiments:
	$(GO) run ./cmd/experiments
