GO ?= go

.PHONY: all build fmt test vet lint lint-budgets lint-bench lint-diff race exhaustive fuzz-smoke bench-check ci bench-smoke bench trace-smoke chaos-smoke tracestat-smoke partition-smoke experiments netloc

all: build test

build:
	$(GO) build ./...

# gofmt gate: fails when a Go file is not gofmt-clean; `gofmt -l .`
# lists the offenders.
fmt:
	test -z "$$(gofmt -l .)"

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
# snapshots are shared across the worker pool, the clique-tree stage
# the pipeline shards, and the color-reduction and baseline protocols
# that step on concurrent engine ranges.
race:
	$(GO) test -race ./internal/dist ./internal/core ./internal/peel ./internal/exp ./internal/graph ./internal/cliquetree ./internal/obs ./internal/wire ./internal/colorreduce ./internal/baseline ./cmd/tracestat .

# The n = 6 tier of the exhaustive small-graph suite: the distributed
# prune under six specs on all 18,154 labeled chordal graphs with six
# nodes, against the peel (Lemma 12) and the whole-view anchored
# diameter. `go test ./...` runs the n <= 5 tier.
exhaustive:
	$(GO) test -run '^TestPruneExhaustive$$' -count=1 ./internal/core -prune-n=6

# Short fuzz runs of every Fuzz* target (10s each) so the fuzzers
# execute somewhere instead of shipping as dormant seed-corpus tests.
# go test -fuzz accepts exactly one target per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzGraphOps$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzNewIndexedFromCSR$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzElim$$' -fuzztime 10s ./internal/chordal
	$(GO) test -run '^$$' -fuzz '^FuzzRecognize$$' -fuzztime 10s ./internal/interval
	$(GO) test -run '^$$' -fuzz '^FuzzChordalPipeline$$' -fuzztime 10s ./internal/interval
	$(GO) test -run '^$$' -fuzz '^FuzzIntervalDiameter$$' -fuzztime 10s ./internal/interval
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStepResult$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDeliver$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeOutputs$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzHandshakeBodies$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzShardDeliverBlock$$' -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzFloodPayload$$' -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzRetransPayload$$' -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeKnowledge$$' -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzFloodParams$$' -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzParseFaults$$' -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzCorrectionParams$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCorrectionPayload$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPostPeelStages$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReadEvents$$' -fuzztime 10s ./cmd/tracestat

# The benchmark is its own Go module (bench/go.mod), so the root build,
# vet, test and lint never compile it. Vet and test it from its own
# directory, so an API change that breaks `bash bench/run.sh` fails CI.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The full CI gate: the gofmt check, compile, vet, chordalvet (with
# SARIF artifact and baseline diff), the analysis wall-clock gate,
# race-detect the concurrent core, run the whole test suite, its n = 6
# exhaustive tier and the benchmark module's tests, then the
# fault-injection and trace-analysis smokes.
# .github/workflows/ci.yml runs exactly this target.
ci: fmt build vet lint lint-bench race test exhaustive bench-check chaos-smoke tracestat-smoke partition-smoke

# Quick-mode benchmark smoke: one iteration of the substrate and
# experiment benchmarks, the prune's GOMAXPROCS sweep, and the 20k-node
# end-to-end pipeline, with allocation reporting. Finishes in minutes.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineRound|BenchmarkFloodRadius|BenchmarkFloodN100k|BenchmarkFloodBallCollection|BenchmarkDistributedPruneN256|BenchmarkDistributedPruneWorkers|BenchmarkPipelineN20k|BenchmarkE[0-9]+_' -benchtime 1x -benchmem .

# Full benchmark sweep (slow).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

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
# GOMAXPROCS is the only parallelism setting (engine ranges and kernel
# shards), so the workload also runs at GOMAXPROCS 1 and 4, whose traces
# must not diverge either.
tracestat-smoke:
	mkdir -p tracestat-smoke
	$(GO) run ./cmd/experiments -quick -trace tracestat-smoke/a.jsonl
	$(GO) run ./cmd/experiments -quick -metrics -trace tracestat-smoke/b.jsonl \
		2> tracestat-smoke/report.txt
	$(GO) run ./cmd/tracestat check tracestat-smoke/a.jsonl tracestat-smoke/b.jsonl
	$(GO) run ./cmd/tracestat diff tracestat-smoke/a.jsonl tracestat-smoke/b.jsonl
	$(GO) run ./cmd/tracestat chrome tracestat-smoke/b.jsonl > tracestat-smoke/chrome.json
	GOMAXPROCS=1 $(GO) run ./cmd/experiments -quick -trace tracestat-smoke/procs1.jsonl
	GOMAXPROCS=4 $(GO) run ./cmd/experiments -quick -trace tracestat-smoke/procs4.jsonl
	$(GO) run ./cmd/tracestat check tracestat-smoke/procs1.jsonl tracestat-smoke/procs4.jsonl
	$(GO) run ./cmd/tracestat diff tracestat-smoke/procs1.jsonl tracestat-smoke/procs4.jsonl

# Partitioned-runtime smoke: the byte-identity gate for out-of-process
# execution. The same-seed quick workload runs once on the in-process
# LOCAL engine and once each on 2, 3 and 4 shard-host child processes;
# `tracestat diff` must find zero divergence in the deterministic
# round/layer records (the partitioned traces legitimately differ in
# timings and wire_in_b/wire_out_b, which diff excludes). Each shard
# hosts a chunk of the BFS order; at 3 and 4 shards some nodes have
# neighbors on three shards, so their inboxes are merged from several
# blocks. A second set of faulted runs pins the same identity under an
# active dup/delay/drop schedule.
partition-smoke:
	mkdir -p partition-smoke
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/local.jsonl
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/part2.jsonl -partitions 2
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/part3.jsonl -partitions 3
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/part4.jsonl -partitions 4
	$(GO) run ./cmd/tracestat check partition-smoke/local.jsonl partition-smoke/part2.jsonl partition-smoke/part3.jsonl \
		partition-smoke/part4.jsonl
	$(GO) run ./cmd/tracestat diff partition-smoke/local.jsonl partition-smoke/part2.jsonl
	$(GO) run ./cmd/tracestat diff partition-smoke/local.jsonl partition-smoke/part3.jsonl
	$(GO) run ./cmd/tracestat diff partition-smoke/local.jsonl partition-smoke/part4.jsonl
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/local-faulty.jsonl \
		-faults drop=0.2,dup=0.2,delay=2 -fault-seed 7
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/part2-faulty.jsonl \
		-faults drop=0.2,dup=0.2,delay=2 -fault-seed 7 -partitions 2
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/part3-faulty.jsonl \
		-faults drop=0.2,dup=0.2,delay=2 -fault-seed 7 -partitions 3
	$(GO) run ./cmd/experiments -quick -trace partition-smoke/part4-faulty.jsonl \
		-faults drop=0.2,dup=0.2,delay=2 -fault-seed 7 -partitions 4
	$(GO) run ./cmd/tracestat check partition-smoke/local-faulty.jsonl partition-smoke/part2-faulty.jsonl \
		partition-smoke/part3-faulty.jsonl partition-smoke/part4-faulty.jsonl
	$(GO) run ./cmd/tracestat diff partition-smoke/local-faulty.jsonl partition-smoke/part2-faulty.jsonl
	$(GO) run ./cmd/tracestat diff partition-smoke/local-faulty.jsonl partition-smoke/part3-faulty.jsonl
	$(GO) run ./cmd/tracestat diff partition-smoke/local-faulty.jsonl partition-smoke/part4-faulty.jsonl

# Full experiment tables as recorded in EXPERIMENTS.md (slow).
experiments:
	$(GO) run ./cmd/experiments

# Go lines added, removed and net against NETLOC_BASE (default HEAD),
# split into non-test and _test.go files: the figure a refactor reports
# in CHANGES.md. Untracked files count once staged.
NETLOC_BASE ?= HEAD
netloc:
	scripts/netloc.sh $(NETLOC_BASE)
