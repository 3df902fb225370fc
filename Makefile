GO ?= go

.PHONY: all build vet lint test test-race test-short bench bench-smoke bench-compare ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs vet plus staticcheck when the binary is available (CI
# installs it; local environments without it still get a clean run).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not found; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# EXEC_ALLOC_CEILING caps the streaming executor's allocs/op on the
# 100k-row scan-filter pipeline (measured ~49.5k: the filter is pushed
# into the page decoder, so only the ~49k rows that qualify are fully
# decoded and box their wide id value; the predicate's small age values
# box without allocating and chunk machinery adds a few hundred). A
# breach means per-row allocation crept back into the pipeline, or
# rejected rows are being materialized again.
EXEC_ALLOC_CEILING ?= 60000

# bench-smoke is the CI-sized benchmark pass: 10 iterations of the hot-path
# micro-benchmarks (executor, obs substrate, LSM) plus the E25/E27
# observability, E29 overload-governance, E30 anomaly-alert and E33
# plan-cache reproductions, with live metrics, a sample EXPLAIN ANALYZE
# profile, the smoke workload's statement statistics, the cancel-to-stop/
# overload-shedding measurements, the telemetry sampler/scrape
# overheads, the streaming-vs-materialize allocation comparison (with
# the allocs/op regression gate), and the plan-cache hit-path
# measurement (with the >=2x repeated-query speedup and <5% probe
# overhead gates) as build artifacts. Depends on vet so the artifacts
# never come from a vet-dirty tree.
bench-smoke: vet
	$(GO) test -run='^$$' -bench=. -benchtime=10x -benchmem \
		./internal/exec/ ./internal/obs/ ./internal/kv/ | tee BENCH_smoke.txt
	$(GO) test -run='^$$' -bench='BenchmarkE(2[5789]|3[0-3])' -benchtime=1x . | tee -a BENCH_smoke.txt
	$(GO) test -run='^$$' -bench='BenchmarkML' -benchtime=1x . | tee -a BENCH_smoke.txt
	$(GO) run ./cmd/aidb-bench -e E25 -metrics BENCH_metrics.json > /dev/null
	$(GO) run ./cmd/aidb-bench -e E27 -explain BENCH_explain.txt -statements BENCH_statements.json > /dev/null
	$(GO) run ./cmd/aidb-bench -bench-cancel BENCH_cancel.json
	$(GO) run ./cmd/aidb-bench -bench-obs BENCH_obs.json
	$(GO) run ./cmd/aidb-bench -bench-stats BENCH_stats.json
	$(GO) run ./cmd/aidb-bench -bench-cache BENCH_cache.json
	$(GO) run ./cmd/aidb-bench -bench-exec BENCH_exec.json -alloc-ceiling $(EXEC_ALLOC_CEILING)

# bench-compare pits each optimized path against its baseline: the
# serial executor vs the morsel-parallel one plus the streaming
# pipeline vs the materialize-and-concat reference (BENCH_exec.*), and
# the batched/parallel ML kernels vs their per-row and naive
# counterparts (BENCH_ml.*), and the plan-cache hit path vs full
# re-planning (BENCH_cache.json) — Go benchmark text (with -benchmem
# allocation columns) plus aidb-bench JSON ratios.
bench-compare:
	$(GO) test -run='^$$' -bench='BenchmarkExec/(scan|join|agg)' -benchtime=5x -benchmem \
		./internal/exec/ | tee BENCH_exec.txt
	$(GO) run ./cmd/aidb-bench -bench-exec BENCH_exec.json -alloc-ceiling $(EXEC_ALLOC_CEILING)
	$(GO) test -run='^$$' -bench='BenchmarkML' -benchtime=5x . | tee BENCH_ml.txt
	$(GO) run ./cmd/aidb-bench -bench-ml BENCH_ml.json
	$(GO) run ./cmd/aidb-bench -bench-cache BENCH_cache.json

ci: build vet lint test-race
