GO ?= go

.PHONY: ci lint vet build test race race-broker race-health race-sched race-obs race-tsdb fuzz-smoke bench bench-smoke bench-gate bench-json chaos-soak service-e2e clean

# ci is the gate for every change: formatting and static analysis, a
# full build, the test suite under the race detector (plus a dedicated
# high-iteration pass over the event broker, the one component built
# for hundreds of concurrent subscribers, a stress pass over the
# health monitors and alert manager against a fault-injected search,
# and a stress pass over the fair-share fleet scheduler and job
# manager), a one-iteration benchmark smoke run so the hot-path
# benchmarks cannot silently rot, ten seconds of real fuzzing per
# on-disk decoder, the allocation-regression gates on
# the training and observability hot paths, the crash-recovery soak
# that kills the real CLI at seeded crash points and resumes it to
# completion, and the service e2e that kills a live multi-job
# a4nn-serve and resumes every submission.
ci: lint build race race-broker race-health race-sched race-obs race-tsdb fuzz-smoke bench-smoke bench-gate chaos-soak service-e2e

# lint fails on unformatted files (gofmt -l), vet findings, and on a
# file protocol written outside internal/durable: temp files, O_APPEND
# handles and CRC framing have one implementation each (the checkpoint
# envelope's CRC in commons/checkpoint.go is the one exception), so a
# second copy cannot appear unreviewed.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required on:"; echo "$$unformatted"; exit 1; \
	fi
	@stray=$$(grep -rnE 'os\.CreateTemp\(|os\.O_APPEND|crc32\.' --include='*.go' . \
		| grep -vE '^\./internal/durable/|_test\.go:|^\./internal/commons/checkpoint\.go:.*crc32\.'); \
	if [ -n "$$stray" ]; then \
		echo "file protocol outside internal/durable:"; echo "$$stray"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomises test order so accidental inter-test state
# dependencies surface in ci rather than on a laptop.
race:
	$(GO) test -race -shuffle=on ./...

# race-broker stresses the event fanout specifically: repeated runs of
# the broker tests under the race detector, since its eviction path
# only races under unlucky publisher/subscriber interleavings.
race-broker:
	$(GO) test -race -run Broker -count 5 ./internal/obs

# race-health stresses the in-situ health monitor: the full monitor and
# alert-manager suite, then the end-to-end fault-injected search whose
# engine consumes the broker concurrently with the running workflow.
race-health:
	$(GO) test -race -count 3 ./internal/health
	$(GO) test -race -run TestHealthMonitorEndToEnd -count 3 .

# race-sched stresses the scheduling layer: high-count runs of the
# fair-share fleet arbiter (whose grant path only races under unlucky
# acquire/release/unregister interleavings), the device pool's
# width-invariance test at one and four cores (executors finish out of
# order; outcomes must commit in take order), and the job manager
# driving many concurrent gated searches, mirroring
# race-broker/race-health.
race-sched:
	$(GO) test -race -run Fleet -count 5 ./internal/sched
	$(GO) test -race -cpu 1,4 -count 5 -run Width ./internal/sched
	$(GO) test -race -count 3 ./internal/jobs

# race-tsdb stresses the run-history store: the sampler goroutine
# appending concurrently with queries and flushes, since every
# dashboard range query races the sampling tick.
race-tsdb:
	$(GO) test -race -count 3 ./internal/tsdb

# race-obs stresses the per-job observability layer: scoped-registry
# churn (concurrent scope/update/export/retire) and the flight
# recorder's ring, arm/disarm set, and dump path under the race
# detector, since both sit on the journal hot path of every tenant.
race-obs:
	$(GO) test -race -run 'Scope|Recorder' -count 5 ./internal/obs

# fuzz-smoke mutates the input of every decoder of bytes read back from
# disk for a bounded time; the plain test suite only replays each
# target's seed corpus. One target per invocation, as -fuzz requires.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz='^FuzzReadEvents$$' -fuzztime=10s ./internal/obs
	$(GO) test -run=^$$ -fuzz='^FuzzDecodeBundle$$' -fuzztime=10s ./internal/obs
	$(GO) test -run=^$$ -fuzz='^FuzzDecodeCheckpoint$$' -fuzztime=10s ./internal/commons
	$(GO) test -run=^$$ -fuzz='^FuzzReadAlerts$$' -fuzztime=10s ./internal/health
	$(GO) test -run=^$$ -fuzz='^FuzzDecodeBlocks$$' -fuzztime=10s ./internal/tsdb
	$(GO) test -run=^$$ -fuzz='^FuzzNextSection$$' -fuzztime=10s ./internal/durable

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-smoke runs every tensor/nn microbenchmark for a single iteration
# under -short (skips the 1024 GEMM), as a correctness check in ci, and
# likewise the prediction engine's: the LM fit, one engine interaction, a
# tracker replaying a 25-epoch history, and a surrogate model's set-up.
bench-smoke:
	$(GO) test -short -run=^$$ -bench=. -benchtime=1x ./internal/tensor ./internal/nn
	$(GO) test -short -run=^$$ -bench=. -benchtime=1x -benchmem ./internal/fit ./internal/predict ./internal/simtrain

# bench-gate fails when BenchmarkTrainStep allocates more per step than
# the committed BENCH_tensor.json current value — the PR-2 zero-alloc
# hot path must not regress — or when any disabled observability path
# (per-layer profiler, span tracer, health monitor) costs allocations.
bench-gate:
	GO="$(GO)" sh scripts/benchgate.sh

# chaos-soak sweeps seeded crash plans through the real CLI: crash at a
# named durable-state transition, relaunch with -resume until the search
# completes, and require the same Pareto front as a fault-free run.
chaos-soak:
	GO="$(GO)" sh scripts/chaossoak.sh

# service-e2e boots a real a4nn-serve -jobs over HTTP, submits two
# concurrent searches, SIGKILLs the process mid-run, restarts it with
# -resume, and requires both jobs to complete with monotone journals
# and records identical to same-seed solo runs.
service-e2e:
	$(GO) test -run TestServiceKillResumeE2E -count 1 .

# bench-json re-measures the training hot-path benchmarks at GOMAXPROCS=1
# (what bench-gate compares against on any host) and writes
# BENCH_tensor.json with the committed pre-optimisation baseline
# (BENCH_baseline.txt) alongside the fresh numbers, then re-measures the
# disabled-observability benchmarks into BENCH_obs.json — the committed
# proof that tracing and health monitoring cost nothing when off.
bench-json:
	GOMAXPROCS=1 $(GO) test -run=^$$ -bench='BenchmarkMatMul$$|BenchmarkIm2ColBatch$$' -benchmem ./internal/tensor > bench-current.tmp
	GOMAXPROCS=1 $(GO) test -run=^$$ -bench='BenchmarkConvForwardBackward$$|BenchmarkTrainStep$$' -benchmem ./internal/nn >> bench-current.tmp
	@{ \
	  echo '{'; \
	  echo '  "baseline": '; awk -f scripts/benchjson.awk BENCH_baseline.txt; \
	  echo '  ,"current": '; awk -f scripts/benchjson.awk bench-current.tmp; \
	  echo '}'; \
	} > BENCH_tensor.json
	@rm -f bench-current.tmp
	@echo wrote BENCH_tensor.json
	$(GO) test -run=^$$ -bench='BenchmarkDisabledObs$$' -benchmem ./internal/obs > bench-obs.tmp
	$(GO) test -run=^$$ -bench='BenchmarkDisabledHealth$$|BenchmarkHealthObserve$$' -benchmem ./internal/health >> bench-obs.tmp
	@{ \
	  echo '{'; \
	  echo '  "current": '; awk -f scripts/benchjson.awk bench-obs.tmp; \
	  echo '}'; \
	} > BENCH_obs.json
	@rm -f bench-obs.tmp
	@echo wrote BENCH_obs.json

clean:
	$(GO) clean -testcache
	rm -f bench-current.tmp bench-obs.tmp
