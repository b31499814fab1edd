GO ?= go

.PHONY: ci lint vet build test race race-broker race-health race-sched race-obs race-tsdb allocs golden-nofma fuzz-smoke bench bench-smoke bench-gate bench-json chaos-soak service-e2e clean

# ci is the gate for every change: formatting and static analysis, a
# full build, the test suite under the race detector (plus a dedicated
# high-iteration pass over the event broker, the one component built
# for hundreds of concurrent subscribers, a stress pass over the
# health monitors and alert manager against a fault-injected search,
# and a stress pass over the fair-share fleet scheduler and job
# manager), a one-iteration benchmark smoke run so the hot-path
# benchmarks cannot silently rot, ten seconds of real fuzzing per
# on-disk decoder and spec parser, the allocation-regression gates on
# the training, prediction and observability hot paths, the golden-bits
# tests on an FMA-less math.Exp, the crash-recovery soak that kills the
# real CLI at seeded crash points and resumes it to completion, and the
# service e2e that kills a live multi-job a4nn-serve and resumes every
# submission.
ci: lint build race race-broker race-health race-sched race-obs race-tsdb allocs golden-nofma fuzz-smoke bench-smoke bench-gate chaos-soak service-e2e

# lint fails on unformatted files (gofmt -l), vet findings, and on a
# file protocol written outside internal/durable: temp files, O_APPEND
# handles and CRC framing have one implementation each, so a second
# copy cannot appear unreviewed. It also holds the health engine
# to one clock: internal/health declares one func() time.Time (Engine.now)
# and reads time.Now nowhere but in New, where that seam is set. And it
# refuses math.Exp outside internal/tensor: tensor.Exp has the same bits
# on every amd64 host, math.Exp has two sets (FMA or not). Last, it refuses
# a run's live route (/metrics, /events, /dashboard, /healthz,
# /debug/spans, /api/alerts, /api/query, /api/series, or their
# /api/jobs/{id} forms) registered outside internal/webui/routes.go:
# every binary and every job mounts that one table. And it holds the
# health engine to one fold of the journal: a `case obs.Event…` in
# non-test internal/health outside fold.go is a second reader of the
# event stream. Last, TestReachCensus type-checks the module and fails on
# an internal declaration no command, example, benchmark or a4nn.go
# export reaches, or a settings field no code sets (DESIGN §10); it skips
# under -race, so `make race` does not repeat it.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required on:"; echo "$$unformatted"; exit 1; \
	fi
	@stray=$$(grep -rnE 'os\.CreateTemp\(|os\.O_APPEND|crc32\.' --include='*.go' . \
		| grep -vE '^\./internal/durable/|_test\.go:'); \
	if [ -n "$$stray" ]; then \
		echo "file protocol outside internal/durable:"; echo "$$stray"; exit 1; \
	fi
	@seams=$$(grep -nE 'func\(\) time\.Time' $$(ls internal/health/*.go | grep -v _test.go)); \
	clocks=$$(grep -nE 'time\.Now' $$(ls internal/health/*.go | grep -v _test.go) \
		| grep -vE '^internal/health/health\.go:[0-9]+:[[:space:]]*now: +time\.Now,$$'); \
	if [ $$(printf '%s' "$$seams" | grep -c .) -gt 1 ] || [ -n "$$clocks" ]; then \
		echo "internal/health reads time outside Engine.now:"; echo "$$seams"; echo "$$clocks"; exit 1; \
	fi
	@exps=$$(grep -rnE 'math\.Exp\(' --include='*.go' . | grep -vE '^\./internal/tensor/|_test\.go:'); \
	if [ -n "$$exps" ]; then \
		echo "math.Exp outside internal/tensor (use tensor.Exp or tensor.ExpInto):"; echo "$$exps"; exit 1; \
	fi
	@routes=$$(grep -rnE '("GET |Handle(Func)?\(")/(metrics|events|dashboard|healthz|debug/spans|api/(alerts|query|series)|api/jobs/\{id\}/(metrics|events|dashboard|healthz|alerts|query|series))' \
		--include='*.go' . | grep -vE '^\./internal/webui/routes\.go:|_test\.go:'); \
	if [ -n "$$routes" ]; then \
		echo "live route registered outside internal/webui/routes.go (add a runRoutes row):"; echo "$$routes"; exit 1; \
	fi
	@cases=$$(grep -nE 'case obs\.Event' $$(ls internal/health/*.go | grep -v _test.go) \
		| grep -vE '^internal/health/fold\.go:'); \
	if [ -n "$$cases" ]; then \
		echo "event type switched on outside internal/health/fold.go (apply it in fold.apply):"; echo "$$cases"; exit 1; \
	fi
	$(GO) test -count=1 -run '^TestReachCensus$$' .

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

# allocs runs the fit's and the prediction engine's allocation bounds
# outside the race detector: in the -race build that `race` runs,
# sync.Pool drops items on purpose and the engine's bound is looser.
# It also runs the observability stack's: what opening an observer and
# a subscriber costs before the first event, and the journal ring's
# block-by-block growth.
allocs:
	$(GO) test -count 1 -run 'Allocs|AllocatesNothing' ./internal/predict ./internal/fit ./internal/obs

# golden-nofma reruns the golden-bits tests with math.Exp on its
# separately rounded path, as on an amd64 host without FMA: the recorded
# bits must not depend on which path the host's math.Exp takes. The fit
# reference, the three-parameter solve and normal equations against the
# general loops, the closed-form Jacobian's tests against central
# differences, the paired decision tests and ExpInto's vector kernel
# (masked tail included) against the per-element Exp ride along, so they
# hold on tensor.Exp's software path too.
golden-nofma:
	GODEBUG=cpu.fma=off $(GO) test -count 1 -run 'GoldenBits|FitMatchesReference|Solve3MatchesEliminate|Np3PathMatchesGeneral|ExpInto|ExpJacobian|ClosedFormKeeps|EvalBatchMatchesEval|FitScratchReuse' ./internal/predict ./internal/simtrain ./internal/core ./internal/fit ./internal/tensor

# fuzz-smoke mutates the input of every decoder of bytes read back from
# disk (the fold of a store's journal into its records among them), of
# the two genome parsers that read a record's genome, and of every
# command-line spec parser (-faults, -chaos, -health-config, -slo), the
# vector exponential against the scalar one, and the append encoders of
# the journal line, the checkpoint payload and the surrogate state
# against encoding/json,
# for a bounded time; the plain test suite only replays each target's
# seed corpus. One target per invocation, as -fuzz requires.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz='^FuzzReadEvents$$' -fuzztime=10s ./internal/obs
	$(GO) test -run=^$$ -fuzz='^FuzzDecodeBundle$$' -fuzztime=10s ./internal/obs
	$(GO) test -run=^$$ -fuzz='^FuzzDecodeCheckpoint$$' -fuzztime=10s ./internal/commons
	$(GO) test -run=^$$ -fuzz='^FuzzReadAlerts$$' -fuzztime=10s ./internal/health
	$(GO) test -run=^$$ -fuzz='^FuzzDecodeBlocks$$' -fuzztime=10s ./internal/tsdb
	$(GO) test -run=^$$ -fuzz='^FuzzNextSection$$' -fuzztime=10s ./internal/durable
	$(GO) test -run=^$$ -fuzz='^FuzzParseFaultPlan$$' -fuzztime=10s ./internal/sched
	$(GO) test -run=^$$ -fuzz='^FuzzParseChaosPlan$$' -fuzztime=10s ./internal/chaos
	$(GO) test -run=^$$ -fuzz='^FuzzParseHealthConfig$$' -fuzztime=10s ./internal/health
	$(GO) test -run=^$$ -fuzz='^FuzzParseSLO$$' -fuzztime=10s ./internal/health
	$(GO) test -run=^$$ -fuzz='^FuzzExpBits$$' -fuzztime=10s ./internal/tensor
	$(GO) test -run=^$$ -fuzz='^FuzzEventJSON$$' -fuzztime=10s ./internal/obs
	$(GO) test -run=^$$ -fuzz='^FuzzCheckpointJSON$$' -fuzztime=10s ./internal/commons
	$(GO) test -run=^$$ -fuzz='^FuzzRecordFold$$' -fuzztime=10s ./internal/commons
	$(GO) test -run=^$$ -fuzz='^FuzzStateJSON$$' -fuzztime=10s ./internal/simtrain
	$(GO) test -run=^$$ -fuzz='^FuzzParseGenome$$' -fuzztime=10s ./internal/genome
	$(GO) test -run=^$$ -fuzz='^FuzzParseMicro$$' -fuzztime=10s ./internal/genome

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-smoke runs every tensor/nn microbenchmark (BenchmarkExpInto among
# them) for a single iteration under -short (skips the 1024 GEMM), as a
# correctness check in ci, and likewise the prediction engine's: the LM
# fit, one engine interaction, a tracker replaying a 25-epoch history, and
# a surrogate model's set-up; one real-training model's checkpoint
# traffic (ten whole-file puts, then the delete); and one real-training
# epoch at the benchmark's train_real shapes.
bench-smoke:
	$(GO) test -short -run=^$$ -bench=. -benchtime=1x ./internal/tensor ./internal/nn
	$(GO) test -short -run=^$$ -bench=. -benchtime=1x -benchmem ./internal/fit ./internal/predict ./internal/simtrain ./internal/commons ./internal/core

# bench-gate fails when BenchmarkTrainStep allocates more per step than
# the committed BENCH_tensor.json current value — the PR-2 zero-alloc
# hot path must not regress — when any disabled observability path
# (per-layer profiler, span tracer, health monitor) costs allocations,
# when the enabled health engine allocates on a steady event stream, or
# when an enabled in-situ writer (journal emit, whole-checkpoint encode)
# allocates. The journal's ring grows in blocks while it first fills,
# so the emit bound holds at steady state, once the ring has wrapped.
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
# proof that tracing and health monitoring cost nothing when off — with
# the enabled health engine and in-situ writers beside them.
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
	$(GO) test -run=^$$ -bench='BenchmarkDisabledObs$$|BenchmarkJournalEmit$$' -benchmem ./internal/obs > bench-obs.tmp
	$(GO) test -run=^$$ -bench='BenchmarkDisabledHealth$$|BenchmarkHealthObserve$$' -benchmem ./internal/health >> bench-obs.tmp
	$(GO) test -run=^$$ -bench='BenchmarkCheckpointFrame$$' -benchmem ./internal/commons >> bench-obs.tmp
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
