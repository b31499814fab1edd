#!/bin/sh
# benchgate.sh guards the zero-allocation training hot path: it re-runs
# BenchmarkTrainStep and fails when allocs/op exceeds the committed
# "current" value in BENCH_tensor.json, and re-runs the disabled-path
# observability benchmarks (BenchmarkDisabledProfiler in internal/nn,
# BenchmarkDisabledObs in internal/obs, BenchmarkDisabledHealth in
# internal/health, BenchmarkDisabledHistory in internal/tsdb, and
# friends), the enabled BenchmarkHealthObserve and the enabled in-situ
# writers (BenchmarkJournalEmit, BenchmarkCheckpointFrame), and fails
# unless each costs exactly 0 allocs/op. Run via `make bench-gate`.
set -eu

budget=$(awk '/"current"/ { c = 1 }
c && /BenchmarkTrainStep/ {
    if (match($0, /"allocs_per_op": *[0-9]+/)) {
        s = substr($0, RSTART, RLENGTH)
        sub(/.*: */, "", s)
        print s
        exit
    }
}' BENCH_tensor.json)
if [ -z "$budget" ]; then
    echo "benchgate: no current BenchmarkTrainStep allocs_per_op in BENCH_tensor.json" >&2
    exit 1
fi

# Pinned to GOMAXPROCS=1, like the committed budget: every parallelRange
# fork allocates its task closures, so the count grows with the worker
# count and a multi-core host would fail a single-core budget. The
# variable, not -cpu, because the tensor worker bound is read at start-up.
out=$(GOMAXPROCS=1 "${GO:-go}" test -run '^$' -bench 'BenchmarkTrainStep$|BenchmarkDisabledProfiler$' -benchmem ./internal/nn)
echo "$out"
measured=$(echo "$out" | awk '/^BenchmarkTrainStep(-[0-9]+)?[ \t]/ {
    for (i = 3; i < NF; i++) if ($(i+1) == "allocs/op") print $i
}')
if [ -z "$measured" ]; then
    echo "benchgate: benchmark reported no allocs/op" >&2
    exit 1
fi

if [ "$measured" -gt "$budget" ]; then
    echo "benchgate: FAIL — BenchmarkTrainStep allocates $measured/op, budget is $budget/op" >&2
    echo "benchgate: if the regression is intended, re-baseline with 'make bench-json'" >&2
    exit 1
fi
echo "benchgate: ok — BenchmarkTrainStep $measured allocs/op within budget $budget"

# The per-layer profiler's disabled path must be free: with no profiler
# installed the Forward/Backward hooks are one atomic load and a branch,
# so the steady-state training pass stays at exactly zero allocations.
profiler=$(echo "$out" | awk '/^BenchmarkDisabledProfiler(-[0-9]+)?[ \t]/ {
    for (i = 3; i < NF; i++) if ($(i+1) == "allocs/op") print $i
}')
if [ -z "$profiler" ]; then
    echo "benchgate: BenchmarkDisabledProfiler reported no allocs/op" >&2
    exit 1
fi
if [ "$profiler" -gt 0 ]; then
    echo "benchgate: FAIL — disabled profiler allocates $profiler/op, must be 0" >&2
    exit 1
fi
echo "benchgate: ok — disabled profiler $profiler allocs/op"

# zero_allocs BENCH PKG WHAT fails unless BENCH in PKG reports exactly
# 0 allocs/op; WHAT names the path in the messages.
zero_allocs() {
    zout=$("${GO:-go}" test -run '^$' -bench "$1\$" -benchmem "$2")
    echo "$zout"
    zallocs=$(echo "$zout" | awk -v b="$1" '$1 ~ "^" b "(-[0-9]+)?$" {
        for (i = 3; i < NF; i++) if ($(i+1) == "allocs/op") print $i
    }')
    if [ -z "$zallocs" ]; then
        echo "benchgate: $1 reported no allocs/op" >&2
        exit 1
    fi
    if [ "$zallocs" -gt 0 ]; then
        echo "benchgate: FAIL — $3 allocates $zallocs/op, must be 0" >&2
        exit 1
    fi
    echo "benchgate: ok — $3 $zallocs allocs/op"
}

# The disabled instrumentation the hot loops pay must be free: a
# would-be span with an integer attribute plus nil counter, gauge and
# histogram updates are nil-receiver branches, so a run with no
# observer pays nothing per epoch.
zero_allocs BenchmarkDisabledObs ./internal/obs "disabled span and instruments"

# The disabled health monitor must be equally free: with no engine
# attached, Engine.Observe is one nil check, so workflows that never
# pass -health pay nothing for the alerting pipeline.
zero_allocs BenchmarkDisabledHealth ./internal/health "disabled health monitor"

# Enabled, the health engine must not allocate on a steady event
# stream either: one event applied to the fold plus a full check cycle
# of every row and the alert manager, with no finding to report.
zero_allocs BenchmarkHealthObserve ./internal/health "enabled health engine"

# The enabled in-situ writers must not allocate either: an epoch event
# through a journal with its file attached is encoded into the
# journal's own line buffer, and a whole checkpoint file into a reused
# buffer, both by append encoders with no reflection. The journal's
# ring grows in blocks while it first fills, so its bound holds at
# steady state: the benchmark wraps the ring before timing.
zero_allocs BenchmarkJournalEmit ./internal/obs "journal emit with a file attached"
zero_allocs BenchmarkCheckpointFrame ./internal/commons "whole-checkpoint encode"

# Disarmed crash points must be free too: every durable-state
# transition calls chaos.Point, so with no -chaos plan installed the
# check is one atomic load and zero allocations.
zero_allocs BenchmarkDisabledChaos ./internal/chaos "disarmed chaos point"

# The detached flight recorder must be free on the journal hot path:
# Journal.Emit with no recorder attached pays one atomic load and a
# nil-receiver branch, so runs that never arm a black box record
# events at zero extra allocations.
zero_allocs BenchmarkDisabledRecorder ./internal/obs "detached flight recorder"

# A disabled run-history store must be free on the metrics hot path:
# with no -history flag the sampler and store are nil, and both
# SampleNow and Append are a single nil-receiver branch, so runs that
# record no history pay nothing for the time-series machinery.
zero_allocs BenchmarkDisabledHistory ./internal/tsdb "disabled history store"

# The GEMM throughput floor: BenchmarkMatMul/1024 must hold at least
# half the committed current GFLOP/s from BENCH_tensor.json. Half, not
# unity, because shared-runner throughput swings ±30% run to run — a
# real regression (losing the SIMD kernel, a serialized kernel, a
# tiling bug) costs far more than 2×. The measurement is pinned to
# GOMAXPROCS=1 so the parallel GEMM's fan-out cannot inflate the number
# on wide runners: the floor compares single-core throughput against a
# single-core baseline regardless of the machine's core count (which is
# recorded below for post-mortems on gate failures). Re-baseline with
# 'make bench-json' after intentional changes.
committed=$(awk '/"current"/ { c = 1 }
c && /BenchmarkMatMul\/1024/ {
    if (match($0, /"GFLOP\/s": *[0-9.]+/)) {
        s = substr($0, RSTART, RLENGTH)
        sub(/.*: */, "", s)
        print s
        exit
    }
}' BENCH_tensor.json)
if [ -z "$committed" ]; then
    echo "benchgate: no current BenchmarkMatMul/1024 GFLOP/s in BENCH_tensor.json" >&2
    exit 1
fi
cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo unknown)
echo "benchgate: runner has $cores core(s) online; GFLOP/s floor measured at GOMAXPROCS=1"
tout=$(GOMAXPROCS=1 "${GO:-go}" test -run '^$' -bench 'BenchmarkMatMul/1024$' ./internal/tensor)
echo "$tout"
gflops=$(echo "$tout" | awk '/^BenchmarkMatMul\/1024(-[0-9]+)?[ \t]/ {
    for (i = 3; i < NF; i++) if ($(i+1) == "GFLOP/s") print $i
}' | head -n 1)
if [ -z "$gflops" ]; then
    echo "benchgate: BenchmarkMatMul/1024 reported no GFLOP/s" >&2
    exit 1
fi
if [ "$(awk -v g="$gflops" -v c="$committed" 'BEGIN { print (g + g >= c) ? "ok" : "low" }')" != "ok" ]; then
    echo "benchgate: FAIL — BenchmarkMatMul/1024 at $gflops GFLOP/s, floor is $committed/2" >&2
    exit 1
fi
echo "benchgate: ok — BenchmarkMatMul/1024 $gflops GFLOP/s against committed $committed (floor: half)"
