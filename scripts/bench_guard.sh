#!/bin/sh
# bench_guard.sh — CI perf guardrail for the evaluation hot path.
#
# Runs the end-to-end search benchmarks and fails when allocs/op or
# (machine-calibrated) ns/op regress more than TOL percent against the
# committed BENCH_core.json baseline.
#
# Two gates, different trust levels:
#
#   - allocs/op is nearly deterministic and machine-independent: the gate
#     is a straight +TOL% (plus 2 allocs absolute slack so slab-allocated
#     0-alloc baselines don't become exact-zero requirements). This is
#     the high-signal tripwire for pooling/arena regressions.
#   - ns/op depends on the machine the baseline was recorded on. The
#     limit is therefore scaled by how much slower this machine runs the
#     single-threaded BenchmarkCostAnalyze reference than the baseline
#     machine did (never scaled below 1×, so a faster runner keeps the
#     recorded limit rather than tightening it). The calibration absorbs
#     clock-speed differences; core-count differences in the parallel
#     search rows are what the loose TOL is for. A real regression — an
#     O(L) → O(L²) slip in the delta path, a cache probe gone quadratic —
#     measures 2× or worse and clears any plausible noise.
#
# Tolerance: TOL defaults to 30 (percent), documented loose for shared CI
# runners. The guarded rows are ms-scale searches (thousands of internal
# evaluations per op); the µs-scale micro rows in BENCH_core.json swing
# ±30% with heap state alone and are recorded for trend reading, not
# gating.
#
# Usage:
#   scripts/bench_guard.sh [baseline.json]
#   TOL=50 BENCHTIME=2s scripts/bench_guard.sh
#
# A third gate covers the cross-request reuse tentpole: the serve-level
# near-duplicate stream (BenchmarkServeWarmTraffic) must run ≥ WARM_MIN×
# (default 2×) faster warm — shared tier + warm_start + time-to-target —
# than cold. The ratio compares two runs on this machine, so it needs no
# calibration and holds across runner speeds.
#
# A fourth gate covers batch amortization: submitting a K=32 related
# sweep as one POST /v1/batches (one WAL fsync, one capacity check, one
# admission pass) must run ≥ BATCH_MIN× (default 1.5×) faster than K
# independent submits of the same specs (BenchmarkServeBatchSweep).
# Same-machine ratio, no calibration needed.
#
# A fifth gate covers the run's crew: one resnet18 search at budget 4000
# on a full crew (Workers = GOMAXPROCS) must run ≥ PAR_MIN× faster than
# the same search serially (BenchmarkDiGammaSearchWorkers, median of 3
# runs per row). PAR_MIN is fixed at 1.2× here, not read from the
# environment. Same-machine ratio, no calibration needed;
# skipped on a host with fewer than 2 CPUs, where both rows run serially.

set -eu

cd "$(dirname "$0")/.."
BASE=${1:-BENCH_core.json}
TOL=${TOL:-30}
BENCHTIME=${BENCHTIME:-1s}
WARM_MIN=${WARM_MIN:-2.0}
BATCH_MIN=${BATCH_MIN:-1.5}
PAR_MIN=1.2

[ -f "$BASE" ] || { echo "bench_guard: no baseline $BASE"; exit 1; }

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench 'BenchmarkCostAnalyze$|BenchmarkDiGammaSearch$' \
    -benchmem -benchtime "$BENCHTIME" . | tee "$RAW"

awk -v tol="$TOL" -v base="$BASE" '
BEGIN {
    # Parse the committed baseline: one {"name": ..., "ns_per_op": ...,
    # "allocs_per_op": ...} record per line.
    while ((getline line < base) > 0) {
        if (line !~ /"name"/) continue
        name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        ns = line; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
        al = line; sub(/.*"allocs_per_op": /, "", al); sub(/[,}].*/, "", al)
        base_ns[name] = ns + 0
        base_al[name] = al + 0
    }
    close(base)
    failed = 0
    checked = 0
    ref = "BenchmarkCostAnalyze"
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; al = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     ns = $(i - 1)
        if ($(i) == "allocs/op") al = $(i - 1)
    }
    if (ns == "") next
    now_ns[name] = ns + 0
    now_al[name] = al
}
END {
    # Machine calibration from the single-threaded reference row.
    scale = 1
    if (ref in now_ns && base_ns[ref] > 0) {
        scale = now_ns[ref] / base_ns[ref]
        if (scale < 1) scale = 1
        printf "bench_guard: machine scale %.2fx (reference %s: %.0f vs baseline %.0f ns/op)\n", \
            scale, ref, now_ns[ref], base_ns[ref]
    }
    for (name in now_ns) {
        if (name == ref || !(name in base_ns)) continue
        checked++
        lim_ns = base_ns[name] * scale * (1 + tol / 100)
        lim_al = base_al[name] * (1 + tol / 100) + 2
        if (now_ns[name] > lim_ns) {
            printf "REGRESSION %s: %.0f ns/op > %.0f (baseline %.0f, scale %.2fx, +%d%%)\n", \
                name, now_ns[name], lim_ns, base_ns[name], scale, tol
            failed = 1
        }
        if (now_al[name] != "" && now_al[name] + 0 > lim_al) {
            printf "REGRESSION %s: %d allocs/op > %.0f (baseline %d +%d%% +2)\n", \
                name, now_al[name], lim_al, base_al[name], tol
            failed = 1
        }
    }
    if (checked == 0) { print "bench_guard: no benchmarks matched the baseline"; exit 1 }
    printf "bench_guard: %d benchmarks checked against %s (tolerance +%d%%)\n", checked, base, tol
    exit failed
}
' "$RAW"

# --- near-duplicate reuse gate -----------------------------------------
WRAW=$(mktemp)
trap 'rm -f "$RAW" "$WRAW"' EXIT

go test -run '^$' -bench 'BenchmarkServeWarmTraffic$' \
    -benchtime "$BENCHTIME" ./internal/serve/ | tee "$WRAW"

awk -v min="$WARM_MIN" '
/^BenchmarkServeWarmTraffic\/cold/ { cold = $3 }
/^BenchmarkServeWarmTraffic\/warm/ { warm = $3 }
END {
    if (cold == "" || warm == "" || warm + 0 == 0) {
        print "bench_guard: warm-traffic rows missing"; exit 1
    }
    ratio = cold / warm
    printf "bench_guard: near-duplicate warm speedup %.2fx (cold %.0f ns/op, warm %.0f ns/op, floor %.1fx)\n", \
        ratio, cold, warm, min
    if (ratio < min) {
        printf "REGRESSION BenchmarkServeWarmTraffic: warm/cold speedup %.2fx < %.1fx\n", ratio, min
        exit 1
    }
}
' "$WRAW"

# --- batch amortization gate -------------------------------------------
BRAW=$(mktemp)
trap 'rm -f "$RAW" "$WRAW" "$BRAW"' EXIT

go test -run '^$' -bench 'BenchmarkServeBatchSweep$' \
    -benchtime "$BENCHTIME" ./internal/serve/ | tee "$BRAW"

awk -v min="$BATCH_MIN" '
/^BenchmarkServeBatchSweep\/independent/ { indep = $3 }
/^BenchmarkServeBatchSweep\/batch/       { batch = $3 }
END {
    if (indep == "" || batch == "" || batch + 0 == 0) {
        print "bench_guard: batch-sweep rows missing"; exit 1
    }
    ratio = indep / batch
    printf "bench_guard: batch sweep speedup %.2fx (independent %.0f ns/op, batch %.0f ns/op, floor %.1fx)\n", \
        ratio, indep, batch, min
    if (ratio < min) {
        printf "REGRESSION BenchmarkServeBatchSweep: independent/batch speedup %.2fx < %.1fx\n", ratio, min
        exit 1
    }
}
' "$BRAW"

# --- parallel-vs-serial gate -------------------------------------------
NPROC=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$NPROC" -lt 2 ]; then
    echo "bench_guard: parallel-vs-serial gate skipped ($NPROC CPU)"
    exit 0
fi
PRAW=$(mktemp)
trap 'rm -f "$RAW" "$WRAW" "$BRAW" "$PRAW"' EXIT

go test -run '^$' -bench 'BenchmarkDiGammaSearchWorkers$' \
    -benchtime "$BENCHTIME" -count 3 . | tee "$PRAW"

awk -v min="$PAR_MIN" '
# median of the n values in v[1..n] (insertion sort; n is small)
function median(v, n,    i, j, x) {
    for (i = 2; i <= n; i++) {
        x = v[i]
        for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
    }
    return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}
/^BenchmarkDiGammaSearchWorkers\/resnet18\/serial/   { s[++ns] = $3 }
/^BenchmarkDiGammaSearchWorkers\/resnet18\/parallel/ { p[++np] = $3 }
END {
    if (ns == 0 || np == 0) {
        print "bench_guard: parallel-vs-serial rows missing"; exit 1
    }
    serial = median(s, ns); parallel = median(p, np)
    if (parallel + 0 == 0) {
        print "bench_guard: parallel-vs-serial rows missing"; exit 1
    }
    ratio = serial / parallel
    printf "bench_guard: parallel search speedup %.2fx (serial %.0f ns/op, parallel %.0f ns/op, medians of %d, floor %.1fx)\n", \
        ratio, serial, parallel, np, min
    if (ratio < min) {
        printf "REGRESSION BenchmarkDiGammaSearchWorkers: parallel/serial speedup %.2fx < %.1fx\n", ratio, min
        exit 1
    }
}
' "$PRAW"
