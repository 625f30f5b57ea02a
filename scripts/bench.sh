#!/bin/sh
# Run the hot-path benchmarks and emit one JSON object per benchmark on
# stdout (a JSON array). BENCH_PATTERN / BENCHTIME override the set and
# the per-benchmark budget.
#
# With the default pattern, every benchmark named in BENCH_baseline.json
# must produce an output line; a renamed or deleted benchmark otherwise
# silently drops out of the gate and regressions in it go unwatched.
#
# Every benchmark runs at -cpu 2 (GOMAXPROCS 2), the core count
# BENCH_baseline.json was measured at: the worker pools of the
# experiment benchmarks size themselves by GOMAXPROCS, so their
# allocs/op depends on it (BenchmarkFig7MgridStartup reads about 15,620
# at 2 and 15,850 at 4), and the allocs gate must compare like with
# like on a runner of any size.
#
# Set PROFILE_DIR to a directory to also capture CPU and heap profiles
# of each benchmark binary run (main.cpu.pprof/main.mem.pprof for the
# main set, stream.*.pprof for the pinned streaming run) — the bench
# gate points this at its diagnostics dir so a failing gate uploads the
# profiles alongside the snapshots.
set -e

PATTERN="${BENCH_PATTERN:-BenchmarkMeasurement\$|BenchmarkMeasurementSuite\$|BenchmarkTranslation\$|BenchmarkSimulation\$|BenchmarkSimulationWide\$|BenchmarkSweepBatch\$|BenchmarkSweepFitted\$|BenchmarkFullPipeline\$|BenchmarkTraceCodec|BenchmarkXTRP2Encode|BenchmarkFig7MgridStartup\$|BenchmarkStoreRoundTrip\$|BenchmarkStorePutParallel\$|BenchmarkPatternReplay|BenchmarkWarmCell}"
TIME="${BENCHTIME:-1s}"
# The streaming-pipeline benchmark takes hundreds of ms per iteration,
# so a time budget yields low single-digit iteration counts and noisy
# ns/op. Pin an explicit iteration count (STREAM_BENCHTIME overrides)
# so snapshots are comparable run to run. Skipped when BENCH_PATTERN
# narrows the set explicitly.
STREAM_TIME="${STREAM_BENCHTIME:-10x}"

# profile_flags <tag> — emit -cpuprofile/-memprofile flags when
# PROFILE_DIR is set (profiles land as <tag>.cpu.pprof/<tag>.mem.pprof).
profile_flags() {
  [ -n "${PROFILE_DIR:-}" ] || return 0
  mkdir -p "$PROFILE_DIR"
  printf -- '-cpuprofile %s/%s.cpu.pprof -memprofile %s/%s.mem.pprof' \
    "$PROFILE_DIR" "$1" "$PROFILE_DIR" "$1"
}

out=$(mktemp)
raw=$(mktemp)
trap 'rm -f "$out" "$raw"' EXIT

# Collect the raw `go test` output before parsing it, rather than
# piping: on the left side of a pipe `set -e` cannot see a build or
# benchmark failure, and the run would emit a syntactically valid but
# partial JSON snapshot.
{
  # shellcheck disable=SC2046
  go test -run '^$' -bench "$PATTERN" -benchtime "$TIME" -cpu 2 -benchmem $(profile_flags main) .
  if [ -z "${BENCH_PATTERN:-}" ]; then
    # shellcheck disable=SC2046
    go test -run '^$' -bench 'BenchmarkStreamPipelineMemory$' -benchtime "$STREAM_TIME" -cpu 2 -benchmem $(profile_flags stream) .
  fi
} > "$raw"
awk '
  # Columns vary (MB/s and custom metrics appear between ns/op and
  # B/op), so locate each value by the unit that follows it.
  /^Benchmark/ {
    # go test appends a -<GOMAXPROCS> suffix on multi-core machines
    # (BenchmarkSimulation-4); strip it so snapshots compare across
    # machines with different core counts.
    sub(/-[0-9]+$/, "", $1)
    ns = b = a = "null"
    for (i = 3; i <= NF; i++) {
      if ($i == "ns/op") ns = $(i-1)
      if ($i == "B/op") b = $(i-1)
      if ($i == "allocs/op") a = $(i-1)
    }
    printf "%s  {\"name\":\"%s\",\"iters\":%s,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}", sep, $1, $2, ns, b, a
    sep = ",\n"
  }
  BEGIN { print "[" }
  END   { print "\n]" }
' < "$raw" > "$out"
cat "$out"

# Cross-check against the committed baseline: with the default pattern,
# a baseline benchmark that produced no line means the run is
# incomplete (renamed/deleted benchmark, build skew) and must fail
# loudly rather than let the gate silently stop watching it.
if [ -z "${BENCH_PATTERN:-}" ] && [ -f BENCH_baseline.json ]; then
  missing=""
  for name in $(grep -o '"name":"[^"]*"' BENCH_baseline.json | cut -d'"' -f4); do
    grep -q "\"name\":\"$name\"" "$out" || missing="$missing $name"
  done
  if [ -n "$missing" ]; then
    echo "bench.sh: baseline benchmarks produced no output line:$missing" >&2
    exit 1
  fi
fi
