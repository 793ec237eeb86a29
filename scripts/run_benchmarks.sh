#!/usr/bin/env bash
# Runs the kernel-comparison benchmarks and assembles BENCH_kernels.json:
# old (scalar) vs new (block-kernel) rows for the kernel microbenchmarks,
# fig12 conditional histograms, and the fig14/15 parallel histogram batch.
# Wire-level latency (explore, zoom, brush, sweep) is measured by
# bench/qdvbench, not here.
#
#   scripts/run_benchmarks.sh <build-dir> [kernels.json]
#
# Sizes scale via the usual QDV_BENCH_* environment variables; CI's smoke
# job runs with tiny sizes (the benchmarks assert kernel/reference result
# equality regardless of size, so the smoke run still verifies correctness).
set -euo pipefail

build_dir=${1:?usage: run_benchmarks.sh <build-dir> [kernels.json]}
output=${2:-BENCH_kernels.json}
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

run() {
  local name=$1
  shift
  echo "[run_benchmarks] $name ..." >&2
  "$@" --json "$tmpdir/$name.json" > "$tmpdir/$name.txt"
  tail -n +1 "$tmpdir/$name.txt" | sed "s/^/[$name] /" >&2
}

run kernels "$build_dir/bench_kernels"
run fig12 "$build_dir/bench_fig12_conditional_hist"
run fig14_15 "$build_dir/bench_fig14_15_parallel_hist"

# Merge the per-bench JSON arrays into one object keyed by bench name.
{
  echo '{'
  echo "  \"host_threads\": ${QDV_THREADS:-$(nproc 2>/dev/null || echo 1)},"
  first=1
  for name in kernels fig12 fig14_15; do
    [ $first -eq 1 ] || echo ','
    first=0
    printf '  "%s":\n' "$name"
    sed 's/^/  /' "$tmpdir/$name.json" | printf '%s' "$(cat)"
  done
  echo
  echo '}'
} > "$output"

echo "[run_benchmarks] wrote $output" >&2
