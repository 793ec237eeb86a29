#!/usr/bin/env bash
# Runs the kernel-comparison benchmarks and assembles BENCH_kernels.json:
# old (scalar) vs new (block-kernel) rows for the kernel microbenchmarks,
# fig12 conditional histograms, and the fig14/15 parallel histogram batch.
# The distributed sweep (1/2/4 real worker processes behind the
# coordinator, results verified bit-identical to the local engine) lands in
# BENCH_distributed.json. Wire-level latency (explore, zoom, brush, sweep)
# is measured by bench/qdvbench, not here.
#
#   scripts/run_benchmarks.sh <build-dir> [kernels.json] [distributed.json]
#
# Sizes scale via the usual QDV_BENCH_* environment variables; CI's smoke
# job runs with tiny sizes (the benchmarks assert kernel/reference result
# equality regardless of size, so the smoke run still verifies correctness).
set -euo pipefail

build_dir=${1:?usage: run_benchmarks.sh <build-dir> [kernels.json] [distributed.json]}
output=${2:-BENCH_kernels.json}
dist_output=${3:-BENCH_distributed.json}
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

# Distributed sweep: 1/2/4 worker processes behind the coordinator, every
# merged result checked bit-identical against the local engine before it
# is timed. The JSON rows carry both honest wall seconds and the makespan
# model (per-shard worker CPU seconds); host_cpus in each row says which
# regime the wall numbers came from.
if [ -x "$build_dir/bench_distributed" ]; then
  run distributed "$build_dir/bench_distributed"
  cp "$tmpdir/distributed.json" "$dist_output"
  echo "[run_benchmarks] wrote $dist_output" >&2
else
  echo "[run_benchmarks] no bench_distributed in $build_dir: skipping distributed bench" >&2
fi
