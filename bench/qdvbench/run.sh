#!/usr/bin/env bash
# Build and run qdvbench, the repository's wire-level benchmark
# (bench/qdvbench/README.md).
#
#   bench/qdvbench/run.sh [--workload NAME | --workloads a,b] [--seed N]
#                         [--seconds S] [--trace [0|1]] [--smoke] [--sets K]
#                         [--out FILE]
#
# The first run builds the library, qdv_tool and qdvbench (Release) into
# bench/qdvbench/build/; later runs rebuild only what changed. Datasets,
# sockets, result.json and trace.json are written under that directory
# unless --out names another result file. Build output goes to stderr; the
# last line of stdout is the JSON summary.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$here/build"

if [[ ! -f "$root/CMakeLists.txt" ]]; then
  echo "qdvbench: no CMakeLists.txt at $root; run it from a full qdv checkout" >&2
  exit 2
fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" --target qdvbench qdv_tool >&2

git_sha=unknown
git_dirty=0
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  git_sha="$(git -C "$root" rev-parse HEAD)"
  [[ -z "$(git -C "$root" status --porcelain)" ]] || git_dirty=1
fi

# A killed run leaves its dataset behind; runs are sequential, so clear it.
rm -rf "$build/work"
exec "$build/bin/qdvbench" --tool "$build/bin/qdv_tool" --work "$build/work" \
  --out "$build/result.json" --trace-out "$build/trace.json" \
  --git-sha "$git_sha" --git-dirty "$git_dirty" "$@"
