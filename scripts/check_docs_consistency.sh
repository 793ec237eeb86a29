#!/usr/bin/env bash
# Fail when the docs and the code diverge:
# - every command printed by `qdv_tool --help` must have a matching
#   `## <command>` heading in docs/qdv_tool.md, and vice versa;
# - every library name README.md, DESIGN.md or docs/*.md cites in
#   backticks under a qdv namespace (`kern::probe_intervals`,
#   `simd::Ops::scan_ns_per_row`, `io::UnixServer`, ...) must still exist:
#   its last component needs a whole-word match under include/, src/ or
#   tests/ of the checkout this script sits in.
#
# Usage: check_docs_consistency.sh <path-to-qdv_tool> <path-to-qdv_tool.md>
set -euo pipefail

tool="$1"
doc="$2"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

cited=$(grep -ohE '`[^`]+`' "$root/README.md" "$root/DESIGN.md" "$root"/docs/*.md |
  grep -oE '(^|[^A-Za-z0-9_:])(kern|simd|io|core|agg|svc|dist|par)::[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*' |
  sed -E 's/^[^a-z]//' | sort -u)
stale=""
for name in $cited; do
  grep -rqw -- "${name##*::}" "$root/include" "$root/src" "$root/tests" ||
    stale="$stale $name"
done
if [ -n "$stale" ]; then
  echo "error: the docs cite names that no longer exist under include/, src/ or tests/:" >&2
  printf '  %s\n' $stale >&2
  exit 1
fi

# Command headings are single lowercase words ("## query"); prose sections
# ("## Appendix: ...") are ignored.
help_cmds=$("$tool" --help | awk '/^commands:/{f=1; next} f && NF==0 {exit} f {print $1}' | sort)
doc_cmds=$(grep -E '^## [a-z_]+$' "$doc" | awk '{print $2}' | sort)

if [ -z "$help_cmds" ]; then
  echo "error: could not parse a command list from '$tool --help'" >&2
  exit 1
fi

if [ "$help_cmds" != "$doc_cmds" ]; then
  echo "error: docs/qdv_tool.md headings diverge from qdv_tool --help" >&2
  echo "--- commands from --help / +++ headings from docs" >&2
  diff <(printf '%s\n' "$help_cmds") <(printf '%s\n' "$doc_cmds") >&2 || true
  exit 1
fi

echo "docs consistent:" $help_cmds
echo "docs cite $(printf '%s\n' $cited | wc -l) library names, all present"
