#!/usr/bin/env bash
# Fail when a raw POSIX I/O call creeps in outside the one sanctioned choke
# point. Every pread/read/write/send/recv in the library must go through
# io::io_util (DESIGN.md §15) so EINTR retries, short-transfer loops, and
# fault injection stay in exactly one place; so must every socket, bind,
# listen, accept and connect (DESIGN.md §11).
#
# Usage: check_raw_io.sh <repo-root>
set -euo pipefail

root="$1"

# Call sites use the explicit global-namespace form (::pread(...)), which
# is what the codebase standardizes on for raw syscalls — so that is what
# the lint matches. io_util.cpp implements the wrappers; mapped_file.cpp
# owns mmap/open/close but routes reads through io_util.
offenders=$(grep -rnE '(^|[^[:alnum:]_])::(pread|pwrite|read|write|send|recv)[[:space:]]*\(' \
    "$root/src" "$root/include" \
    --include='*.cpp' --include='*.hpp' \
    | grep -v 'src/io/io_util.cpp' \
    | grep -vE '(read_full|write_full|send_full|recv_some|pread_full)' \
    || true)

if [ -n "$offenders" ]; then
  echo "error: raw I/O syscalls outside io::io_util — route them through" >&2
  echo "io_util.hpp so EINTR/short-transfer/fault handling stays central:" >&2
  printf '%s\n' "$offenders" >&2
  exit 1
fi

# The socket layer has one home too: io::UnixServer owns bind/listen/accept
# and the per-connection threads, io::connect_unix the client side.
socket_offenders=$(grep -rnE '(^|[^[:alnum:]_])::(socket|bind|listen|accept|connect)[[:space:]]*\(' \
    "$root/src" "$root/include" \
    --include='*.cpp' --include='*.hpp' \
    | grep -v 'src/io/io_util.cpp' \
    || true)

if [ -n "$socket_offenders" ]; then
  echo "error: raw socket calls outside io::io_util — use io::UnixServer" >&2
  echo "or io::connect_unix so there is one socket layer:" >&2
  printf '%s\n' "$socket_offenders" >&2
  exit 1
fi

echo "raw io check passed: all pread/read/write/send/recv and socket calls go through io_util"
