// Line protocol of the qdv query service (DESIGN.md Section 11): one
// newline-terminated request per line, one newline-terminated response.
// Text-only so sessions can be driven by hand (`nc -U`), replayed from
// files, and asserted in tests.
//
// Requests:   <op> [t=N] [x=VAR] [y=VAR] [bins=N] [ybins=N] [adaptive=1]
//             [vlo=F] [vhi=F] [ylo=F] [yhi=F] [exact=1] [deadline=MS]
//             [pri=0|1|2] [limit=N] [brush=NAME]
//             [q=QUERY TEXT TO END OF LINE]
//   ops: hello | count | ids | hist1 | hist2 | sum | zoom1 | zoom2
//        | brush | stats | ping | quit
//   `q=` must come last — everything after it (spaces included) is the
//   query; omitting it selects all records.
//   zoom1/zoom2 take the viewport as vlo=/vhi= (x axis) and ylo=/yhi=
//   (zoom2's y axis); exact=1 forces the kernel path (ZoomMode::kExact).
//   Their responses carry `pyr=0|1 level=N`: whether the histogram was
//   served from pyramid levels and at which snapped level.
//   deadline=MS gives the request a time budget in milliseconds; a request
//   that cannot be answered in time fails with `err deadline-expired`. A
//   load-shedding server answers `err retry-after: ...` — back off and
//   resend (DESIGN.md Section 15).
//
// Brush verbs (v5, DESIGN.md Section 16) — named mutable selections scoped
// to the connection's session:
//   brush create  name=B q=PREDICATE
//   brush refine  name=B q=EXTRA PREDICATE
//   brush invert  name=B
//   brush combine name=B with=C op=and|or|andnot
//   brush drop    name=B
//   Each answers `ok brush=B epoch=E bytes=N brushes=K` (E = the brush's
//   monotone edit epoch) or a typed `err`. Query ops then evaluate against
//   a brush with `brush=B` in place of `q=` (zooms excepted); their `ok`
//   responses carry `epoch=E` — the epoch the answer is exact for.
// Responses:  `ok <key>=<value> ...` or `err <message>`.
//
// Versioning: a connection opens with a `hello v=N` greeting; the server
// answers `ok qdv v=N` when N matches kProtocolVersion and closes with a
// clear `err protocol version mismatch ...` otherwise — a stale qdv_tool
// talking to a newer server (or vice versa) fails loudly on its first
// line, not obscurely mid-session. SocketClient performs the greeting
// automatically; hand-driven sessions (`nc -U`) must send it first.
//
// Stateless free functions; safe to call concurrently.
#pragma once

#include <cstdint>
#include <string>

#include "svc/query_service.hpp"

namespace qdv::svc {

/// Line-protocol version. Bumped whenever the request/response shapes
/// change incompatibly; the hello greeting pins it per connection.
/// v5: brush verbs + brush= on query ops (and strict numeric fields).
inline constexpr unsigned kProtocolVersion = 5;

/// One parsed request line.
struct WireRequest {
  enum class Op { kQuery, kBrush, kStats, kPing, kQuit, kHello };
  enum class BrushAction { kCreate, kRefine, kInvert, kCombine, kDrop };
  Op op = Op::kQuery;
  Request request;            // valid when op == kQuery (q= also feeds
                              // brush create/refine via request.query)
  std::size_t ids_limit = 16; // ids listed in the response (limit=N)
  unsigned hello_version = 0; // v= of a hello line (op == kHello)

  // op == kBrush only.
  BrushAction brush_action = BrushAction::kCreate;
  std::string brush_name;     // name=
  std::string brush_with;     // with= (combine)
  core::Brush::CombineOp brush_combine_op = core::Brush::CombineOp::kAnd;
};

/// Strict numeric field parsers of the wire layer (and of qdv_tool's
/// argument handling): the whole token must parse (core/query.hpp).
using qdv::parse_double;
using qdv::parse_size;

/// Wire op of a request kind ("count", "ids", "hist1", "hist2", "sum",
/// "zoom1", "zoom2"): the parser, the formatter and the service's
/// result-cache key all spell kinds through this one table.
const char* request_op(RequestKind kind);

/// Parse @p line into @p out. False (with @p error set) on a malformed
/// line; the server answers those with `err`.
bool parse_request_line(const std::string& line, WireRequest& out,
                        std::string& error);

/// Canonical text of @p request (parse_request_line round-trips it).
std::string format_request_line(const WireRequest& request);

/// `ok ...` / `err ...` response line for a completed request.
std::string format_response_line(const Result& result, std::size_t ids_limit);

/// `ok ...` response line for the `stats` op.
std::string format_stats_line(const ServiceStats& stats);

/// `ok brush=... epoch=...` / `err ...` response line for a brush verb.
std::string format_brush_response_line(const BrushOutcome& outcome);

/// Minimal response split for clients: true on `ok`, false on `err` (body
/// receives everything after the tag either way).
bool parse_response_line(const std::string& line, std::string& body);

}  // namespace qdv::svc
