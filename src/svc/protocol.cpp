#include "svc/protocol.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <sstream>

namespace qdv::svc {

namespace {

/// Wire op of each RequestKind, in enum order.
constexpr const char* kRequestOps[] = {"count", "ids",   "hist1", "hist2",
                                       "sum",   "zoom1", "zoom2"};
static_assert(std::size(kRequestOps) ==
              static_cast<std::size_t>(RequestKind::kZoom2D) + 1);

const char* status_text(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kError: return "error";
    case Status::kRejectedQueue: return "queue-full";
    case Status::kRejectedBudget: return "over-budget";
    case Status::kShutdown: return "shutdown";
    case Status::kRetryLater: return "retry-after";
    case Status::kDeadlineExpired: return "deadline-expired";
  }
  return "?";
}

}  // namespace

const char* request_op(RequestKind kind) {
  return kRequestOps[static_cast<std::size_t>(kind)];
}

bool parse_request_line(const std::string& line, WireRequest& out,
                        std::string& error) {
  out = WireRequest{};
  std::istringstream in(line);
  std::string op;
  if (!(in >> op)) {
    error = "empty request";
    return false;
  }
  if (op == "hello") {
    out.op = WireRequest::Op::kHello;
    std::string token;
    while (in >> token) {
      std::size_t n = 0;
      // A version past UINT_MAX must not wrap into a valid (or zero) one.
      if (token.rfind("v=", 0) == 0 && parse_size(token.substr(2), n) &&
          n <= std::numeric_limits<unsigned>::max()) {
        out.hello_version = static_cast<unsigned>(n);
      } else {
        error = "bad hello option '" + token + "'";
        return false;
      }
    }
    if (out.hello_version == 0) {
      error = "hello needs v=<version>";
      return false;
    }
    return true;
  }
  if (op == "brush") {
    out.op = WireRequest::Op::kBrush;
    std::string action;
    if (!(in >> action)) {
      error = "brush needs an action (create|refine|invert|combine|drop)";
      return false;
    }
    using BA = WireRequest::BrushAction;
    if (action == "create") {
      out.brush_action = BA::kCreate;
    } else if (action == "refine") {
      out.brush_action = BA::kRefine;
    } else if (action == "invert") {
      out.brush_action = BA::kInvert;
    } else if (action == "combine") {
      out.brush_action = BA::kCombine;
    } else if (action == "drop") {
      out.brush_action = BA::kDrop;
    } else {
      error = "unknown brush action '" + action + "'";
      return false;
    }
    std::string token;
    bool op_given = false;
    while (in >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) {
        error = "expected key=value, got '" + token + "'";
        return false;
      }
      const std::string key = token.substr(0, eq);
      std::string value = token.substr(eq + 1);
      if (key == "q") {
        std::string rest;
        std::getline(in, rest);
        out.request.query = value + rest;
        break;
      }
      if (key == "name") {
        out.brush_name = std::move(value);
      } else if (key == "with") {
        out.brush_with = std::move(value);
      } else if (key == "op") {
        if (value == "and") {
          out.brush_combine_op = core::Brush::CombineOp::kAnd;
        } else if (value == "or") {
          out.brush_combine_op = core::Brush::CombineOp::kOr;
        } else if (value == "andnot") {
          out.brush_combine_op = core::Brush::CombineOp::kAndNot;
        } else {
          error = "bad combine op '" + value + "' (and|or|andnot)";
          return false;
        }
        op_given = true;
      } else {
        error = "bad brush option '" + token + "'";
        return false;
      }
    }
    if (out.brush_name.empty()) {
      error = "brush " + action + " needs name=<brush>";
      return false;
    }
    const bool needs_q =
        out.brush_action == BA::kCreate || out.brush_action == BA::kRefine;
    if (needs_q && out.request.query.empty()) {
      error = "brush " + action + " needs q=<predicate>";
      return false;
    }
    if (!needs_q && !out.request.query.empty()) {
      error = "brush " + action + " takes no q=";
      return false;
    }
    if (out.brush_action == BA::kCombine) {
      if (out.brush_with.empty()) {
        error = "brush combine needs with=<brush>";
        return false;
      }
      if (!op_given) {
        error = "brush combine needs op=and|or|andnot";
        return false;
      }
    } else if (!out.brush_with.empty() || op_given) {
      error = "with=/op= are only for brush combine";
      return false;
    }
    return true;
  }
  if (op == "stats") {
    out.op = WireRequest::Op::kStats;
    return true;
  }
  if (op == "ping") {
    out.op = WireRequest::Op::kPing;
    return true;
  }
  if (op == "quit") {
    out.op = WireRequest::Op::kQuit;
    return true;
  }
  out.op = WireRequest::Op::kQuery;
  Request& r = out.request;
  const auto* kind =
      std::find(std::begin(kRequestOps), std::end(kRequestOps), op);
  if (kind == std::end(kRequestOps)) {
    error = "unknown op '" + op + "'";
    return false;
  }
  r.kind = static_cast<RequestKind>(kind - std::begin(kRequestOps));
  std::string token;
  bool ybins_given = false;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      error = "expected key=value, got '" + token + "'";
      return false;
    }
    const std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (key == "q") {
      // The query runs to the end of the line, spaces included.
      std::string rest;
      std::getline(in, rest);
      r.query = value + rest;
      return true;
    }
    std::size_t n = 0;
    double f = 0.0;
    if (key == "x") {
      r.var_x = std::move(value);
    } else if (key == "brush") {
      r.brush = std::move(value);
    } else if (key == "y") {
      r.var_y = std::move(value);
    } else if (key == "vlo" && parse_double(value, f)) {
      r.view_lo_x = f;
    } else if (key == "vhi" && parse_double(value, f)) {
      r.view_hi_x = f;
    } else if (key == "ylo" && parse_double(value, f)) {
      r.view_lo_y = f;
    } else if (key == "yhi" && parse_double(value, f)) {
      r.view_hi_y = f;
    } else if (key == "exact" && parse_size(value, n)) {
      r.zoom_mode = n != 0 ? core::ZoomMode::kExact : core::ZoomMode::kAuto;
    } else if (key == "t" && parse_size(value, n)) {
      r.timestep = n;
    } else if (key == "bins" && parse_size(value, n)) {
      r.nxbins = n;
      if (!ybins_given) r.nybins = n;  // bins= sets both unless ybins= given
    } else if (key == "ybins" && parse_size(value, n)) {
      r.nybins = n;
      ybins_given = true;
    } else if (key == "adaptive" && parse_size(value, n)) {
      r.binning = n != 0 ? BinningMode::kAdaptive : BinningMode::kUniform;
    } else if (key == "deadline" && parse_size(value, n)) {
      r.deadline_ms = n;
    } else if (key == "pri" && parse_size(value, n) && n < kNumPriorities) {
      r.priority = static_cast<Priority>(n);
    } else if (key == "limit" && parse_size(value, n)) {
      out.ids_limit = n;
    } else {
      error = "bad option '" + token + "'";
      return false;
    }
  }
  return true;
}

std::string format_request_line(const WireRequest& wire) {
  switch (wire.op) {
    case WireRequest::Op::kStats: return "stats";
    case WireRequest::Op::kPing: return "ping";
    case WireRequest::Op::kQuit: return "quit";
    case WireRequest::Op::kHello:
      return "hello v=" + std::to_string(wire.hello_version != 0
                                             ? wire.hello_version
                                             : kProtocolVersion);
    case WireRequest::Op::kBrush: {
      std::string line = "brush ";
      switch (wire.brush_action) {
        case WireRequest::BrushAction::kCreate: line += "create"; break;
        case WireRequest::BrushAction::kRefine: line += "refine"; break;
        case WireRequest::BrushAction::kInvert: line += "invert"; break;
        case WireRequest::BrushAction::kCombine: line += "combine"; break;
        case WireRequest::BrushAction::kDrop: line += "drop"; break;
      }
      line += " name=" + wire.brush_name;
      if (wire.brush_action == WireRequest::BrushAction::kCombine) {
        line += " with=" + wire.brush_with + " op=";
        switch (wire.brush_combine_op) {
          case core::Brush::CombineOp::kAnd: line += "and"; break;
          case core::Brush::CombineOp::kOr: line += "or"; break;
          case core::Brush::CombineOp::kAndNot: line += "andnot"; break;
        }
      }
      if (!wire.request.query.empty()) line += " q=" + wire.request.query;
      return line;
    }
    case WireRequest::Op::kQuery: break;
  }
  const Request& r = wire.request;
  std::ostringstream out;
  out << request_op(r.kind);
  const bool zoom =
      r.kind == RequestKind::kZoom1D || r.kind == RequestKind::kZoom2D;
  out << " t=" << r.timestep;
  if (!r.brush.empty()) out << " brush=" << r.brush;
  if (!r.var_x.empty()) out << " x=" << r.var_x;
  if (!r.var_y.empty()) out << " y=" << r.var_y;
  if (r.kind == RequestKind::kHistogram1D || r.kind == RequestKind::kHistogram2D) {
    out << " bins=" << r.nxbins;
    if (r.kind == RequestKind::kHistogram2D && r.nybins != r.nxbins)
      out << " ybins=" << r.nybins;
    if (r.binning == BinningMode::kAdaptive) out << " adaptive=1";
  }
  if (zoom) {
    out << " bins=" << r.nxbins;
    if (r.kind == RequestKind::kZoom2D && r.nybins != r.nxbins)
      out << " ybins=" << r.nybins;
    out << " vlo=" << format_double(r.view_lo_x)
        << " vhi=" << format_double(r.view_hi_x);
    if (r.kind == RequestKind::kZoom2D)
      out << " ylo=" << format_double(r.view_lo_y)
          << " yhi=" << format_double(r.view_hi_y);
    if (r.zoom_mode == core::ZoomMode::kExact) out << " exact=1";
  }
  if (r.deadline_ms > 0) out << " deadline=" << r.deadline_ms;
  if (r.priority != Priority::kNormal)
    out << " pri=" << static_cast<unsigned>(r.priority);
  if (wire.ids_limit != 16) out << " limit=" << wire.ids_limit;
  if (!r.query.empty()) out << " q=" << r.query;
  return out.str();
}

std::string format_response_line(const Result& result, std::size_t ids_limit) {
  if (result.status != Status::kOk) {
    std::string line = "err ";
    line += status_text(result.status);
    if (!result.error.empty()) line += ": " + result.error;
    return line;
  }
  std::ostringstream out;
  out << "ok count=" << result.count;
  if (result.kind == RequestKind::kIds) {
    out << " ids=";
    const std::size_t n = std::min(result.ids.size(), ids_limit);
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) out << ',';
      out << result.ids[i];
    }
    if (result.ids.size() > n) out << ",...";
  }
  if (result.kind == RequestKind::kHistogram1D ||
      result.kind == RequestKind::kZoom1D)
    out << " bins=" << result.hist1d.counts.size()
        << " nonempty=" << result.hist1d.nonempty_bins()
        << " maxbin=" << result.hist1d.max_count();
  if (result.kind == RequestKind::kHistogram2D ||
      result.kind == RequestKind::kZoom2D)
    out << " nx=" << result.hist2d.nx() << " ny=" << result.hist2d.ny()
        << " nonempty=" << result.hist2d.nonempty_bins()
        << " maxbin=" << result.hist2d.max_count();
  if (result.kind == RequestKind::kZoom1D ||
      result.kind == RequestKind::kZoom2D)
    out << " pyr=" << (result.pyramid ? 1 : 0)
        << " level=" << result.pyramid_level;
  if (result.kind == RequestKind::kSummary)
    out << " min=" << result.summary.min << " max=" << result.summary.max
        << " mean=" << result.summary.mean << " stddev=" << result.summary.stddev;
  if (result.brush_epoch > 0) out << " epoch=" << result.brush_epoch;
  out << " src=" << (result.served == Served::kCached ? "cache" : "exec");
  out << " exec_us="
      << static_cast<std::uint64_t>(result.exec_seconds * 1e6);
  return out.str();
}

std::string format_stats_line(const ServiceStats& s) {
  std::ostringstream out;
  out << "ok submitted=" << s.submitted << " completed=" << s.completed
      << " executed=" << s.executed << " coalesced=" << s.coalesce_hits
      << " cached=" << s.result_cache_hits << " failed=" << s.failed
      << " rejected=" << (s.rejected_queue + s.rejected_budget)
      << " shed=" << s.rejected_shed
      << " deadline_expired=" << s.deadline_expired
      << " queue=" << s.queue_depth << " peak_queue=" << s.peak_queue_depth
      << " sessions=" << s.open_sessions
      << " integrity_verified=" << s.integrity_verified
      << " integrity_failures=" << s.integrity_failures
      << " integrity_demotions=" << s.integrity_demotions
      << " integrity_unverified=" << s.integrity_unverified
      << " range_probes=" << s.range_probes
      << " range_scans=" << s.range_scans
      << " probe_words=" << s.probe_words << " scan_rows=" << s.scan_rows
      << " probe_segments=" << s.probe_segments
      << " p50_us=" << static_cast<std::uint64_t>(s.p50_seconds * 1e6)
      << " p95_us=" << static_cast<std::uint64_t>(s.p95_seconds * 1e6)
      << " p99_us=" << static_cast<std::uint64_t>(s.p99_seconds * 1e6);
  if (s.pyramid_served + s.pyramid_fallback > 0)
    out << " pyr_served=" << s.pyramid_served
        << " pyr_fallback=" << s.pyramid_fallback;
  if (s.brush_creates + s.brush_edits + s.brush_queries > 0)
    out << " brush_count=" << s.brush_count
        << " brush_creates=" << s.brush_creates
        << " brush_edits=" << s.brush_edits
        << " brush_drops=" << s.brush_drops
        << " brush_queries=" << s.brush_queries
        << " brush_delta=" << s.brush_delta_evals
        << " brush_full=" << s.brush_full_evals
        << " brush_bytes=" << s.brush_bytes
        << " brush_stale=" << s.brush_stale_hits;
  return out.str();
}

std::string format_brush_response_line(const BrushOutcome& outcome) {
  if (outcome.status != Status::kOk) {
    std::string line = "err ";
    line += status_text(outcome.status);
    if (!outcome.error.empty()) line += ": " + outcome.error;
    return line;
  }
  std::ostringstream out;
  out << "ok brush=" << outcome.name << " epoch=" << outcome.epoch
      << " bytes=" << outcome.resident_bytes
      << " brushes=" << outcome.session_brushes;
  return out.str();
}

bool parse_response_line(const std::string& line, std::string& body) {
  if (line.rfind("ok", 0) == 0) {
    body = line.size() > 3 ? line.substr(3) : std::string();
    return true;
  }
  body = line.rfind("err ", 0) == 0 ? line.substr(4) : line;
  return false;
}

}  // namespace qdv::svc
