#include "svc/query_service.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/selection.hpp"
#include "io/memory_budget.hpp"
#include "parallel/thread_pool.hpp"
#include "svc/protocol.hpp"

namespace qdv::svc {

namespace {

using Clock = std::chrono::steady_clock;
using SessionId = QueryService::SessionId;

// Fixed service tunables. Result-cache entries are capped so an unlimited
// byte budget cannot accrete distinct results without bound; payloads
// above the byte cap are not cached at all (caching copies the payload
// once, which a full-table id dump is not worth — in-flight coalescing
// still dedupes concurrent duplicates of any size).
constexpr std::size_t kMaxCachedResults = 1024;
constexpr std::uint64_t kMaxCachedResultBytes = 1 << 20;
// Completed-request latency samples retained for the percentiles.
constexpr std::size_t kLatencyCapacity = 1 << 14;
// Backoff hint carried by kRetryLater (load-shed) rejections.
constexpr std::uint64_t kRetryAfterMs = 50;

/// Saturating a + b and a * b. Admission estimates multiply wire-supplied
/// bin counts; a wrapped estimate would slip a huge request under a finite
/// session budget.
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  return __builtin_add_overflow(a, b, &r) ? ~std::uint64_t{0} : r;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  return __builtin_mul_overflow(a, b, &r) ? ~std::uint64_t{0} : r;
}

/// Response bytes for @p words 8-byte payload words plus a fixed header.
std::uint64_t payload_estimate(std::uint64_t words) {
  return sat_add(sat_mul(words, 8), 64);
}

double seconds_since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

bool is_zoom(RequestKind kind) {
  return kind == RequestKind::kZoom1D || kind == RequestKind::kZoom2D;
}

/// Response-payload bytes of a completed @p r (accounting): one 8-byte word
/// per count, id, histogram count and bin edge; five for a summary.
std::uint64_t payload_bytes(const Result& r) {
  switch (r.kind) {
    case RequestKind::kCount:
      return 8;
    case RequestKind::kIds:
      return r.ids.size() * 8;
    case RequestKind::kHistogram1D:
    case RequestKind::kZoom1D:
      return (r.hist1d.counts.size() + r.hist1d.bins.edges().size()) * 8;
    case RequestKind::kHistogram2D:
    case RequestKind::kZoom2D:
      return (r.hist2d.counts.size() + r.hist2d.xbins.edges().size() +
              r.hist2d.ybins.edges().size()) * 8;
    case RequestKind::kSummary:
      return 5 * 8;
  }
  return 0;
}

/// A brush pinned at one snapshot, answering through the same calls as a
/// core::Selection so one switch serves both kinds of flight.
struct BrushAt {
  core::Brush& brush;
  const core::Brush::Snapshot& snap;

  std::uint64_t count(std::size_t t) const { return brush.count(snap, t); }
  std::vector<std::uint64_t> ids(std::size_t t) const {
    return brush.ids(snap, t);
  }
  Histogram1D histogram1d(std::size_t t, const std::string& v, std::size_t n,
                          BinningMode m) const {
    return brush.histogram1d(snap, t, v, n, m);
  }
  Histogram2D histogram2d(std::size_t t, const std::string& x,
                          const std::string& y, std::size_t nx, std::size_t ny,
                          BinningMode m) const {
    return brush.histogram2d(snap, t, x, y, nx, ny, m);
  }
  core::SummaryStats summary(std::size_t t, const std::string& v) const {
    return brush.summary(snap, t, v);
  }
};

/// The derived quantity @p req asks of @p source (a core::Selection or a
/// BrushAt) — every non-zoom kind, for plain and brush flights alike.
template <class Source>
void answer(const Source& source, const Request& req, Result& r) {
  const std::size_t t = req.timestep;
  switch (req.kind) {
    case RequestKind::kCount:
      r.count = source.count(t);
      break;
    case RequestKind::kIds:
      r.ids = source.ids(t);
      r.count = r.ids.size();
      break;
    case RequestKind::kHistogram1D:
      r.hist1d = source.histogram1d(t, req.var_x, req.nxbins, req.binning);
      r.count = r.hist1d.total();
      break;
    case RequestKind::kHistogram2D:
      r.hist2d = source.histogram2d(t, req.var_x, req.var_y, req.nxbins,
                                    req.nybins, req.binning);
      r.count = r.hist2d.total();
      break;
    case RequestKind::kSummary:
      r.summary = source.summary(t, req.var_x);
      r.count = r.summary.count;
      break;
    case RequestKind::kZoom1D:
    case RequestKind::kZoom2D:
      throw std::logic_error("zoom requests are answered by zoom()");
  }
}

/// A viewport histogram through the pyramid tier (or its exact fallback).
/// Zooms only ever run over plain selections: submit rejects brush zooms.
void zoom(const core::Selection& sel, const Request& req, Result& r) {
  if (req.kind == RequestKind::kZoom1D) {
    core::Zoom1DResult z =
        sel.zoom_histogram1d(req.timestep, req.var_x, req.view_lo_x,
                             req.view_hi_x, req.nxbins, req.zoom_mode);
    r.hist1d = std::move(z.hist);
    r.count = r.hist1d.total();
    r.pyramid = z.pyramid;
    r.pyramid_level = z.level;
  } else {
    core::Zoom2DResult z = sel.zoom_histogram2d(
        req.timestep, req.var_x, req.var_y, req.view_lo_x, req.view_hi_x,
        req.view_lo_y, req.view_hi_y, req.nxbins, req.nybins, req.zoom_mode);
    r.hist2d = std::move(z.hist);
    r.count = r.hist2d.total();
    r.pyramid = z.pyramid;
    r.pyramid_level = z.level;
  }
}

/// Brush names travel the wire as bare tokens and become cache-key and
/// stats material, so keep them to a tight charset.
bool valid_brush_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name)
    if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
          c == '-' || c == '.'))
      return false;
  return true;
}

ResultPtr make_rejection(Status status, std::string message) {
  auto r = std::make_shared<Result>();
  r->status = status;
  r->error = std::move(message);
  return r;
}

ResultFuture ready_future(ResultPtr result) {
  std::promise<ResultPtr> promise;
  promise.set_value(std::move(result));
  return promise.get_future().share();
}

BrushOutcome brush_fail(std::string name, Status status, std::string message) {
  BrushOutcome out;
  out.status = status;
  out.error = std::move(message);
  out.name = std::move(name);
  return out;
}

}  // namespace

double sorted_percentile(std::span<const double> sorted_ascending, double q) {
  if (sorted_ascending.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ascending.size() - 1) + 0.5);
  return sorted_ascending[std::min(idx, sorted_ascending.size() - 1)];
}

/// One admitted execution: the unit of single-flight coalescing. The leader
/// request creates it; later requests with the same key attach (their
/// session + submit time recorded for latency/budget accounting) and share
/// the leader's future.
struct Flight {
  std::string key;
  Request request;
  std::shared_ptr<const core::Selection> selection;
  // Brush requests: the brush (kept alive even if dropped mid-queue) and
  // the (epoch, composed) snapshot pinned at submission — evaluation is
  // exact for that epoch no matter how the brush mutates meanwhile.
  std::shared_ptr<core::Brush> brush;
  core::Brush::Snapshot brush_snap;
  std::promise<ResultPtr> promise;
  ResultFuture future;
  // Absolute deadline (leader's submit time + deadline_ms); unset when the
  // request carries no time budget.
  std::optional<Clock::time_point> deadline;

  struct Attach {
    SessionId session = 0;
    Clock::time_point at{};
    std::uint64_t charged_bytes = 0;  // admission estimate held while in flight
  };
  std::vector<Attach> attaches;  // [0] = the leader
};

struct QueryService::Impl {
  Impl(core::Engine e, ServiceConfig c) : engine(std::move(e)), config(c) {}

  core::Engine engine;
  ServiceConfig config;
  std::shared_ptr<io::MemoryBudget> budget;  // the engine's unified budget
  std::size_t max_concurrency = 1;

  struct Session {
    std::string name;
    std::uint64_t budget_bytes = ServiceConfig::kUnlimitedBudget;
    std::uint64_t inflight_bytes = 0;  // admission estimates currently held
    std::uint64_t served_weight = 0;   // executed flights led by this session
    // Named brushes scoped to this session (DESIGN.md §16). brush_charge
    // holds the admission estimate charged per live brush — released on
    // drop and, crucially, when the session closes (a dead socket cannot
    // leak brush budget).
    std::unordered_map<std::string, std::shared_ptr<core::Brush>> brushes;
    std::uint64_t brush_charge = 0;

    /// True when holding @p extra more bytes would exceed a finite budget.
    bool over_budget(std::uint64_t extra) const {
      return budget_bytes != ServiceConfig::kUnlimitedBudget &&
             sat_add(sat_add(inflight_bytes, brush_charge), extra) > budget_bytes;
    }
  };

  mutable std::mutex mutex;
  std::condition_variable idle_cv;
  bool stopping = false;
  SessionId next_session = 1;
  std::unordered_map<SessionId, Session> sessions;

  // Admission queue: per-priority, per-session FIFO lanes. The scheduler
  // serves the strongest non-empty priority class; inside a class it picks
  // the session with the least executed work (deficit fairness), so one
  // flooding client cannot starve its peers at equal priority.
  std::array<std::unordered_map<SessionId, std::deque<std::shared_ptr<Flight>>>,
             kNumPriorities>
      queue;
  std::size_t queued = 0;

  // Single-flight table: every queued or executing flight, by coalesce key.
  std::unordered_map<std::string, std::shared_ptr<Flight>> inflight_by_key;
  std::size_t executing = 0;
  std::size_t active_workers = 0;
  std::uint64_t exec_ordinal = 0;  // dispatch order, exposed as Result::sequence

  // Shared delta-vs-full evaluation counters, aggregated across every brush
  // this service creates (core::Brush increments them lock-free).
  std::shared_ptr<core::Brush::Counters> brush_counters =
      std::make_shared<core::Brush::Counters>();

  // Cumulative counters (the queue_depth/inflight/latency fields of the
  // public struct are derived in stats()).
  ServiceStats counters;
  std::vector<double> latencies;  // ring buffer of completed-request latencies
  std::size_t latency_pos = 0;
  double latency_max = 0.0;

  void record_latency_locked(double s) {
    ++counters.latency_samples;
    latency_max = std::max(latency_max, s);
    if (latencies.size() < kLatencyCapacity) {
      latencies.push_back(s);
    } else if (!latencies.empty()) {
      latencies[latency_pos] = s;
      latency_pos = (latency_pos + 1) % latencies.size();
    }
  }

  /// Admission-time response-size estimate: what a session is charged while
  /// the request is queued/executing. Intentionally pessimistic for kIds
  /// (all rows could match), so id dumps are what a byte budget throttles.
  std::uint64_t estimate_bytes(const Request& r) const {
    switch (r.kind) {
      case RequestKind::kCount:
      case RequestKind::kSummary:
        return 64;
      case RequestKind::kHistogram1D:
      case RequestKind::kZoom1D:
        // nxbins counts + nxbins + 1 edges.
        return payload_estimate(sat_add(sat_mul(r.nxbins, 2), 1));
      case RequestKind::kHistogram2D:
      case RequestKind::kZoom2D:
        // The count grid + both edge arrays.
        return payload_estimate(
            sat_add(sat_mul(r.nxbins, r.nybins),
                    sat_add(sat_add(r.nxbins, r.nybins), 2)));
      case RequestKind::kIds:
        return payload_estimate(engine.dataset().table(r.timestep).num_rows());
    }
    return 64;
  }

  /// Admission charge held per live brush: one materialized bitvector's
  /// worth, so brush state competes with in-flight requests under the same
  /// session byte ceiling.
  std::uint64_t brush_estimate() const {
    return engine.num_timesteps() == 0
               ? 64
               : engine.dataset().table(0).num_rows() / 8 + 64;
  }

  /// The lookup every brush verb shares (caller holds the mutex): brush
  /// @p lookup of @p session, or nullptr with @p fail set to the typed
  /// error, reported under the verb's target @p name.
  std::shared_ptr<core::Brush> find_brush_locked(SessionId session,
                                                 const std::string& name,
                                                 const std::string& lookup,
                                                 BrushOutcome& fail) const {
    const auto sit = sessions.find(session);
    if (sit == sessions.end()) {
      fail = brush_fail(name, Status::kError, "unknown session");
      return nullptr;
    }
    const auto bit = sit->second.brushes.find(lookup);
    if (bit == sit->second.brushes.end()) {
      fail = brush_fail(name, Status::kError, "unknown brush '" + lookup + "'");
      return nullptr;
    }
    return bit->second;
  }

  /// Shared body of refine/invert/combine: look up brush @p name (and the
  /// operand @p other, when given) under the lock, then apply @p edit
  /// outside it — edits only record a delta and bump the epoch, and
  /// concurrent queries keep evaluating their pinned epochs.
  template <typename Edit>
  BrushOutcome edit_brush(SessionId session, const std::string& name,
                          const std::string* other, Edit&& edit) {
    BrushOutcome out;
    out.name = name;
    std::shared_ptr<core::Brush> brush;
    std::shared_ptr<core::Brush> operand;
    {
      std::lock_guard<std::mutex> lock(mutex);
      brush = find_brush_locked(session, name, name, out);
      if (!brush) return out;
      if (other) {
        operand = find_brush_locked(session, name, *other, out);
        if (!operand) return out;
      }
      out.session_brushes = sessions.at(session).brushes.size();
    }
    try {
      out.epoch = edit(*brush, operand.get());
    } catch (const std::exception& e) {
      return brush_fail(name, Status::kError, e.what());
    }
    out.resident_bytes = brush->resident_bytes();
    std::lock_guard<std::mutex> lock(mutex);
    ++counters.brush_edits;
    return out;
  }

  /// Highest-priority, fairness-ordered queued flight; nullptr when empty.
  std::shared_ptr<Flight> pop_locked() {
    for (auto& bucket : queue) {
      const SessionId* best = nullptr;
      std::uint64_t best_weight = 0;
      for (const auto& [sid, lane] : bucket) {
        if (lane.empty()) continue;
        const auto it = sessions.find(sid);
        const std::uint64_t weight =
            it == sessions.end() ? 0 : it->second.served_weight;
        if (best == nullptr || weight < best_weight ||
            (weight == best_weight && sid < *best)) {
          best = &sid;
          best_weight = weight;
        }
      }
      if (best == nullptr) continue;
      auto lane = bucket.find(*best);
      std::shared_ptr<Flight> flight = std::move(lane->second.front());
      lane->second.pop_front();
      if (lane->second.empty()) bucket.erase(lane);
      --queued;
      return flight;
    }
    return nullptr;
  }

  std::shared_ptr<Result> run_flight(const Flight& flight) {
    const Request& req = flight.request;
    auto r = std::make_shared<Result>();
    r->kind = req.kind;
    const Clock::time_point start = Clock::now();

    try {
      if (flight.brush) {
        answer(BrushAt{*flight.brush, flight.brush_snap}, req, *r);
        r->brush_epoch = flight.brush_snap.epoch;
      } else if (is_zoom(req.kind)) {
        zoom(*flight.selection, req, *r);
      } else {
        answer(*flight.selection, req, *r);
      }
    } catch (const std::exception& e) {
      r->status = Status::kError;
      r->error = e.what();
    }
    if (r->status == Status::kOk) r->payload_bytes = payload_bytes(*r);
    r->exec_seconds = seconds_since(start, Clock::now());
    return r;
  }

  /// Drain loop of one dispatch slot: claim queued flights until none are
  /// left, then retire. Runs on the shared pool; nested parallel_for inside
  /// an evaluation is safe (the pool is nested-reentrant).
  void worker() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      std::shared_ptr<Flight> flight = pop_locked();
      if (!flight) break;
      ++executing;
      const std::uint64_t ordinal = ++exec_ordinal;
      if (const auto it = sessions.find(flight->attaches.front().session);
          it != sessions.end())
        ++it->second.served_weight;
      lock.unlock();

      // Dispatch-time deadline check: work whose requester has already
      // given up is not worth an evaluation.
      std::shared_ptr<Result> result;
      if (flight->deadline && Clock::now() > *flight->deadline) {
        result = std::make_shared<Result>();
        result->kind = flight->request.kind;
        result->status = Status::kDeadlineExpired;
        result->error = "deadline expired before dispatch";
        std::lock_guard<std::mutex> guard(mutex);
        ++counters.deadline_expired;
      } else {
        result = run_flight(*flight);
      }
      result->sequence = ordinal;
      // Exact-mode zooms are deliberately never cached: a client asks for
      // exact=1 to measure or verify the kernel path against the pyramid
      // tier, so every one must actually execute.
      const bool exact_zoom = is_zoom(flight->request.kind) &&
                              flight->request.zoom_mode == core::ZoomMode::kExact;
      if (config.cache_results && !exact_zoom && result->status == Status::kOk &&
          result->payload_bytes <= kMaxCachedResultBytes) {
        // Cache a copy marked kCached: later identical requests are served
        // from the budget (same LRU as columns/segments/bitvectors), while
        // the live flight's requesters see the kExecuted original.
        auto cached = std::make_shared<Result>(*result);
        cached->served = Served::kCached;
        cached->exec_seconds = 0.0;
        cached->sequence = 0;
        budget->put(flight->key, std::move(cached),
                    std::max<std::uint64_t>(result->payload_bytes, 64),
                    io::ResidentClass::kResult);
      }

      // Bookkeeping BEFORE fulfilling the promise: once a requester's
      // get() returns, stats() already reflects its request. Erasing the
      // key first also freezes the attach list — nothing can join a flight
      // that is no longer in the single-flight table.
      lock.lock();
      inflight_by_key.erase(flight->key);
      --executing;
      ++counters.executed;
      if (is_zoom(flight->request.kind) && result->status == Status::kOk) {
        if (result->pyramid)
          ++counters.pyramid_served;
        else
          ++counters.pyramid_fallback;
      }
      const Clock::time_point now = Clock::now();
      for (const Flight::Attach& attach : flight->attaches) {
        ++counters.completed;
        if (flight->brush) ++counters.brush_queries;
        if (result->status != Status::kOk) ++counters.failed;
        counters.bytes_served += result->payload_bytes;
        record_latency_locked(seconds_since(attach.at, now));
        if (const auto it = sessions.find(attach.session); it != sessions.end())
          it->second.inflight_bytes -=
              std::min(it->second.inflight_bytes, attach.charged_bytes);
      }
      if (queued == 0 && executing == 0) idle_cv.notify_all();
      lock.unlock();
      flight->promise.set_value(result);
      lock.lock();
    }
    --active_workers;
    if (queued == 0 && executing == 0 && active_workers == 0)
      idle_cv.notify_all();
  }
};

QueryService::QueryService(core::Engine engine, ServiceConfig config)
    : impl_(std::make_shared<Impl>(std::move(engine), config)) {
  impl_->budget = impl_->engine.dataset().memory_budget();
  // Entry-cap the result class (mirroring the engine's bitvector cap): an
  // unlimited byte budget must not let distinct results accrete forever.
  if (config.cache_results &&
      impl_->budget->class_entry_cap(io::ResidentClass::kResult) ==
          io::MemoryBudget::kNoEntryCap)
    impl_->budget->set_class_entry_cap(io::ResidentClass::kResult,
                                       kMaxCachedResults);
  impl_->max_concurrency = config.max_concurrency > 0
                               ? config.max_concurrency
                               : par::ThreadPool::global().size();
  impl_->latencies.reserve(std::min<std::size_t>(kLatencyCapacity, 4096));
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;  // queued work still completes; new work bounces
  }
  drain();
}

QueryService::SessionId QueryService::open_session(std::string name,
                                                   std::uint64_t budget_bytes) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const SessionId id = impl_->next_session++;
  Impl::Session& s = impl_->sessions[id];
  s.name = std::move(name);
  s.budget_bytes = budget_bytes == ServiceConfig::kUnlimitedBudget
                       ? impl_->config.session_budget_bytes
                       : budget_bytes;
  return id;
}

void QueryService::close_session(SessionId session) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->sessions.erase(session);  // queued flights finish; accounting via find()
}

ResultFuture QueryService::submit(SessionId session, Request request) {
  const Clock::time_point now = Clock::now();
  const auto impl = impl_;

  // Parse/canonicalize/plan (shared, cached) and estimate the response size
  // before taking the service lock — both only touch their own locks.
  std::shared_ptr<const core::Selection> selection;
  std::shared_ptr<core::Brush> brush;
  core::Brush::Snapshot brush_snap;
  std::string key;
  std::uint64_t estimate = 0;
  try {
    if (request.timestep >= impl->engine.num_timesteps())
      throw std::invalid_argument("timestep out of range");
    if (request.kind != RequestKind::kCount && request.kind != RequestKind::kIds) {
      if (request.var_x.empty())
        throw std::invalid_argument("request needs a variable");
      if ((request.kind == RequestKind::kHistogram2D ||
           request.kind == RequestKind::kZoom2D) &&
          request.var_y.empty())
        throw std::invalid_argument("histogram2d needs a second variable");
      if (request.kind != RequestKind::kSummary &&
          (request.nxbins == 0 || request.nybins == 0))
        throw std::invalid_argument("zero histogram bins");
    }
    if (is_zoom(request.kind)) {
      if (!(request.view_hi_x > request.view_lo_x))
        throw std::invalid_argument("zoom viewport needs view_hi > view_lo");
      if (request.kind == RequestKind::kZoom2D &&
          !(request.view_hi_y > request.view_lo_y))
        throw std::invalid_argument("zoom viewport needs view_hi > view_lo");
    }
    if (!request.brush.empty()) {
      if (is_zoom(request.kind))
        throw std::invalid_argument(
            "zoom requests cannot target a brush (the pyramid tier serves "
            "plain marginal selections)");
      if (!request.query.empty())
        throw std::invalid_argument(
            "brush requests take no q= (edit the brush instead)");
      {
        std::lock_guard<std::mutex> resolve(impl->mutex);
        const auto sit = impl->sessions.find(session);
        if (sit == impl->sessions.end())
          throw std::invalid_argument("unknown session");
        const auto bit = sit->second.brushes.find(request.brush);
        if (bit == sit->second.brushes.end())
          throw std::invalid_argument("unknown brush '" + request.brush +
                                      "'");
        brush = bit->second;
      }
      // Pin (epoch, composed predicate) now: the flight evaluates exactly
      // this epoch no matter how the brush mutates while the request is
      // queued. No Selection is built — pinning never plans.
      brush_snap = brush->snapshot();
    } else {
      selection = impl->engine.select_shared(request.query);
    }
    key = "svc|";
    key += request_op(request.kind);
    key += "|t#" + std::to_string(request.timestep);
    if (request.kind != RequestKind::kCount && request.kind != RequestKind::kIds) {
      // '|' between every variable-length field: variable names may
      // themselves contain letters like 'x', so bare joins could collide.
      key += '|' + request.var_x;
      if (request.kind == RequestKind::kHistogram2D ||
          request.kind == RequestKind::kZoom2D)
        key += '|' + request.var_y;
      if (request.kind != RequestKind::kSummary && !is_zoom(request.kind)) {
        key += '#' + std::to_string(request.nxbins);
        if (request.kind == RequestKind::kHistogram2D)
          key += '#' + std::to_string(request.nybins);
        key += request.binning == BinningMode::kAdaptive ? 'a' : 'u';
      }
    }
    if (is_zoom(request.kind)) {
      // Level-tagged zoom keys: a servable request's answer depends only on
      // the snapped (level, bin window) — not on the raw viewport or nbins —
      // so two pans that snap identically share one cache entry. zoom_plan*
      // recomputes exactly the geometry the serve will use, so the key can
      // never disagree with the result. Unservable (or exact-mode) requests
      // key on the raw viewport; '#e' keeps the forced-exact universe
      // disjoint from the auto one.
      std::optional<core::ZoomPlan> plan;
      if (request.zoom_mode == core::ZoomMode::kAuto) {
        plan = request.kind == RequestKind::kZoom1D
                   ? selection->zoom_plan1d(request.timestep, request.var_x,
                                            request.view_lo_x, request.view_hi_x,
                                            request.nxbins)
                   : selection->zoom_plan2d(request.timestep, request.var_x,
                                            request.var_y, request.view_lo_x,
                                            request.view_hi_x, request.view_lo_y,
                                            request.view_hi_y, request.nxbins,
                                            request.nybins);
      }
      if (plan) {
        key += "#L" + std::to_string(plan->level) + ':' +
               std::to_string(plan->xlo) + '-' + std::to_string(plan->xhi);
        if (request.kind == RequestKind::kZoom2D)
          key += ':' + std::to_string(plan->ylo) + '-' +
                 std::to_string(plan->yhi);
        if (plan->pair) key += 'p';
      } else {
        key += '#' + format_double(request.view_lo_x) + ':' +
               format_double(request.view_hi_x);
        if (request.kind == RequestKind::kZoom2D)
          key += '#' + format_double(request.view_lo_y) + ':' +
                 format_double(request.view_hi_y);
        key += '#' + std::to_string(request.nxbins);
        if (request.kind == RequestKind::kZoom2D)
          key += '#' + std::to_string(request.nybins);
        if (request.zoom_mode == core::ZoomMode::kExact) key += "#e";
      }
    }
    // Brush keys carry (id, epoch): the id makes the namespace
    // session-scoped and collision-free across drops/recreates, the epoch
    // makes a mutated brush structurally unable to hit its parent's cached
    // result — together they identify the answer completely, so no
    // composed cache_key (which would force a plan) is appended.
    if (brush)
      key += "|brush#" + std::to_string(brush->id()) + "@e" +
             std::to_string(brush_snap.epoch);
    else
      key += '|' + selection->cache_key();
    estimate = impl->estimate_bytes(request);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(impl->mutex);
    ++impl->counters.submitted;
    ++impl->counters.completed;
    ++impl->counters.failed;
    return ready_future(make_rejection(Status::kError, e.what()));
  }

  std::unique_lock<std::mutex> lock(impl->mutex);
  ++impl->counters.submitted;
  if (impl->stopping) {
    ++impl->counters.rejected_shutdown;
    return ready_future(make_rejection(Status::kShutdown, "service stopping"));
  }
  const auto sit = impl->sessions.find(session);
  if (sit == impl->sessions.end()) {
    ++impl->counters.completed;
    ++impl->counters.failed;
    return ready_future(make_rejection(Status::kError, "unknown session"));
  }

  // Completed-result reuse: identical requests are answered from the
  // budget-resident cache without touching the queue.
  if (impl->config.cache_results) {
    if (auto cached = impl->budget->get(key, io::ResidentClass::kResult)) {
      auto result = std::static_pointer_cast<const Result>(cached);
      if (brush && result->brush_epoch != brush_snap.epoch) {
        // Tripwire (asserted zero in CI): the epoch-tagged key handed back
        // a result computed at a different epoch. Count it and fall through
        // to a fresh execution rather than serve a stale answer.
        ++impl->counters.brush_stale_hits;
      } else {
        ++impl->counters.result_cache_hits;
        ++impl->counters.completed;
        if (brush) ++impl->counters.brush_queries;
        impl->record_latency_locked(seconds_since(now, Clock::now()));
        impl->counters.bytes_served += result->payload_bytes;
        return ready_future(std::move(result));
      }
    }
  }

  // In-flight coalescing: attach to a queued/executing flight of this key.
  if (const auto it = impl->inflight_by_key.find(key);
      it != impl->inflight_by_key.end()) {
    ++impl->counters.coalesce_hits;
    it->second->attaches.push_back({session, now, 0});
    return it->second->future;
  }

  // Load shedding fires below the hard queue cap: kRetryLater tells a
  // well-behaved client to back off and come back, where kRejectedQueue
  // means the request was dropped outright.
  if (impl->config.shed_queue_depth > 0 &&
      impl->queued >= impl->config.shed_queue_depth) {
    ++impl->counters.rejected_shed;
    return ready_future(make_rejection(
        Status::kRetryLater,
        "shedding load; retry after " +
            std::to_string(kRetryAfterMs) + " ms"));
  }
  if (impl->queued >= impl->config.max_queue) {
    ++impl->counters.rejected_queue;
    return ready_future(
        make_rejection(Status::kRejectedQueue, "admission queue full"));
  }
  Impl::Session& sess = sit->second;
  if (sess.over_budget(estimate)) {
    ++impl->counters.rejected_budget;
    return ready_future(
        make_rejection(Status::kRejectedBudget, "session byte budget exhausted"));
  }
  sess.inflight_bytes = sat_add(sess.inflight_bytes, estimate);

  auto flight = std::make_shared<Flight>();
  flight->key = std::move(key);
  flight->request = std::move(request);
  flight->selection = std::move(selection);
  flight->brush = std::move(brush);
  flight->brush_snap = std::move(brush_snap);
  flight->future = flight->promise.get_future().share();
  flight->attaches.push_back({session, now, estimate});
  if (flight->request.deadline_ms > 0)
    flight->deadline =
        now + std::chrono::milliseconds(flight->request.deadline_ms);
  const auto priority = static_cast<unsigned>(flight->request.priority);
  impl->queue[priority < kNumPriorities ? priority : kNumPriorities - 1][session]
      .push_back(flight);
  ++impl->queued;
  impl->counters.peak_queue_depth =
      std::max<std::uint64_t>(impl->counters.peak_queue_depth, impl->queued);
  impl->inflight_by_key.emplace(flight->key, flight);
  ResultFuture future = flight->future;

  const bool spawn = impl->active_workers < impl->max_concurrency;
  if (spawn) ++impl->active_workers;
  lock.unlock();
  if (spawn)
    par::ThreadPool::global().submit([impl] { impl->worker(); },
                                     par::TaskPriority::kHigh);
  return future;
}

ResultPtr QueryService::execute(SessionId session, Request request) {
  return submit(session, std::move(request)).get();
}

BrushOutcome QueryService::brush_create(SessionId session,
                                        const std::string& name,
                                        const std::string& query_text) {
  const auto impl = impl_;
  if (!valid_brush_name(name))
    return brush_fail(name, Status::kError,
                      "bad brush name '" + name +
                          "' (need 1-64 chars of [A-Za-z0-9_.-])");
  if (query_text.empty())
    return brush_fail(name, Status::kError, "brush create needs q=<predicate>");
  std::shared_ptr<core::Brush> brush;
  try {
    // Parse/canonicalize/plan outside the service lock; the Selection is
    // copied into the brush, which owns its composed chain from here on.
    auto sel = impl->engine.select_shared(query_text);
    brush = std::make_shared<core::Brush>(*sel, impl->brush_counters);
  } catch (const std::exception& e) {
    return brush_fail(name, Status::kError, e.what());
  }
  const std::uint64_t charge = impl->brush_estimate();
  std::lock_guard<std::mutex> lock(impl->mutex);
  const auto sit = impl->sessions.find(session);
  if (sit == impl->sessions.end())
    return brush_fail(name, Status::kError, "unknown session");
  Impl::Session& sess = sit->second;
  if (sess.brushes.count(name) != 0)
    return brush_fail(name, Status::kError,
                      "brush '" + name + "' already exists");
  if (sess.brushes.size() >= impl->config.max_brushes_per_session)
    return brush_fail(
        name, Status::kError,
        "session brush cap reached (" +
            std::to_string(impl->config.max_brushes_per_session) + ")");
  if (sess.over_budget(charge))
    return brush_fail(name, Status::kRejectedBudget,
                      "session byte budget exhausted (brush state counts "
                      "against it)");
  sess.brushes.emplace(name, brush);
  sess.brush_charge += charge;
  ++impl->counters.brush_creates;
  BrushOutcome out;
  out.name = name;
  out.epoch = brush->epoch();
  out.resident_bytes = brush->resident_bytes();
  out.session_brushes = sess.brushes.size();
  return out;
}

BrushOutcome QueryService::brush_refine(SessionId session,
                                        const std::string& name,
                                        const std::string& query_text) {
  if (query_text.empty())
    return brush_fail(name, Status::kError, "brush refine needs q=<predicate>");
  QueryPtr extra;
  try {
    extra = parse_query(query_text);
  } catch (const std::exception& e) {
    return brush_fail(name, Status::kError, e.what());
  }
  return impl_->edit_brush(session, name, nullptr,
                           [&](core::Brush& brush, core::Brush*) {
                             return brush.refine(std::move(extra));
                           });
}

BrushOutcome QueryService::brush_invert(SessionId session,
                                        const std::string& name) {
  return impl_->edit_brush(
      session, name, nullptr,
      [](core::Brush& brush, core::Brush*) { return brush.invert(); });
}

BrushOutcome QueryService::brush_combine(SessionId session,
                                         const std::string& name,
                                         const std::string& other,
                                         core::Brush::CombineOp op) {
  return impl_->edit_brush(session, name, &other,
                           [op](core::Brush& brush, core::Brush* operand) {
                             return brush.combine(*operand, op);
                           });
}

BrushOutcome QueryService::brush_drop(SessionId session,
                                      const std::string& name) {
  const auto impl = impl_;
  std::shared_ptr<core::Brush> brush;  // destroyed outside the lock
  BrushOutcome out;
  out.name = name;
  std::lock_guard<std::mutex> lock(impl->mutex);
  brush = impl->find_brush_locked(session, name, name, out);
  if (!brush) return out;
  Impl::Session& sess = impl->sessions.at(session);
  sess.brushes.erase(name);
  const std::uint64_t charge = impl->brush_estimate();
  sess.brush_charge -= std::min(sess.brush_charge, charge);
  ++impl->counters.brush_drops;
  out.epoch = brush->epoch();
  out.session_brushes = sess.brushes.size();
  return out;
}

void QueryService::drain() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->idle_cv.wait(lock, [this] {
    return impl_->queued == 0 && impl_->executing == 0 &&
           impl_->active_workers == 0;
  });
}

ServiceStats QueryService::stats() const {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  ServiceStats s = impl_->counters;
  s.queue_depth = impl_->queued;
  s.inflight = impl_->executing;
  s.open_sessions = impl_->sessions.size();
  for (const auto& [sid, sess] : impl_->sessions) {
    s.brush_count += sess.brushes.size();
    for (const auto& [bname, b] : sess.brushes)
      s.brush_bytes += b->resident_bytes();
  }
  s.brush_delta_evals =
      impl_->brush_counters->delta_evals.load(std::memory_order_relaxed);
  s.brush_full_evals =
      impl_->brush_counters->full_evals.load(std::memory_order_relaxed);
  s.max_seconds = impl_->latency_max;
  const io::IntegrityStats& integ = *impl_->engine.dataset().integrity_stats();
  s.integrity_verified = integ.verified.load(std::memory_order_relaxed);
  s.integrity_failures = integ.failures.load(std::memory_order_relaxed);
  s.integrity_demotions = integ.demotions.load(std::memory_order_relaxed);
  s.integrity_unverified = integ.unverified.load(std::memory_order_relaxed);
  const io::RangeStats& ranges = *impl_->engine.dataset().range_stats();
  s.range_probes = ranges.probes.load(std::memory_order_relaxed);
  s.range_scans = ranges.scans.load(std::memory_order_relaxed);
  s.probe_words = ranges.probe_words.load(std::memory_order_relaxed);
  s.scan_rows = ranges.scan_rows.load(std::memory_order_relaxed);
  s.probe_segments = ranges.probe_segments.load(std::memory_order_relaxed);
  std::vector<double> sorted = impl_->latencies;
  lock.unlock();
  std::sort(sorted.begin(), sorted.end());
  s.p50_seconds = sorted_percentile(sorted, 0.50);
  s.p95_seconds = sorted_percentile(sorted, 0.95);
  s.p99_seconds = sorted_percentile(sorted, 0.99);
  return s;
}

const core::Engine& QueryService::engine() const { return impl_->engine; }

}  // namespace qdv::svc
