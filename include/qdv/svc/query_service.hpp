// QueryService: the concurrent query-service layer (DESIGN.md Section 11).
// One shared core::Engine serves many client sessions: requests pass an
// admission/priority queue executed on the persistent par::ThreadPool,
// identical in-flight requests coalesce onto a single execution
// (single-flight per canonical plan cache key), completed results are
// cached in the engine's unified io::MemoryBudget, and per-client fairness
// and byte budgets bound what any one session can queue.
//
// Ownership: QueryService is a handle over shared state co-owned by every
// in-flight pool task, so workers can never outlive the data they touch;
// the destructor drains the queue before releasing the handle.
// Thread-safety: every method is safe to call concurrently from any
// thread. Do not destroy the service from inside a pool task it scheduled
// (the drain would wait on itself).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bitmap/histogram.hpp"
#include "core/brush.hpp"
#include "core/engine.hpp"
#include "core/selection.hpp"
#include "core/statistics.hpp"

namespace qdv::svc {

/// Admission classes, strongest first: a queued interactive request always
/// dispatches before queued normal/batch work.
enum class Priority : unsigned {
  kInteractive = 0,
  kNormal = 1,
  kBatch = 2,
};

inline constexpr std::size_t kNumPriorities = 3;

/// What a request computes. All kinds are reads; they differ only in the
/// derived quantity gathered after the (shared, cached) selection evaluates.
enum class RequestKind {
  kCount,        // matching-record count
  kIds,          // matching identifier values, row-ascending
  kHistogram1D,  // conditional 1D histogram of var_x
  kHistogram2D,  // conditional 2D histogram of var_x x var_y
  kSummary,      // summary statistics of var_x
  kZoom1D,       // viewport histogram of var_x (pyramid tier, DESIGN.md §14)
  kZoom2D,       // viewport histogram of var_x x var_y
};

struct Request {
  RequestKind kind = RequestKind::kCount;
  std::string query;        // query text; empty = all records
  std::size_t timestep = 0;
  Priority priority = Priority::kNormal;

  /// Evaluate against this session's named brush (DESIGN.md §16) instead
  /// of `query` — the two are mutually exclusive, and zoom kinds reject
  /// brushes (the pyramid tier serves unconditioned marginal shapes). The
  /// request pins the brush's (epoch, composed selection) at submission,
  /// and its result-cache key carries that epoch: an edit racing the query
  /// can never produce a torn or stale answer.
  std::string brush;

  std::string var_x;        // histogram / summary / zoom variable
  std::string var_y;        // second histogram2d / zoom2d variable
  std::size_t nxbins = 64;
  std::size_t nybins = 64;
  BinningMode binning = BinningMode::kUniform;

  // kZoom1D/kZoom2D viewport (view_hi must exceed view_lo per axis). Under
  // kAuto, servable requests snap to pyramid-level bin edges and carry
  // level-tagged cache keys; kExact forces the kernel path (the wire's
  // exact=1, for clients that verify or time the pyramid tier against it)
  // and is never served from or stored in the result cache.
  double view_lo_x = 0.0;
  double view_hi_x = 0.0;
  double view_lo_y = 0.0;
  double view_hi_y = 0.0;
  core::ZoomMode zoom_mode = core::ZoomMode::kAuto;

  /// Time budget from submission, milliseconds; 0 = none. The deadline
  /// propagates through the queue: a flight whose deadline passes before
  /// dispatch resolves kDeadlineExpired instead of wasting an evaluation (a
  /// result already computed is still returned). Coalesced attaches keep
  /// the leader's deadline.
  std::uint64_t deadline_ms = 0;
};

enum class Status {
  kOk,
  kError,            // evaluation threw (message in Result::error)
  kRejectedQueue,    // admission queue at max_queue
  kRejectedBudget,   // session in-flight byte budget exhausted
  kShutdown,         // service stopping
  kRetryLater,       // load-shed at shed_queue_depth; retry after the hint
  kDeadlineExpired,  // request deadline passed before an answer was produced
};

/// How a completed request's Result was produced. A request coalesced onto
/// an in-flight execution receives the executing flight's Result (served ==
/// kExecuted; ServiceStats::coalesce_hits counts the attaches).
enum class Served {
  kExecuted,   // an evaluation ran for this Result
  kCached,     // answered from the budget-resident result cache
};

/// The outcome of one request. Shared immutable payload: every coalesced
/// requester receives the same Result object.
struct Result {
  Status status = Status::kOk;
  std::string error;
  RequestKind kind = RequestKind::kCount;  // what was computed

  std::uint64_t count = 0;            // kCount (and total of ids)
  std::vector<std::uint64_t> ids;     // kIds
  Histogram1D hist1d;                 // kHistogram1D / kZoom1D
  Histogram2D hist2d;                 // kHistogram2D / kZoom2D
  core::SummaryStats summary;         // kSummary
  bool pyramid = false;               // zoom kinds: served from pyramid levels
  int pyramid_level = -1;             // snapped level when pyramid (else -1)

  /// Brush requests: the brush epoch this result was computed at (0 for
  /// plain queries). The serve path cross-checks it against the pinned
  /// epoch on every result-cache hit — a mismatch is a stale hit
  /// (ServiceStats::brush_stale_hits) and forces a re-execution instead of
  /// serving the wrong epoch's histogram.
  std::uint64_t brush_epoch = 0;

  std::uint64_t payload_bytes = 0;    // response-payload size (accounting)
  Served served = Served::kExecuted;
  double exec_seconds = 0.0;          // evaluation time (0 when kCached)
  /// 1-based execution ordinal of the producing flight (0 for rejections
  /// and cache-served copies) — makes dispatch order observable, which is
  /// what the priority/fairness tests assert on.
  std::uint64_t sequence = 0;
};

using ResultPtr = std::shared_ptr<const Result>;
using ResultFuture = std::shared_future<ResultPtr>;

struct ServiceConfig {
  /// Max requests evaluating concurrently; 0 = thread-pool size.
  std::size_t max_concurrency = 0;
  /// Max queued flights (coalesced attaches don't count). Beyond this,
  /// submissions are rejected with kRejectedQueue.
  std::size_t max_queue = 1024;
  /// Default per-session budget for estimated in-flight response bytes
  /// (kUnlimited = none). A session whose queued + executing requests
  /// exceed it gets kRejectedBudget until work drains.
  std::uint64_t session_budget_bytes = kUnlimitedBudget;
  /// Keep completed results resident in the engine's io::MemoryBudget
  /// (ResidentClass::kResult) so repeats are answered without re-executing;
  /// they compete in the same LRU as columns/segments/bitvectors. The
  /// class is additionally capped at 1024 entries so an unlimited budget
  /// cannot accrete distinct results without bound, and payloads above
  /// 1 MiB are never cached (in-flight coalescing still dedupes concurrent
  /// duplicates of any size).
  bool cache_results = true;

  /// Load shedding: queued flights at/above this depth bounce new
  /// submissions with Status::kRetryLater and a 50 ms retry hint —
  /// cheaper for everyone than queueing work that will blow its latency
  /// target. 0 disables (only the hard max_queue cap rejects then).
  std::size_t shed_queue_depth = 0;

  /// Most named brushes one session may hold live (brush create beyond it
  /// fails with a typed error). Each brush is also charged an estimated
  /// bitvector's worth of bytes against the session byte budget while it
  /// lives, so brush state competes with in-flight requests under the one
  /// session ceiling.
  std::size_t max_brushes_per_session = 64;

  static constexpr std::uint64_t kUnlimitedBudget = ~std::uint64_t{0};
};

/// Outcome of one brush verb (create/refine/invert/combine/drop). Edits
/// are metadata operations — they record the delta and bump the epoch;
/// bitvector work happens lazily at the next query against the brush.
struct BrushOutcome {
  Status status = Status::kOk;
  std::string error;              // set when status != kOk
  std::string name;
  std::uint64_t epoch = 0;        // brush epoch after the verb
  std::uint64_t resident_bytes = 0;  // materialized brush bytes right now
  std::uint64_t session_brushes = 0; // live brushes in the session after
};

/// Value at quantile @p q (in [0, 1]) of an ascending-sorted sample set,
/// nearest-rank; 0 when empty. The one percentile definition shared by
/// ServiceStats and qdvbench.
double sorted_percentile(std::span<const double> sorted_ascending, double q);

/// Snapshot of the service counters (see QueryService::stats()).
struct ServiceStats {
  // Invariant once idle: submitted == completed + rejected_queue +
  // rejected_budget + rejected_shutdown.
  std::uint64_t submitted = 0;        // all submissions (incl. rejected)
  std::uint64_t completed = 0;        // requests whose future resolved kOk/kError
  std::uint64_t failed = 0;           // completed with Status::kError
  std::uint64_t rejected_queue = 0;
  std::uint64_t rejected_budget = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t rejected_shed = 0;     // load-shed with kRetryLater
  std::uint64_t deadline_expired = 0;  // flights resolved kDeadlineExpired

  std::uint64_t executed = 0;           // flights that ran an evaluation
  std::uint64_t coalesce_hits = 0;      // attached to an in-flight execution
  std::uint64_t result_cache_hits = 0;  // served from the cached result

  // Zoom-tier routing of executed zoom flights (cache/coalesce hits of
  // zoom results count above, not here — they never touch the engine).
  std::uint64_t pyramid_served = 0;
  std::uint64_t pyramid_fallback = 0;

  // Integrity (DESIGN.md §15), mirrored from the engine's dataset-wide
  // counters: checksum checks passed/failed, artifacts quarantined (their
  // queries demoted to slower-but-exact paths), and unverified decodes.
  std::uint64_t integrity_verified = 0;
  std::uint64_t integrity_failures = 0;
  std::uint64_t integrity_demotions = 0;
  std::uint64_t integrity_unverified = 0;

  // Range steps (DESIGN.md §3), mirrored from the engine's dataset-wide
  // counters: steps answered by an index probe or a column scan, the
  // compressed words and rows they read, and the index segments pinned.
  std::uint64_t range_probes = 0;
  std::uint64_t range_scans = 0;
  std::uint64_t probe_words = 0;
  std::uint64_t scan_rows = 0;
  std::uint64_t probe_segments = 0;

  // Linked-brushing sessions (DESIGN.md §16). brush_edits counts
  // refine/invert/combine verbs; brush_queries counts completed requests
  // evaluated against a brush; delta/full split how those evaluations were
  // answered (bit ops on a cached parent vs. composed-plan execution).
  // brush_stale_hits is a tripwire: a cached brush result whose epoch
  // disagreed with the pinned epoch at serve time — structurally
  // impossible while epoch-tagged keys work, asserted zero in CI.
  std::uint64_t brush_count = 0;        // live brushes across sessions
  std::uint64_t brush_creates = 0;
  std::uint64_t brush_edits = 0;
  std::uint64_t brush_drops = 0;
  std::uint64_t brush_queries = 0;
  std::uint64_t brush_delta_evals = 0;
  std::uint64_t brush_full_evals = 0;
  std::uint64_t brush_bytes = 0;        // budget-resident brush bitvector bytes
  std::uint64_t brush_stale_hits = 0;

  std::uint64_t queue_depth = 0;      // flights waiting right now
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t inflight = 0;         // flights executing right now
  std::uint64_t open_sessions = 0;
  std::uint64_t bytes_served = 0;     // cumulative result payload bytes

  // Completed-request latency (submit -> resolve), seconds, over the
  // retained sample window.
  std::uint64_t latency_samples = 0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;

  /// Fraction of accepted requests served without their own evaluation
  /// (in-flight attach or result-cache hit).
  double coalesce_rate() const {
    const std::uint64_t accepted = executed + coalesce_hits + result_cache_hits;
    return accepted == 0 ? 0.0
                         : static_cast<double>(coalesce_hits + result_cache_hits) /
                               static_cast<double>(accepted);
  }
};

class QueryService {
 public:
  using SessionId = std::uint64_t;

  explicit QueryService(core::Engine engine, ServiceConfig config = {});
  /// Drains queued and executing work, then releases the shared state.
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Register a client session. Passing kUnlimitedBudget (the default)
  /// inherits the config's session_budget_bytes; any other value overrides
  /// the per-session in-flight byte budget.
  SessionId open_session(std::string name = {},
                         std::uint64_t budget_bytes = ServiceConfig::kUnlimitedBudget);
  void close_session(SessionId session);

  /// Enqueue @p request. Never blocks on evaluation: the returned future
  /// resolves when the request completes, coalesces, or is rejected
  /// (rejections resolve immediately with the rejecting Status).
  ResultFuture submit(SessionId session, Request request);

  /// submit() + wait. Convenience for synchronous callers (wire server).
  ResultPtr execute(SessionId session, Request request);

  /// Brush verbs (protocol v5, DESIGN.md §16): named mutable selections
  /// scoped to @p session. All synchronous — edits only record deltas and
  /// bump the brush epoch; evaluation happens at the next submitted
  /// request carrying Request::brush. Errors (unknown session/brush, bad
  /// name, unparseable query text, brush cap, budget) come back as typed
  /// BrushOutcome statuses, never exceptions.
  BrushOutcome brush_create(SessionId session, const std::string& name,
                            const std::string& query_text);
  BrushOutcome brush_refine(SessionId session, const std::string& name,
                            const std::string& query_text);
  BrushOutcome brush_invert(SessionId session, const std::string& name);
  BrushOutcome brush_combine(SessionId session, const std::string& name,
                             const std::string& other,
                             core::Brush::CombineOp op);
  BrushOutcome brush_drop(SessionId session, const std::string& name);

  /// Block until no request is queued or executing.
  void drain();

  ServiceStats stats() const;
  const core::Engine& engine() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace qdv::svc
