// Traced in-process replays: per-layer metrics measured from outside the
// library, by timing calls into each module's public functions.
//
// Two replays of the first actions of every client's stream, each on a
// fresh engine so neither warms the other:
//   decomposed  Engine::select_shared, Selection::bits (or Brush::bits),
//               then the gather on the warm bits, with svc parse/format
//               around them: one span per layer call;
//   service     QueryService::execute (and the brush verbs): one span per
//               action, plus the engine/service/dispatch counter deltas.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "bitmap/simd.hpp"
#include "core/brush.hpp"
#include "core/selection.hpp"
#include "qdvbench.hpp"
#include "svc/protocol.hpp"
#include "svc/query_service.hpp"

namespace qdvbench {

using namespace qdv;

namespace {

using Clock = std::chrono::steady_clock;

/// Actions per client in the probe that times layers a workload's own
/// stream never calls (see README.md, "Per-layer metrics").
constexpr std::size_t kProbeActions = 64;

/// Span recorder of one replay thread. Spans nest strictly, so the open
/// span is the parent of the next one.
class Tracer {
 public:
  Tracer(Clock::time_point origin, std::uint32_t thread)
      : origin_(origin), thread_(thread) {}

  void begin_action(std::uint64_t req) { req_ = req; }

  std::size_t open(const char* name) {
    spans_.push_back({req_, name, current_, now(), 0.0, thread_});
    current_ = static_cast<std::int64_t>(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t span) {
    spans_[span].t1 = now();
    current_ = spans_[span].parent;
  }
  void rename(std::size_t span, const char* name) { spans_[span].name = name; }

  /// Time @p f as one span named @p name; returns what @p f returns.
  template <class F>
  decltype(auto) span(const char* name, F&& f) {
    const std::size_t s = open(name);
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      close(s);
    } else {
      auto value = f();
      close(s);
      return value;
    }
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  double now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_;
  std::uint32_t thread_;
  std::uint64_t req_ = 0;
  std::int64_t current_ = -1;
  std::vector<Span> spans_;
};

/// Run @p fn(tracer, client, i) for the first @p actions actions of each of
/// @p clients streams, one thread per client; returns the merged spans.
template <class Fn>
std::vector<Span> replay_threads(std::size_t clients, std::size_t actions, Fn fn) {
  const Clock::time_point origin = Clock::now();
  std::vector<Tracer> tracers;
  for (std::size_t c = 0; c < clients; ++c)
    tracers.emplace_back(origin, static_cast<std::uint32_t>(c));
  std::vector<std::string> errors(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::size_t i = 0; i < actions; ++i) {
          tracers[c].begin_action(c * actions + i);
          fn(tracers[c], c, i);
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error("traced replay failed: " + e);
  std::vector<Span> merged;
  for (Tracer& tr : tracers) {
    const auto base = static_cast<std::int64_t>(merged.size());
    for (Span s : tr.spans()) {
      if (s.parent >= 0) s.parent += base;
      merged.push_back(s);
    }
  }
  return merged;
}

/// Brush methods with the Selection call shape, for gather().
struct BrushAt {
  core::Brush& brush;
  const core::Brush::Snapshot& snap;
  std::uint64_t count(std::size_t t) const { return brush.count(snap, t); }
  std::vector<std::uint64_t> ids(std::size_t t) const { return brush.ids(snap, t); }
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

/// The derived quantity of @p q over warm bits: the bitmap-layer call.
template <class Source>
void gather(Tracer& tr, const Source& src, const svc::Request& q, svc::Result& r) {
  const std::size_t t = q.timestep;
  switch (q.kind) {
    case svc::RequestKind::kCount:
      r.count = tr.span("bitmap.count", [&] { return src.count(t); });
      break;
    case svc::RequestKind::kIds:
      r.ids = tr.span("bitmap.ids", [&] { return src.ids(t); });
      r.count = r.ids.size();
      break;
    case svc::RequestKind::kHistogram1D:
      r.hist1d = tr.span("bitmap.hist1d", [&] {
        return src.histogram1d(t, q.var_x, q.nxbins, q.binning);
      });
      r.count = r.hist1d.total();
      break;
    case svc::RequestKind::kHistogram2D:
      r.hist2d = tr.span("bitmap.hist2d", [&] {
        return src.histogram2d(t, q.var_x, q.var_y, q.nxbins, q.nybins, q.binning);
      });
      r.count = r.hist2d.total();
      break;
    case svc::RequestKind::kSummary:
      r.summary = tr.span("bitmap.summary", [&] { return src.summary(t, q.var_x); });
      r.count = r.summary.count;
      break;
    case svc::RequestKind::kZoom1D:
    case svc::RequestKind::kZoom2D:
      throw std::logic_error("zoom requests do not gather from bits");
  }
}

/// A zoom through the pyramid tier, named by the route it took.
void zoom(Tracer& tr, const core::Selection& sel, const svc::Request& q,
          svc::Result& r) {
  const std::size_t s = tr.open("agg.zoom");
  if (q.kind == svc::RequestKind::kZoom1D) {
    core::Zoom1DResult z = sel.zoom_histogram1d(q.timestep, q.var_x, q.view_lo_x,
                                                q.view_hi_x, q.nxbins, q.zoom_mode);
    r.hist1d = std::move(z.hist);
    r.pyramid = z.pyramid;
    r.pyramid_level = z.level;
  } else {
    core::Zoom2DResult z = sel.zoom_histogram2d(
        q.timestep, q.var_x, q.var_y, q.view_lo_x, q.view_hi_x, q.view_lo_y,
        q.view_hi_y, q.nxbins, q.nybins, q.zoom_mode);
    r.hist2d = std::move(z.hist);
    r.pyramid = z.pyramid;
    r.pyramid_level = z.level;
  }
  tr.close(s);
  if (!r.pyramid) tr.rename(s, "agg.fallback");
}

/// One action of the decomposed replay. @p brush is the client's brush.
void decomposed_action(Tracer& tr, const core::Engine& engine,
                       const std::shared_ptr<core::Brush::Counters>& counters,
                       std::shared_ptr<core::Brush>& brush, const Action& action) {
  const std::size_t root = tr.open("replay.action");
  for (const std::string& line : action.lines) {
    svc::WireRequest wire;
    std::string error;
    if (!tr.span("svc.codec.parse",
                 [&] { return svc::parse_request_line(line, wire, error); }))
      throw std::runtime_error("bad request '" + line + "': " + error);
    const svc::Request& q = wire.request;
    if (wire.op == svc::WireRequest::Op::kBrush) {
      switch (wire.brush_action) {
        case svc::WireRequest::BrushAction::kCreate: {
          const auto sel =
              tr.span("core.plan", [&] { return engine.select_shared(q.query); });
          brush = std::make_shared<core::Brush>(*sel, counters);
          break;
        }
        case svc::WireRequest::BrushAction::kRefine:
          tr.span("core.brush.edit",
                  [&] { return brush->refine(parse_query(q.query)); });
          break;
        case svc::WireRequest::BrushAction::kDrop:
          brush.reset();
          break;
        default:
          throw std::logic_error("brush verb not used by the workloads");
      }
      continue;
    }
    svc::Result r;
    r.kind = q.kind;
    if (!q.brush.empty()) {
      const core::Brush::Snapshot snap = brush->snapshot();
      tr.span("core.brush.eval", [&] { return brush->bits(snap, q.timestep); });
      r.brush_epoch = snap.epoch;
      gather(tr, BrushAt{*brush, snap}, q, r);
    } else {
      const auto sel =
          tr.span("core.plan", [&] { return engine.select_shared(q.query); });
      if (q.kind == svc::RequestKind::kZoom1D || q.kind == svc::RequestKind::kZoom2D) {
        zoom(tr, *sel, q, r);
      } else {
        tr.span("core.eval", [&] { return sel->bits(q.timestep); });
        gather(tr, *sel, q, r);
      }
    }
    tr.span("svc.codec.format",
            [&] { return svc::format_response_line(r, wire.ids_limit); });
  }
  tr.close(root);
}

std::vector<Span> decomposed_replay(const core::Engine& engine,
                                    const Streams& streams, std::size_t clients,
                                    std::size_t actions) {
  const auto counters = std::make_shared<core::Brush::Counters>();
  std::vector<std::shared_ptr<core::Brush>> brushes(clients);
  return replay_threads(clients, actions, [&](Tracer& tr, std::size_t c, std::size_t i) {
    decomposed_action(tr, engine, counters, brushes[c], streams.action(c, i));
  });
}

double ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

core::Engine open_engine(const std::filesystem::path& dir, std::uint64_t budget_mib) {
  io::OpenOptions options = io::default_open_options();
  if (budget_mib != 0) options.budget_bytes = budget_mib << 20;
  return core::Engine(io::Dataset::open(dir, options));
}

std::uint64_t vector_calls(const simd::DispatchCounts& d) {
  return d.positions.vector + d.hist1d.vector + d.hist2d.vector;
}
std::uint64_t scalar_calls(const simd::DispatchCounts& d) {
  return d.positions.scalar + d.hist1d.scalar + d.hist2d.scalar;
}

/// Print one summary line per span name: count, self-time p50/p99, busy
/// seconds.
void print_span_summary(const std::string& label, const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  std::map<std::string, std::vector<double>> self;
  std::map<std::string, double> busy;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    self[spans[k].name].push_back(spans[k].t1 - spans[k].t0 - child[k]);
    busy[spans[k].name] += (spans[k].t1 - spans[k].t0) * 1e-6;
  }
  for (auto& [name, v] : self)
    std::cout << "span " << label << " " << name << " count=" << v.size()
              << " self_p50_us=" << percentile(v, 0.50)
              << " self_p99_us=" << percentile(v, 0.99)
              << " busy_s=" << busy[name] << "\n";
}

}  // namespace

std::vector<Metric> trace_layers(const Options& options, Workload w,
                                 const std::filesystem::path& dataset_dir,
                                 double e2e_p50_us, double generate_s,
                                 std::vector<TraceLog>& traces) {
  const Shape shape = shape_of(w, options.smoke);
  const std::string name = workload_name(w);
  const std::size_t actions = options.replay_actions;
  const std::size_t total_actions = shape.clients * actions;

  // --- decomposed replay ---------------------------------------------------
  std::vector<Span> layer_spans;
  {
    const core::Engine engine = open_engine(dataset_dir, shape.budget_mib);
    const Streams streams(w, engine.dataset(), options.seed, shape.clients);
    layer_spans = decomposed_replay(engine, streams, shape.clients, actions);
  }
  std::map<std::string, std::vector<double>> us;  // span durations by name
  std::map<std::uint64_t, double> codec_us;       // parse + format per action
  const auto collect = [&](const std::vector<Span>& spans, bool only_missing) {
    std::map<std::string, std::vector<double>> found;
    for (const Span& s : spans) {
      found[s.name].push_back(s.t1 - s.t0);
      if (!only_missing && std::string(s.name).rfind("svc.codec.", 0) == 0)
        codec_us[s.req] += s.t1 - s.t0;
    }
    for (auto& [n, v] : found)
      if (!only_missing || us[n].empty()) us[n] = std::move(v);
  };
  collect(layer_spans, false);

  // Layers this workload's stream never calls are timed on a short probe of
  // every workload's stream (one client, fresh engine), so each per-layer
  // time is a measurement on this dataset in every workload.
  static const char* const kTimedLayers[] = {
      "core.plan", "core.eval", "core.brush.edit", "core.brush.eval",
      "bitmap.count", "bitmap.hist1d", "bitmap.hist2d", "bitmap.summary",
      "bitmap.ids", "agg.zoom", "agg.fallback"};
  if (std::any_of(std::begin(kTimedLayers), std::end(kTimedLayers),
                  [&](const char* n) { return us[n].empty(); })) {
    const core::Engine engine = open_engine(dataset_dir, shape.budget_mib);
    std::vector<Span> probe;
    for (const Workload pw : kAllWorkloads) {
      const Streams streams(pw, engine.dataset(), options.seed, 1);
      std::vector<Span> spans = decomposed_replay(engine, streams, 1, kProbeActions);
      probe.insert(probe.end(), spans.begin(), spans.end());
    }
    collect(probe, true);
    print_span_summary(name + " probe", probe);
    traces.push_back({name + " probe", std::move(probe)});
  }
  print_span_summary(name + " decomposed", layer_spans);
  traces.push_back({name + " decomposed", std::move(layer_spans)});

  // --- service replay ------------------------------------------------------
  const Clock::time_point open_start = Clock::now();
  const core::Engine engine = open_engine(dataset_dir, shape.budget_mib);
  const double open_s =
      std::chrono::duration<double>(Clock::now() - open_start).count();
  const Streams streams(w, engine.dataset(), options.seed, shape.clients);
  const core::EngineStats engine_before = engine.stats();
  const simd::DispatchCounts simd_before = simd::dispatch_counts();
  svc::ServiceStats service_stats;
  std::uint64_t resident_peak = 0;
  std::vector<Span> service_spans;
  {
    svc::QueryService service(engine);
    std::mutex peak_mutex;
    std::vector<svc::QueryService::SessionId> sessions;
    for (std::size_t c = 0; c < shape.clients; ++c)
      sessions.push_back(service.open_session("replay"));
    service_spans = replay_threads(
        shape.clients, actions, [&](Tracer& tr, std::size_t c, std::size_t i) {
          const Action action = streams.action(c, i);
          std::vector<svc::WireRequest> wires(action.lines.size());
          std::string error;
          for (std::size_t k = 0; k < wires.size(); ++k)
            if (!svc::parse_request_line(action.lines[k], wires[k], error))
              throw std::runtime_error(error);
          const svc::QueryService::SessionId session = sessions[c];
          const bool ok = tr.span("svc.execute", [&] {
            bool all_ok = true;
            for (const svc::WireRequest& wire : wires) {
              svc::Status status = svc::Status::kOk;
              if (wire.op != svc::WireRequest::Op::kBrush) {
                status = service.execute(session, wire.request)->status;
              } else if (wire.brush_action == svc::WireRequest::BrushAction::kCreate) {
                status = service.brush_create(session, wire.brush_name,
                                              wire.request.query).status;
              } else if (wire.brush_action == svc::WireRequest::BrushAction::kRefine) {
                status = service.brush_refine(session, wire.brush_name,
                                              wire.request.query).status;
              } else {
                status = service.brush_drop(session, wire.brush_name).status;
              }
              all_ok = all_ok && status == svc::Status::kOk;
            }
            return all_ok;
          });
          if (!ok) throw std::runtime_error("service replay error on '" +
                                            action.lines.back() + "'");
          const std::uint64_t resident = engine.stats().resident_bytes;
          std::lock_guard<std::mutex> lock(peak_mutex);
          resident_peak = std::max(resident_peak, resident);
        });
    for (const auto session : sessions) service.close_session(session);
    service.drain();
    service_stats = service.stats();
  }
  const core::EngineStats engine_after = engine.stats();
  const simd::DispatchCounts simd_after = simd::dispatch_counts();
  for (const Span& s : service_spans) us[s.name].push_back(s.t1 - s.t0);
  print_span_summary(name + " service", service_spans);
  traces.push_back({name + " service", std::move(service_spans)});

  std::vector<double> codec;
  for (const auto& [req, v] : codec_us) codec.push_back(v);
  const auto p = [&](const char* span, double q) { return percentile(us[span], q); };
  const svc::ServiceStats& s = service_stats;
  const double accepted =
      static_cast<double>(s.executed + s.coalesce_hits + s.result_cache_hits);
  const double ops = static_cast<double>(std::max<std::size_t>(1, total_actions));
  const double lookups = static_cast<double>((engine_after.hits - engine_before.hits) +
                                             (engine_after.misses - engine_before.misses));
  const double vec = static_cast<double>(vector_calls(simd_after) - vector_calls(simd_before));
  const double sca = static_cast<double>(scalar_calls(simd_after) - scalar_calls(simd_before));
  const double execute_p50 = p("svc.execute", 0.50);
  return {
      {"svc.execute_us.p50", execute_p50, "us"},
      {"svc.execute_us.p99", p("svc.execute", 0.99), "us"},
      {"svc.codec_us.p50", percentile(codec, 0.50), "us"},
      {"svc.wire_gap_us.p50", e2e_p50_us - execute_p50, "us"},
      {"svc.result_cache_hit_ratio", ratio(static_cast<double>(s.result_cache_hits), accepted), "ratio"},
      {"svc.coalesce_ratio", ratio(static_cast<double>(s.coalesce_hits), accepted), "ratio"},
      {"svc.peak_queue", static_cast<double>(s.peak_queue_depth), "count"},
      {"core.plan_us.p50", p("core.plan", 0.50), "us"},
      {"core.plan_us.p99", p("core.plan", 0.99), "us"},
      {"core.eval_us.p50", p("core.eval", 0.50), "us"},
      {"core.eval_us.p99", p("core.eval", 0.99), "us"},
      {"core.bitvector_hit_ratio",
       ratio(static_cast<double>(engine_after.hits - engine_before.hits), lookups), "ratio"},
      {"core.brush.edit_us.p50", p("core.brush.edit", 0.50), "us"},
      {"core.brush.eval_us.p50", p("core.brush.eval", 0.50), "us"},
      {"core.brush.eval_us.p99", p("core.brush.eval", 0.99), "us"},
      {"core.brush.delta_ratio",
       ratio(static_cast<double>(s.brush_delta_evals),
             static_cast<double>(s.brush_delta_evals + s.brush_full_evals)), "ratio"},
      {"bitmap.count_us.p50", p("bitmap.count", 0.50), "us"},
      {"bitmap.hist1d_us.p50", p("bitmap.hist1d", 0.50), "us"},
      {"bitmap.hist2d_us.p50", p("bitmap.hist2d", 0.50), "us"},
      {"bitmap.hist2d_us.p99", p("bitmap.hist2d", 0.99), "us"},
      {"bitmap.summary_us.p50", p("bitmap.summary", 0.50), "us"},
      {"bitmap.ids_us.p50", p("bitmap.ids", 0.50), "us"},
      {"bitmap.simd_vector_share", ratio(vec, vec + sca), "ratio"},
      {"agg.zoom_us.p50", p("agg.zoom", 0.50), "us"},
      {"agg.zoom_us.p99", p("agg.zoom", 0.99), "us"},
      {"agg.pyramid_hit_ratio",
       ratio(static_cast<double>(s.pyramid_served),
             static_cast<double>(s.pyramid_served + s.pyramid_fallback)), "ratio"},
      {"agg.fallback_us.p50", p("agg.fallback", 0.50), "us"},
      {"io.loaded_mb_per_kop",
       static_cast<double>(engine_after.loaded_bytes - engine_before.loaded_bytes) /
           1048576.0 / (ops / 1000.0), "MiB/kop"},
      {"io.evictions_per_op",
       static_cast<double>(engine_after.io_evictions - engine_before.io_evictions) / ops,
       "1/op"},
      {"io.checksum_checks_per_op",
       static_cast<double>(engine_after.integrity_verified -
                           engine_before.integrity_verified) / ops, "1/op"},
      {"io.resident_mb.peak", static_cast<double>(resident_peak) / 1048576.0, "MiB"},
      {"sim.generate_s", generate_s, "s"},
      {"io.open_s", open_s, "s"},
  };
}

}  // namespace qdvbench
