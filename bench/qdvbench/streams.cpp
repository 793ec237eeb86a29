// Workload definitions: dataset shapes, seeded action streams, and the
// response oracle the verifier compares against.
#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "agg/pyramid.hpp"
#include "core/selection.hpp"
#include "qdvbench.hpp"
#include "svc/protocol.hpp"

namespace qdvbench {

using namespace qdv;

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kExplore: return "explore";
    case Workload::kZoom: return "zoom";
    case Workload::kBrush: return "brush";
    case Workload::kSweep: return "sweep";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w : kAllWorkloads)
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

Shape shape_of(Workload w, bool smoke) {
  Shape s;
  switch (w) {
    case Workload::kExplore: s = {1000000, 4, 4, 0}; break;
    case Workload::kZoom: s = {1000000, 4, 2, 0}; break;
    case Workload::kBrush: s = {1000000, 4, 4, 0}; break;
    // 64 MiB is about 1/14 of the ~880 MiB dataset: the cyclic timestep
    // sweep cannot stay resident.
    case Workload::kSweep: s = {500000, 16, 4, 64}; break;
  }
  if (smoke) {
    s.particles = 20000;
    s.timesteps = 3;
    if (s.budget_mib != 0) s.budget_mib = 1;  // still smaller than the data
  }
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  s.clients = std::min(s.clients, nproc);
  return s;
}

namespace {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Key of the hot-pool entries in Rng tuples (no client has this index).
constexpr std::uint64_t kHotKey = ~std::uint64_t{0};
constexpr std::size_t kHotPool = 8;
constexpr double kHotShare = 0.25;
/// Brush edits between recreations: the brush's delta history length.
constexpr std::size_t kBrushLife = core::Brush::kMaxHistory;

const std::array<const char*, 4> kExploreVars = {"px", "x", "y", "xrel"};
const std::array<const char*, 3> kBrushVars = {"x", "y", "xrel"};
const std::array<std::pair<const char*, const char*>, 6> kSweepPairs = {{
    {"x", "y"}, {"y", "z"}, {"z", "px"}, {"px", "py"}, {"py", "pz"},
    {"pz", "xrel"}}};

}  // namespace

Rng::Rng(std::initializer_list<std::uint64_t> key) {
  for (const std::uint64_t k : key) state_ = mix(state_ ^ mix(k + 0x9e3779b97f4a7c15ull));
}

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ull;
  return mix(state_);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

struct Streams::Impl {
  struct ZoomVar {
    std::string name;
    double lo = 0.0, hi = 0.0;  // pyramid leaf domain
  };
  struct Step {
    std::vector<ZoomVar> zoom_vars;
    bool pair = false;        // has the x__px pair pyramid
    double x_lo = 0.0, x_hi = 0.0;
    std::vector<double> px_edges;  // pair pyramid px leaf edges
  };

  Workload workload;
  std::uint64_t seed;
  std::size_t clients;
  std::size_t timesteps;
  std::vector<std::pair<double, double>> domains;  // [t * nvars + v]
  std::vector<std::string> vars;
  std::vector<Step> steps;  // zoom only
  std::vector<Action> hot;

  std::pair<double, double> domain(std::size_t t, const std::string& var) const {
    const auto it = std::find(vars.begin(), vars.end(), var);
    if (it == vars.end()) throw std::runtime_error("dataset has no variable '" + var + "'");
    return domains[t * vars.size() + static_cast<std::size_t>(it - vars.begin())];
  }

  Rng rng(std::uint64_t client, std::uint64_t i, std::uint64_t part = 0) const {
    return Rng{seed, static_cast<std::uint64_t>(workload), client, i, part};
  }

  static Action single(const svc::WireRequest& wire) {
    Action a;
    a.lines.push_back(svc::format_request_line(wire));
    return a;
  }

  /// A range conjunct on @p var at timestep @p t. px is heavy-tailed (most
  /// records sit far below the domain's top), so its bounds are drawn in
  /// log space where the records are.
  std::string range(Rng& r, std::size_t t, const std::string& var) const {
    double lo = 0.0, hi = 0.0;
    if (var == "px") {
      lo = std::pow(10.0, 7.0 + 2.5 * r.uniform());
      hi = lo * (1.5 + 8.0 * r.uniform());
    } else {
      const auto [dlo, dhi] = domain(t, var);
      const double span = dhi - dlo;
      lo = dlo + 0.7 * r.uniform() * span;
      hi = lo + (0.1 + 0.5 * r.uniform()) * span;
    }
    return var + " >= " + format_double(lo) + " && " + var + " < " + format_double(hi);
  }

  // --- explore: the paper's interactive loop over the query kinds ---------
  Action make_explore(Rng& r) const {
    svc::WireRequest wire;
    svc::Request& q = wire.request;
    q.timestep = r.below(timesteps);
    std::array<std::size_t, 4> order = {0, 1, 2, 3};
    for (std::size_t k = order.size() - 1; k > 0; --k)
      std::swap(order[k], order[r.below(k + 1)]);
    const std::size_t conjuncts = 1 + r.below(3);
    for (std::size_t k = 0; k < conjuncts; ++k) {
      if (k > 0) q.query += " && ";
      q.query += range(r, q.timestep, kExploreVars[order[k]]);
    }
    const std::size_t roll = r.below(100);
    if (roll < 50) {
      q.kind = svc::RequestKind::kCount;
    } else if (roll < 80) {
      q.kind = svc::RequestKind::kHistogram1D;
      q.var_x = kExploreVars[r.below(4)];
      q.nxbins = q.nybins = 64;
    } else if (roll < 90) {
      q.kind = svc::RequestKind::kHistogram2D;
      const std::size_t a = r.below(4);
      q.var_x = kExploreVars[a];
      q.var_y = kExploreVars[(a + 1 + r.below(3)) % 4];
      q.nxbins = q.nybins = 32;
    } else if (roll < 95) {
      q.kind = svc::RequestKind::kSummary;
      q.var_x = kExploreVars[r.below(4)];
    } else {
      q.kind = svc::RequestKind::kIds;
      wire.ids_limit = 16;
    }
    return single(wire);
  }

  // --- zoom: pan/zoom viewports answered by the pyramid tier --------------
  Action make_zoom(Rng& r, bool allow_deep) const {
    const std::size_t t = r.below(steps.size());
    const Step& step = steps[t];
    svc::WireRequest wire;
    svc::Request& q = wire.request;
    q.timestep = t;
    q.nxbins = q.nybins = 64;
    const auto window = [&](double lo, double hi, double span_frac,
                            double& out_lo, double& out_hi) {
      const double span = (hi - lo) * span_frac;
      out_lo = lo + r.uniform() * ((hi - lo) - span);
      out_hi = out_lo + span;
    };
    std::size_t roll = r.below(100);
    if (!allow_deep && roll >= 93) roll = r.below(93);
    if (!step.pair && roll >= 60 && roll < 93) roll = 0;
    if (roll < 60) {
      const ZoomVar& v = step.zoom_vars[r.below(step.zoom_vars.size())];
      q.kind = svc::RequestKind::kZoom1D;
      q.var_x = v.name;
      window(v.lo, v.hi, 0.15 + 0.75 * r.uniform(), q.view_lo_x, q.view_hi_x);
    } else if (roll < 75) {
      // x conditioned on a px slice aligned to the pair pyramid's leaf
      // edges (never the top edge: the closed last bin is not servable).
      q.kind = svc::RequestKind::kZoom1D;
      q.var_x = "x";
      window(step.x_lo, step.x_hi, 0.2 + 0.7 * r.uniform(), q.view_lo_x,
             q.view_hi_x);
      const std::size_t n = step.px_edges.size();
      const std::size_t i0 = r.below(n / 2);
      const std::size_t i1 = i0 + 1 + r.below(n - 2 - i0);
      q.query = "px >= " + format_double(step.px_edges[i0]) + " && px < " +
                format_double(step.px_edges[i1]);
    } else if (roll < 93) {
      q.kind = svc::RequestKind::kZoom2D;
      q.var_x = "x";
      q.var_y = "px";
      window(step.x_lo, step.x_hi, 0.2 + 0.7 * r.uniform(), q.view_lo_x,
             q.view_hi_x);
      window(step.px_edges.front(), step.px_edges.back(),
             0.2 + 0.7 * r.uniform(), q.view_lo_y, q.view_hi_y);
    } else {
      // Deep zoom: a 1% span cannot carry 64 leaf bins, so the request
      // falls back to the exact kernel path.
      const ZoomVar& v = step.zoom_vars[r.below(step.zoom_vars.size())];
      q.kind = svc::RequestKind::kZoom1D;
      q.var_x = v.name;
      window(v.lo, v.hi, 0.01, q.view_lo_x, q.view_hi_x);
    }
    return single(wire);
  }

  // --- brush: one owned brush per client, refine then query ---------------
  std::string brush_base(std::size_t client, std::size_t i0, std::size_t t) const {
    Rng r = rng(client, i0, 1);
    const std::string var = kBrushVars[r.below(kBrushVars.size())];
    const auto [lo, hi] = domain(t, var);
    return var + " > " + format_double(lo + (0.05 + 0.15 * r.uniform()) * (hi - lo));
  }

  /// A thin slice carved out of one variable: the brushing gesture.
  std::string brush_refine(std::size_t client, std::size_t i, std::size_t t) const {
    Rng r = rng(client, i, 2);
    const std::string var = kBrushVars[r.below(kBrushVars.size())];
    const auto [dlo, dhi] = domain(t, var);
    const double span = dhi - dlo;
    const double lo = dlo + (0.10 + 0.78 * r.uniform()) * span;
    const double hi = lo + (0.02 + 0.03 * r.uniform()) * span;
    return "(" + var + " <= " + format_double(lo) + " || " + var + " > " + format_double(hi) + ")";
  }

  Action make_brush(std::size_t client, std::size_t i) const {
    const std::string name = std::string("b").append(std::to_string(client));
    const std::size_t t = client % timesteps;
    const std::size_t i0 = i - i % kBrushLife;
    Action a;
    if (i == i0) {
      if (i > 0) a.lines.push_back("brush drop name=" + name);
      a.lines.push_back("brush create name=" + name +
                        " q=" + brush_base(client, i0, t));
    }
    const std::string extra = brush_refine(client, i, t);
    a.lines.push_back("brush refine name=" + name + " q=" + extra);
    a.composed = brush_base(client, i0, t);
    for (std::size_t k = i0; k <= i; ++k)
      a.composed += " && " + brush_refine(client, k, t);
    a.epoch = i - i0 + 2;  // create -> 1, then one bump per refine

    svc::WireRequest wire;
    svc::Request& q = wire.request;
    q.timestep = t;
    q.brush = name;
    Rng r = rng(client, i, 3);
    if (r.below(4) < 3) {
      q.kind = svc::RequestKind::kCount;
    } else {
      q.kind = svc::RequestKind::kHistogram1D;
      q.var_x = kExploreVars[r.below(kExploreVars.size())];
      q.nxbins = q.nybins = 64;
    }
    a.lines.push_back(svc::format_request_line(wire));
    return a;
  }

  // --- sweep: parallel-coordinate histograms over every timestep ----------
  Action make_sweep(std::size_t client, std::size_t i) const {
    std::vector<std::size_t> owned;
    for (std::size_t t = client; t < timesteps; t += clients) owned.push_back(t);
    if (owned.empty()) owned.push_back(client % timesteps);
    const std::size_t per_pass = owned.size() * kSweepPairs.size();
    const std::size_t pass = i / per_pass;
    const std::size_t j = i % per_pass;
    // The threshold rotates by the golden ratio each pass: it never repeats,
    // so the result cache cannot answer a sweep request.
    const double phase = rng(client, 0, 4).uniform() +
                         static_cast<double>(pass) * 0.6180339887498949;
    const double frac = phase - std::floor(phase);
    svc::WireRequest wire;
    svc::Request& q = wire.request;
    q.kind = svc::RequestKind::kHistogram2D;
    q.timestep = owned[j / kSweepPairs.size()];
    q.var_x = kSweepPairs[j % kSweepPairs.size()].first;
    q.var_y = kSweepPairs[j % kSweepPairs.size()].second;
    q.nxbins = q.nybins = 64;
    q.query = "px > " + format_double(std::pow(10.0, 7.5 + 1.5 * frac));
    return single(wire);
  }
};

Streams::Streams(Workload workload, const io::Dataset& dataset,
                 std::uint64_t seed, std::size_t clients)
    : impl_(std::make_unique<Impl>()) {
  Impl& s = *impl_;
  s.workload = workload;
  s.seed = seed;
  s.clients = std::max<std::size_t>(1, clients);
  s.timesteps = dataset.num_timesteps();
  s.vars = dataset.variables();
  if (s.timesteps == 0) throw std::runtime_error("dataset has no timesteps");
  for (std::size_t t = 0; t < s.timesteps; ++t) {
    const io::TimestepTable& table = dataset.table(t);
    for (const std::string& v : s.vars) s.domains.push_back(table.domain(v));
  }
  if (workload == Workload::kZoom) {
    for (std::size_t t = 0; t < s.timesteps; ++t) {
      const io::TimestepTable& table = dataset.table(t);
      Impl::Step step;
      for (const char* var : {"px", "x", "y"}) {
        const auto pyr = table.pyramid1d(var);
        if (!pyr) continue;
        step.zoom_vars.push_back(
            {var, pyr->leaf_edges(0).front(), pyr->leaf_edges(0).back()});
      }
      if (const auto pair = table.pyramid2d("x", "px")) {
        step.pair = true;
        step.x_lo = pair->leaf_edges(0).front();
        step.x_hi = pair->leaf_edges(0).back();
        step.px_edges = pair->leaf_edges(1);
      }
      if (step.zoom_vars.empty())
        throw std::runtime_error("zoom workload needs .pyr pyramids");
      s.steps.push_back(std::move(step));
    }
  }
  for (std::size_t k = 0; k < kHotPool; ++k) {
    Rng r = s.rng(kHotKey, k);
    if (workload == Workload::kExplore) s.hot.push_back(s.make_explore(r));
    if (workload == Workload::kZoom) s.hot.push_back(s.make_zoom(r, false));
  }
}

Streams::~Streams() = default;

Action Streams::action(std::size_t client, std::size_t i) const {
  const Impl& s = *impl_;
  switch (s.workload) {
    case Workload::kBrush: return s.make_brush(client, i);
    case Workload::kSweep: return s.make_sweep(client, i);
    case Workload::kExplore:
    case Workload::kZoom: break;
  }
  Rng r = s.rng(client, i);
  if (r.uniform() < kHotShare) return s.hot[r.below(s.hot.size())];
  return s.workload == Workload::kExplore ? s.make_explore(r)
                                          : s.make_zoom(r, true);
}

std::string oracle_response(const core::Engine& scan_engine,
                            const Action& action) {
  svc::WireRequest wire;
  std::string error;
  if (!svc::parse_request_line(action.lines.back(), wire, error))
    throw std::runtime_error("unparseable benchmark request: " + error);
  const svc::Request& q = wire.request;
  const std::string& text = action.composed.empty() ? q.query : action.composed;
  const core::Selection sel =
      text.empty() ? scan_engine.all() : scan_engine.select(text);
  svc::Result r;
  r.kind = q.kind;
  r.brush_epoch = action.epoch;
  const std::size_t t = q.timestep;
  switch (q.kind) {
    case svc::RequestKind::kCount:
      r.count = sel.count(t);
      break;
    case svc::RequestKind::kIds:
      r.ids = sel.ids(t);
      r.count = r.ids.size();
      break;
    case svc::RequestKind::kHistogram1D:
      r.hist1d = sel.histogram1d(t, q.var_x, q.nxbins, q.binning);
      r.count = r.hist1d.total();
      break;
    case svc::RequestKind::kHistogram2D:
      r.hist2d = sel.histogram2d(t, q.var_x, q.var_y, q.nxbins, q.nybins,
                                 q.binning);
      r.count = r.hist2d.total();
      break;
    case svc::RequestKind::kSummary:
      r.summary = sel.summary(t, q.var_x);
      r.count = r.summary.count;
      break;
    case svc::RequestKind::kZoom1D: {
      core::Zoom1DResult z =
          sel.zoom_histogram1d(t, q.var_x, q.view_lo_x, q.view_hi_x, q.nxbins,
                               core::ZoomMode::kExact);
      r.hist1d = std::move(z.hist);
      r.pyramid_level = z.level;
      r.count = r.hist1d.total();
      break;
    }
    case svc::RequestKind::kZoom2D: {
      core::Zoom2DResult z = sel.zoom_histogram2d(
          t, q.var_x, q.var_y, q.view_lo_x, q.view_hi_x, q.view_lo_y,
          q.view_hi_y, q.nxbins, q.nybins, core::ZoomMode::kExact);
      r.hist2d = std::move(z.hist);
      r.pyramid_level = z.level;
      r.count = r.hist2d.total();
      break;
    }
  }
  return svc::format_response_line(r, wire.ids_limit);
}

bool same_response(const std::string& a, const std::string& b) {
  const auto fields = [](const std::string& line) {
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string token;
    while (in >> token)
      if (token.rfind("src=", 0) != 0 && token.rfind("exec_us=", 0) != 0 &&
          token.rfind("pyr=", 0) != 0)
        out.push_back(token);
    return out;
  };
  return fields(a) == fields(b);
}

double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return svc::sorted_percentile(values, q);
}

}  // namespace qdvbench
