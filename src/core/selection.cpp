#include "core/selection.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "agg/pyramid.hpp"
#include "bitmap/kernels.hpp"
#include "engine_state.hpp"

namespace qdv::core {

namespace {

using MarginalList = std::vector<std::pair<std::string, Interval>>;

/// A resolved, fully-servable pyramid route for a 1D zoom: either the
/// column's own pyramid (ndims 1) or a pair pyramid marginalized over its
/// other axis (when the selection also conditions one other variable).
struct Resolved1D {
  std::shared_ptr<const agg::Pyramid> pyr;
  std::size_t axis = 0;  // the zoom variable's axis within pyr
  agg::SlicePlan plan;
  const Interval* cond_var = nullptr;    // condition on the zoom variable
  const Interval* cond_other = nullptr;  // condition on the pair's other axis
};

/// A resolved pair-pyramid route for a 2D zoom (both axes at one level).
struct Resolved2D {
  std::shared_ptr<const agg::Pyramid> pyr;
  bool swapped = false;  // pyramid stored as (y, x)
  agg::SlicePlan plan_x;
  agg::SlicePlan plan_y;
  const Interval* cond_x = nullptr;
  const Interval* cond_y = nullptr;
};

std::optional<Resolved1D> resolve_zoom1d(const io::TimestepTable& tbl,
                                         const MarginalList* marginals,
                                         const std::string& variable,
                                         double view_lo, double view_hi,
                                         std::size_t nbins) {
  if (!marginals) return std::nullopt;  // non-marginal predicate: exact only
  Resolved1D r;
  std::string other;
  for (const auto& [var, iv] : *marginals) {
    if (var == variable) {
      r.cond_var = &iv;
    } else if (other.empty()) {
      other = var;
      r.cond_other = &iv;
    } else {
      return std::nullopt;  // conditions on two other variables: no pyramid
    }
  }
  if (other.empty()) {
    r.pyr = tbl.pyramid1d(variable);
    if (!r.pyr || r.pyr->ndims() != 1) return std::nullopt;
    const auto plan = r.pyr->plan_slice(0, view_lo, view_hi, nbins);
    if (!plan || !r.pyr->servable1d(*plan, r.cond_var)) return std::nullopt;
    r.plan = *plan;
    return r;
  }
  // One condition on another variable: marginalize a pair pyramid that
  // holds both columns (either orientation).
  r.pyr = tbl.pyramid2d(variable, other);
  if (!r.pyr) {
    r.pyr = tbl.pyramid2d(other, variable);
    r.axis = 1;
  }
  if (!r.pyr || r.pyr->ndims() != 2) return std::nullopt;
  const auto plan = r.pyr->plan_slice(r.axis, view_lo, view_hi, nbins);
  if (!plan) return std::nullopt;
  const agg::SlicePlan full{plan->level, 0, r.pyr->bins_at(plan->level)};
  const agg::SlicePlan& p0 = r.axis == 0 ? *plan : full;
  const agg::SlicePlan& p1 = r.axis == 0 ? full : *plan;
  const Interval* c0 = r.axis == 0 ? r.cond_var : r.cond_other;
  const Interval* c1 = r.axis == 0 ? r.cond_other : r.cond_var;
  if (!r.pyr->servable2d(p0, p1, c0, c1)) return std::nullopt;
  r.plan = *plan;
  return r;
}

std::optional<Resolved2D> resolve_zoom2d(
    const io::TimestepTable& tbl, const MarginalList* marginals,
    const std::string& x, const std::string& y, double view_lo_x,
    double view_hi_x, double view_lo_y, double view_hi_y, std::size_t nxbins,
    std::size_t nybins) {
  if (!marginals) return std::nullopt;
  Resolved2D r;
  for (const auto& [var, iv] : *marginals) {
    if (var == x)
      r.cond_x = &iv;
    else if (var == y)
      r.cond_y = &iv;
    else
      return std::nullopt;  // condition off the zoom plane: no pyramid
  }
  r.pyr = tbl.pyramid2d(x, y);
  if (!r.pyr) {
    r.pyr = tbl.pyramid2d(y, x);
    r.swapped = true;
  }
  if (!r.pyr || r.pyr->ndims() != 2) return std::nullopt;
  const std::size_t axis_x = r.swapped ? 1 : 0;
  const std::size_t axis_y = 1 - axis_x;
  const auto px = r.pyr->plan_slice(axis_x, view_lo_x, view_hi_x, nxbins);
  const auto py = r.pyr->plan_slice(axis_y, view_lo_y, view_hi_y, nybins);
  if (!px || !py) return std::nullopt;
  // Both axes must serve from one level: take the finer of the two snaps.
  const std::size_t level = std::max(px->level, py->level);
  r.plan_x = px->level == level
                 ? *px
                 : r.pyr->plan_slice_at(axis_x, level, view_lo_x, view_hi_x);
  r.plan_y = py->level == level
                 ? *py
                 : r.pyr->plan_slice_at(axis_y, level, view_lo_y, view_hi_y);
  const agg::SlicePlan& p0 = r.swapped ? r.plan_y : r.plan_x;
  const agg::SlicePlan& p1 = r.swapped ? r.plan_x : r.plan_y;
  const Interval* c0 = r.swapped ? r.cond_y : r.cond_x;
  const Interval* c1 = r.swapped ? r.cond_x : r.cond_y;
  if (!r.pyr->servable2d(p0, p1, c0, c1)) return std::nullopt;
  return r;
}

/// The value set a snapped window covers, as a refinable interval: level
/// bins [lo, hi) hold exactly {v : edge(lo) <= v < edge(hi)}, except a
/// window reaching the top of the domain, whose last bin is closed.
Interval window_interval(const agg::Pyramid& pyr, const agg::SlicePlan& plan,
                         const std::vector<double>& edges) {
  return Interval{edges.front(), edges.back(), /*lo_open=*/false,
                  /*hi_open=*/plan.hi != pyr.bins_at(plan.level)};
}

}  // namespace

Selection::Selection(std::shared_ptr<detail::EngineState> state,
                     std::shared_ptr<const ExecutionPlan> plan)
    : state_(std::move(state)), plan_(std::move(plan)) {}

const io::TimestepTable& Selection::table(std::size_t t) const {
  if (!state_) throw std::logic_error("Selection: invalid (default-constructed)");
  return state_->dataset.table(t);
}

bool Selection::selects_all() const { return !plan_ || !plan_->canonical(); }

std::shared_ptr<const BitVector> Selection::bits(std::size_t t) const {
  const io::TimestepTable& tbl = table(t);  // throws on an invalid handle
  return plan_->evaluate(tbl, state_->mode, state_->budget.get(),
                         "bv|t#" + std::to_string(t) + "|");
}

std::uint64_t Selection::count(std::size_t t) const {
  if (selects_all()) return table(t).num_rows();
  return bits(t)->count();
}

std::vector<std::uint64_t> Selection::ids(std::size_t t) const {
  const std::span<const std::uint64_t> id_col = table(t).id_column("id");
  std::vector<std::uint64_t> out;
  if (selects_all()) {
    out.assign(id_col.begin(), id_col.end());
    return out;
  }
  kern::for_each_set_blocked(
      *bits(t), [&](std::uint64_t row) { out.push_back(id_col[row]); });
  return out;
}

Selection Selection::refine(const std::string& query_text) const {
  return refine(parse_query(query_text));
}

Selection Selection::refine(QueryPtr extra) const {
  if (!state_) throw std::logic_error("Selection: invalid (default-constructed)");
  if (!extra) return *this;
  QueryPtr combined =
      selects_all() ? std::move(extra)
                    : Query::land(plan_->canonical(), std::move(extra));
  return engine().select(std::move(combined));
}

Histogram1D Selection::histogram1d(std::size_t t, const std::string& variable,
                                   std::size_t nbins, BinningMode binning) const {
  return table(t).engine().histogram1d(
      variable, nbins, selects_all() ? nullptr : bits(t).get(), binning);
}

Histogram2D Selection::histogram2d(std::size_t t, const std::string& x,
                                   const std::string& y, std::size_t nxbins,
                                   std::size_t nybins, BinningMode binning) const {
  return table(t).engine().histogram2d(
      x, y, nxbins, nybins, selects_all() ? nullptr : bits(t).get(), binning);
}

Zoom1DResult Selection::zoom_histogram1d(std::size_t t,
                                         const std::string& variable,
                                         double view_lo, double view_hi,
                                         std::size_t nbins,
                                         ZoomMode mode) const {
  if (!(view_hi > view_lo) || nbins == 0)
    throw std::invalid_argument(
        "zoom_histogram1d: need view_hi > view_lo and nbins > 0");
  const io::TimestepTable& tbl = table(t);
  const auto& marginals = plan().marginal_intervals();
  const auto r = resolve_zoom1d(tbl, marginals ? &*marginals : nullptr,
                                variable, view_lo, view_hi, nbins);

  Zoom1DResult out;
  if (r && mode == ZoomMode::kAuto) try {
    std::vector<std::uint64_t> counts;
    if (r->pyr->ndims() == 1) {
      counts = r->pyr->slice_counts1d(r->plan, r->cond_var);
    } else {
      // Marginalize the pair pyramid over its other (fully-spanned) axis.
      const std::size_t nfull = r->pyr->bins_at(r->plan.level);
      const agg::SlicePlan full{r->plan.level, 0, nfull};
      counts.assign(r->plan.bins(), 0);
      if (r->axis == 0) {
        const auto c2 = r->pyr->slice_counts2d(r->plan, full, r->cond_var,
                                               r->cond_other);
        for (std::size_t j = 0; j < counts.size(); ++j)
          for (std::size_t k = 0; k < nfull; ++k)
            counts[j] += c2[j * nfull + k];
      } else {
        const auto c2 = r->pyr->slice_counts2d(full, r->plan, r->cond_other,
                                               r->cond_var);
        for (std::size_t k = 0; k < nfull; ++k)
          for (std::size_t j = 0; j < counts.size(); ++j)
            counts[j] += c2[k * counts.size() + j];
      }
    }
    const std::vector<double> edges = r->pyr->slice_edges(r->axis, r->plan);
    if (!edges.empty()) out.hist.bins = Bins(edges);
    out.hist.counts = std::move(counts);
    out.pyramid = true;
    out.level = static_cast<int>(r->plan.level);
    state_->pyramid_served.fetch_add(1, std::memory_order_relaxed);
    return out;
  } catch (const io::IntegrityError&) {
    // A level failed its checksum mid-serve. The pyramid quarantined itself
    // (it now reports as absent from the table), so re-resolving routes
    // this — and every later — zoom to the exact path, and kAuto keeps
    // agreeing with kExact bit-for-bit (DESIGN.md §15).
    return zoom_histogram1d(t, variable, view_lo, view_hi, nbins, mode);
  }

  if (r) {
    // kExact on a servable request: the differential twin — identical
    // snapped grid, answered by the kernel path. Restricting the selection
    // to the window's value interval (not the raw viewport) reproduces the
    // node semantics exactly, including the closed top bin.
    out.level = static_cast<int>(r->plan.level);
    const std::vector<double> edges = r->pyr->slice_edges(r->axis, r->plan);
    if (edges.empty()) return out;  // empty window: empty histogram
    const Interval view = window_interval(*r->pyr, r->plan, edges);
    const Selection refined = refine(Query::interval(variable, view));
    out.hist = tbl.engine().histogram1d(variable, Bins(edges),
                                        *refined.bits(t));
    return out;
  }

  // Below the resolution threshold, no pyramid on disk, or a non-marginal
  // predicate: exact kernels over viewport-uniform bins.
  if (mode == ZoomMode::kAuto)
    state_->pyramid_fallback.fetch_add(1, std::memory_order_relaxed);
  const Bins bins = make_uniform_bins(view_lo, view_hi, nbins);
  const Selection refined =
      refine(Query::interval(variable, Interval{view_lo, view_hi,
                                                /*lo_open=*/false,
                                                /*hi_open=*/false}));
  out.hist = tbl.engine().histogram1d(variable, bins, *refined.bits(t));
  return out;
}

Zoom2DResult Selection::zoom_histogram2d(
    std::size_t t, const std::string& x, const std::string& y,
    double view_lo_x, double view_hi_x, double view_lo_y, double view_hi_y,
    std::size_t nxbins, std::size_t nybins, ZoomMode mode) const {
  if (!(view_hi_x > view_lo_x) || !(view_hi_y > view_lo_y) || nxbins == 0 ||
      nybins == 0)
    throw std::invalid_argument(
        "zoom_histogram2d: need view_hi > view_lo and nbins > 0 on both axes");
  const io::TimestepTable& tbl = table(t);
  const auto& marginals = plan().marginal_intervals();
  const auto r = resolve_zoom2d(tbl, marginals ? &*marginals : nullptr, x, y,
                                view_lo_x, view_hi_x, view_lo_y, view_hi_y,
                                nxbins, nybins);

  Zoom2DResult out;
  if (r && mode == ZoomMode::kAuto) try {
    const agg::SlicePlan& p0 = r->swapped ? r->plan_y : r->plan_x;
    const agg::SlicePlan& p1 = r->swapped ? r->plan_x : r->plan_y;
    const auto c2 = r->pyr->slice_counts2d(p0, p1,
                                           r->swapped ? r->cond_y : r->cond_x,
                                           r->swapped ? r->cond_x : r->cond_y);
    const std::size_t nx = r->plan_x.bins();
    const std::size_t ny = r->plan_y.bins();
    out.hist.counts.assign(nx * ny, 0);
    if (r->swapped) {
      for (std::size_t jy = 0; jy < ny; ++jy)  // c2 is [jy * nx + jx]
        for (std::size_t jx = 0; jx < nx; ++jx)
          out.hist.counts[jx * ny + jy] = c2[jy * nx + jx];
    } else {
      out.hist.counts = c2;
    }
    const std::vector<double> xedges =
        r->pyr->slice_edges(r->swapped ? 1 : 0, r->plan_x);
    const std::vector<double> yedges =
        r->pyr->slice_edges(r->swapped ? 0 : 1, r->plan_y);
    if (!xedges.empty()) out.hist.xbins = Bins(xedges);
    if (!yedges.empty()) out.hist.ybins = Bins(yedges);
    out.pyramid = true;
    out.level = static_cast<int>(r->plan_x.level);
    state_->pyramid_served.fetch_add(1, std::memory_order_relaxed);
    return out;
  } catch (const io::IntegrityError&) {
    // Same recovery as the 1D serve: the quarantined pyramid reports as
    // absent on re-resolve, so the exact path answers.
    return zoom_histogram2d(t, x, y, view_lo_x, view_hi_x, view_lo_y,
                            view_hi_y, nxbins, nybins, mode);
  }

  if (r) {
    out.level = static_cast<int>(r->plan_x.level);
    const std::vector<double> xedges =
        r->pyr->slice_edges(r->swapped ? 1 : 0, r->plan_x);
    const std::vector<double> yedges =
        r->pyr->slice_edges(r->swapped ? 0 : 1, r->plan_y);
    if (xedges.empty() || yedges.empty()) {
      if (!xedges.empty()) out.hist.xbins = Bins(xedges);
      if (!yedges.empty()) out.hist.ybins = Bins(yedges);
      return out;
    }
    const Interval view_x = window_interval(*r->pyr, r->plan_x, xedges);
    const Interval view_y = window_interval(*r->pyr, r->plan_y, yedges);
    const Selection refined =
        refine(Query::land(Query::interval(x, view_x),
                           Query::interval(y, view_y)));
    out.hist = tbl.engine().histogram2d(x, y, Bins(xedges), Bins(yedges),
                                        *refined.bits(t));
    return out;
  }

  if (mode == ZoomMode::kAuto)
    state_->pyramid_fallback.fetch_add(1, std::memory_order_relaxed);
  const Bins xbins = make_uniform_bins(view_lo_x, view_hi_x, nxbins);
  const Bins ybins = make_uniform_bins(view_lo_y, view_hi_y, nybins);
  const Selection refined = refine(Query::land(
      Query::interval(x, Interval{view_lo_x, view_hi_x, false, false}),
      Query::interval(y, Interval{view_lo_y, view_hi_y, false, false})));
  out.hist = tbl.engine().histogram2d(x, y, xbins, ybins, *refined.bits(t));
  return out;
}

std::optional<ZoomPlan> Selection::zoom_plan1d(std::size_t t,
                                               const std::string& variable,
                                               double view_lo, double view_hi,
                                               std::size_t nbins) const {
  if (!state_ || !(view_hi > view_lo) || nbins == 0) return std::nullopt;
  const auto& marginals = plan().marginal_intervals();
  const auto r = resolve_zoom1d(table(t), marginals ? &*marginals : nullptr,
                                variable, view_lo, view_hi, nbins);
  if (!r) return std::nullopt;
  ZoomPlan zp;
  zp.level = r->plan.level;
  zp.xlo = r->plan.lo;
  zp.xhi = r->plan.hi;
  zp.pair = r->pyr->ndims() == 2;
  return zp;
}

std::optional<ZoomPlan> Selection::zoom_plan2d(
    std::size_t t, const std::string& x, const std::string& y,
    double view_lo_x, double view_hi_x, double view_lo_y, double view_hi_y,
    std::size_t nxbins, std::size_t nybins) const {
  if (!state_ || !(view_hi_x > view_lo_x) || !(view_hi_y > view_lo_y) ||
      nxbins == 0 || nybins == 0)
    return std::nullopt;
  const auto& marginals = plan().marginal_intervals();
  const auto r = resolve_zoom2d(table(t), marginals ? &*marginals : nullptr,
                                x, y, view_lo_x, view_hi_x, view_lo_y,
                                view_hi_y, nxbins, nybins);
  if (!r) return std::nullopt;
  ZoomPlan zp;
  zp.level = r->plan_x.level;
  zp.xlo = r->plan_x.lo;
  zp.xhi = r->plan_x.hi;
  zp.ylo = r->plan_y.lo;
  zp.yhi = r->plan_y.hi;
  zp.pair = true;
  return zp;
}

SummaryStats Selection::summary(std::size_t t, const std::string& variable) const {
  return conditional_stats(table(t), variable,
                           selects_all() ? nullptr : bits(t).get());
}

const ExecutionPlan& Selection::plan() const {
  if (!plan_) throw std::logic_error("Selection: invalid (default-constructed)");
  return *plan_;
}

const QueryPtr& Selection::query() const {
  if (!plan_) {
    static const QueryPtr kNull;
    return kNull;
  }
  return plan_->canonical();
}

const std::string& Selection::cache_key() const { return plan().key(); }

std::string Selection::explain() const {
  if (!state_) return plan().explain();
  std::string out = plan().explain(
      state_->dataset.num_timesteps() > 0 ? &state_->dataset.table(0) : nullptr,
      state_->mode);
  // Live cache / memory-budget snapshot (the engine-side counters the plan
  // alone cannot know).
  const io::MemoryBudgetStats b = state_->budget->stats();
  std::ostringstream os;
  os << "cache:     " << b.of(io::ResidentClass::kBitVector).hits << " hits, "
     << b.of(io::ResidentClass::kBitVector).misses << " misses, "
     << b.of(io::ResidentClass::kBitVector).entries << " bitvectors ("
     << b.of(io::ResidentClass::kBitVector).bytes << " B)\n";
  os << "memory:    resident " << b.resident_bytes << " B";
  if (b.budget_bytes == io::MemoryBudget::kUnlimited)
    os << " (no budget)";
  else
    os << " / budget " << b.budget_bytes << " B";
  os << ", columns " << b.of(io::ResidentClass::kColumn).bytes
     << " B, segments " << b.of(io::ResidentClass::kIndexSegment).bytes
     << " B, evictions " << b.evictions << "\n";
  return out + os.str();
}

Engine Selection::engine() const {
  Engine e;
  e.state_ = state_;
  return e;
}

}  // namespace qdv::core
