#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "bitmap/kernels.hpp"

namespace qdv::core {

ExplorationSession ExplorationSession::open(const std::filesystem::path& dir) {
  return ExplorationSession(Engine::open(dir));
}

ExplorationSession::ExplorationSession(Engine engine)
    : engine_(std::move(engine)),
      focus_(engine_.all()),
      context_(engine_.all()) {}

void ExplorationSession::set_focus(const std::string& query_text) {
  focus_ = engine_.select(query_text);
}

void ExplorationSession::set_focus(QueryPtr query) {
  focus_ = engine_.select(std::move(query));
}

void ExplorationSession::set_focus(Selection selection) {
  focus_ = std::move(selection);
}

void ExplorationSession::clear_focus() { focus_ = engine_.all(); }

void ExplorationSession::set_context(const std::string& query_text) {
  context_ = engine_.select(query_text);
}

void ExplorationSession::set_context(QueryPtr query) {
  context_ = engine_.select(std::move(query));
}

void ExplorationSession::set_context(Selection selection) {
  context_ = std::move(selection);
}

void ExplorationSession::clear_context() { context_ = engine_.all(); }

std::uint64_t ExplorationSession::focus_count(std::size_t t) const {
  return focus_.count(t);
}

std::vector<std::uint64_t> ExplorationSession::selected_ids(std::size_t t) const {
  return focus_.ids(t);
}

std::pair<double, double> ExplorationSession::global_domain(
    const std::string& name) const {
  return dataset().global_domain(name);
}

std::vector<Histogram2D> ExplorationSession::pair_histograms(
    std::size_t t, const std::vector<std::string>& axes, std::size_t bins_per_axis,
    const Selection& selection, BinningMode binning) const {
  if (axes.size() < 2)
    throw std::invalid_argument("pair_histograms: need at least 2 axes");
  const io::TimestepTable& table = dataset().table(t);
  std::vector<Bins> bins;
  std::vector<std::span<const double>> columns;
  bins.reserve(axes.size());
  columns.reserve(axes.size());
  for (const std::string& name : axes) {
    // Bins over the global (cross-timestep) domain, so histograms of
    // different timesteps and pairs align.
    const auto [lo, hi] = global_domain(name);
    columns.push_back(table.column(name));
    bins.push_back(make_bins(lo, hi, columns.back(), bins_per_axis, binning));
  }
  // One cached evaluation serves every pair histogram of the walk.
  std::shared_ptr<const BitVector> rows;
  if (selection.valid() && !selection.selects_all()) rows = selection.bits(t);
  std::vector<Histogram2D> hists;
  hists.reserve(axes.size() - 1);
  for (std::size_t pair = 0; pair + 1 < axes.size(); ++pair)
    hists.push_back(tally2d(columns[pair], columns[pair + 1], bins[pair],
                            bins[pair + 1], rows.get()));
  return hists;
}

std::vector<Histogram2D> ExplorationSession::pair_histograms(
    std::size_t t, const std::vector<std::string>& axes, std::size_t bins_per_axis,
    BinningMode binning) const {
  return pair_histograms(t, axes, bins_per_axis, Selection(), binning);
}

ParticleTracks ExplorationSession::track(
    const std::vector<std::uint64_t>& ids, std::size_t t_from, std::size_t t_to,
    const std::vector<std::string>& variables) const {
  if (t_to >= num_timesteps()) t_to = num_timesteps() - 1;
  if (t_from > t_to) t_from = t_to;
  std::vector<std::size_t> steps;
  for (std::size_t t = t_from; t <= t_to; ++t) steps.push_back(t);
  ParticleTracks tracks(ids, steps, variables);
  for (std::size_t ti = 0; ti < steps.size(); ++ti) {
    const io::TimestepTable& table = dataset().table(steps[ti]);
    // Row of each tracked id at this timestep (-1 when absent).
    std::vector<std::ptrdiff_t> row_of(ids.size(), -1);
    if (const IdIndex* index = table.id_index("id")) {
      for (std::size_t k = 0; k < ids.size(); ++k)
        row_of[k] = index->lookup_row(ids[k]);
    } else {
      std::unordered_map<std::uint64_t, std::uint32_t> lookup;
      const std::span<const std::uint64_t> id_col = table.id_column("id");
      lookup.reserve(id_col.size());
      for (std::uint32_t r = 0; r < id_col.size(); ++r) lookup.emplace(id_col[r], r);
      for (std::size_t k = 0; k < ids.size(); ++k)
        if (const auto it = lookup.find(ids[k]); it != lookup.end())
          row_of[k] = it->second;
    }
    for (std::size_t vi = 0; vi < variables.size(); ++vi) {
      const std::span<const double> values = table.column(variables[vi]);
      std::vector<double>& slot = tracks.values_slot(ti, vi);
      for (std::size_t k = 0; k < ids.size(); ++k)
        if (row_of[k] >= 0) slot[k] = values[static_cast<std::size_t>(row_of[k])];
    }
  }
  return tracks;
}

std::vector<render::PcAxis> ExplorationSession::make_axes(
    const std::vector<std::string>& names) const {
  std::vector<render::PcAxis> axes;
  axes.reserve(names.size());
  for (const std::string& name : names) {
    const auto [lo, hi] = global_domain(name);
    axes.push_back({name, lo, hi > lo ? hi : lo + 1.0});
  }
  return axes;
}

render::Image ExplorationSession::render_parallel_coordinates(
    std::size_t t, const std::vector<std::string>& axes,
    const PcViewOptions& options) const {
  render::ParallelCoordinatesPlot plot(make_axes(axes), options.layout);
  plot.draw_frame();
  {
    render::PcStyle style;
    style.color = options.context_color;
    style.gamma = options.context_gamma;
    style.max_alpha = 0.85f;
    plot.draw_histogram_layer(
        pair_histograms(t, axes, options.context_bins, context_, options.binning),
        style);
  }
  if (!focus_.selects_all()) {
    render::PcStyle style;
    style.color = options.focus_color;
    style.gamma = options.focus_gamma;
    plot.draw_histogram_layer(
        pair_histograms(t, axes, options.focus_bins, focus_, options.binning),
        style);
  }
  return plot.image();
}

render::Image ExplorationSession::render_temporal(
    std::size_t t_from, std::size_t t_to, const std::vector<std::string>& axes,
    const PcViewOptions& options) const {
  if (t_to >= num_timesteps()) t_to = num_timesteps() - 1;
  render::ParallelCoordinatesPlot plot(make_axes(axes), options.layout);
  plot.draw_frame();
  for (std::size_t t = t_from; t <= t_to; ++t) {
    render::PcStyle style;
    style.color = render::palette_color(t - t_from);
    style.gamma = options.focus_gamma;
    style.max_alpha = 0.9f;
    plot.draw_histogram_layer(
        pair_histograms(t, axes, options.focus_bins, focus_, options.binning),
        style);
  }
  return plot.image();
}

render::Image ExplorationSession::render_scatter(
    std::size_t t, const std::string& x, const std::string& y,
    const std::string& color_variable) const {
  constexpr std::size_t kWidth = 800, kHeight = 600, kMargin = 24;
  render::Image img(kWidth, kHeight);
  const io::TimestepTable& table = dataset().table(t);
  const std::span<const double> xs = table.column(x);
  const std::span<const double> ys = table.column(y);
  const std::span<const double> cs = table.column(color_variable);
  const auto [xlo, xhi] = global_domain(x);
  const auto [ylo, yhi] = global_domain(y);
  const auto [clo, chi] = global_domain(color_variable);
  const double xspan = xhi > xlo ? xhi - xlo : 1.0;
  const double yspan = yhi > ylo ? yhi - ylo : 1.0;
  const double cspan = chi > clo ? chi - clo : 1.0;
  const auto px = [&](double v) {
    return static_cast<std::ptrdiff_t>(
        kMargin + (v - xlo) / xspan * static_cast<double>(kWidth - 2 * kMargin));
  };
  const auto py = [&](double v) {
    return static_cast<std::ptrdiff_t>(
        (kHeight - kMargin) -
        (v - ylo) / yspan * static_cast<double>(kHeight - 2 * kMargin));
  };
  // Context: every record (or the context selection) as a dim backdrop.
  const auto draw_dim = [&](std::uint64_t row) {
    img.add(px(xs[row]), py(ys[row]), render::colors::kGray, 0.18f);
  };
  if (context_.selects_all()) {
    for (std::uint64_t row = 0; row < xs.size(); ++row) draw_dim(row);
  } else {
    kern::for_each_set_blocked(*context_.bits(t), draw_dim);
  }
  // Focus (or everything when unset): pseudocolored by the color variable.
  const auto draw_colored = [&](std::uint64_t row) {
    const render::Color c = render::pseudocolor((cs[row] - clo) / cspan);
    const std::ptrdiff_t cx = px(xs[row]);
    const std::ptrdiff_t cy = py(ys[row]);
    for (std::ptrdiff_t dx = 0; dx < 2; ++dx)
      for (std::ptrdiff_t dy = 0; dy < 2; ++dy) img.set(cx + dx, cy + dy, c);
  };
  if (focus_.selects_all()) {
    for (std::uint64_t row = 0; row < xs.size(); ++row) draw_colored(row);
  } else {
    kern::for_each_set_blocked(*focus_.bits(t), draw_colored);
  }
  return img;
}

}  // namespace qdv::core
