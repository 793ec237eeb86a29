#include "bitmap/histogram.hpp"

#include <algorithm>
#include <stdexcept>

#include "bitmap/kernels.hpp"
#include "bitmap/simd.hpp"
#include "io/timestep_table.hpp"

namespace qdv {

std::uint64_t Histogram1D::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : counts) sum += c;
  return sum;
}

std::uint64_t Histogram1D::max_count() const {
  return counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
}

std::size_t Histogram1D::nonempty_bins() const {
  return static_cast<std::size_t>(
      std::count_if(counts.begin(), counts.end(),
                    [](std::uint64_t c) { return c != 0; }));
}

double Histogram2D::density(std::size_t ix, std::size_t iy) const {
  const double area = xbins.width(ix) * ybins.width(iy);
  if (area <= 0.0) return 0.0;
  return static_cast<double>(at(ix, iy)) / area;
}

std::uint64_t Histogram2D::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : counts) sum += c;
  return sum;
}

std::uint64_t Histogram2D::max_count() const {
  return counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
}

std::size_t Histogram2D::nonempty_bins() const {
  return static_cast<std::size_t>(
      std::count_if(counts.begin(), counts.end(),
                    [](std::uint64_t c) { return c != 0; }));
}

Bins make_equal_weight_bins(const Histogram1D& fine, std::size_t nbins) {
  check_edge_count(nbins, "make_equal_weight_bins");
  if (nbins == 0) throw std::invalid_argument("make_equal_weight_bins: nbins == 0");
  const std::uint64_t total = fine.total();
  const std::size_t nfine = fine.bins.num_bins();
  if (total == 0 || nfine <= nbins) return fine.bins;
  const double target = static_cast<double>(total) / static_cast<double>(nbins);
  std::vector<double> edges;
  edges.reserve(nbins + 1);
  edges.push_back(fine.bins.edges().front());
  std::uint64_t acc = 0;
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < nfine; ++i) {
    acc += fine.counts[i];
    // Close the current merged bin once it reaches its share, keeping enough
    // fine bins in reserve for the remaining merged bins.
    const std::size_t remaining_fine = nfine - i - 1;
    const std::size_t remaining_merged = nbins - emitted - 1;
    if (remaining_merged == 0) break;
    if (static_cast<double>(acc) >=
            target * static_cast<double>(emitted + 1) - 0.5 ||
        remaining_fine <= remaining_merged) {
      if (fine.bins.edges()[i + 1] > edges.back()) {
        edges.push_back(fine.bins.edges()[i + 1]);
        ++emitted;
      }
    }
  }
  if (fine.bins.edges().back() > edges.back())
    edges.push_back(fine.bins.edges().back());
  if (edges.size() < 2) return fine.bins;
  return Bins(std::move(edges));
}

Bins make_adaptive_bins(double lo, double hi, std::span<const double> values,
                        std::size_t nbins) {
  const double safe_hi = hi > lo ? hi : lo + 1.0;
  const std::size_t oversample = std::clamp<std::size_t>(nbins * 8, 1024, 16384);
  Histogram1D fine;
  fine.bins = make_uniform_bins(lo, safe_hi, oversample);
  fine.counts.assign(oversample, 0);
  // The oversampling bins are uniform: the vectorized locate turns the
  // per-value search into one multiply + clamp across lanes.
  const Bins::Locator locate = fine.bins.locator();
  const simd::LocatorView view = locate.view();
  const simd::Ops& ops = simd::ops();
  simd::count_hist1d_call(simd::has_vector_hist1d(ops));
  kern::sharded_tally(
      values.size(), fine.counts.size(), fine.counts.data(),
      [&](std::uint64_t begin, std::uint64_t end, std::uint64_t* counts) {
        ops.hist1d_dense(values.data() + begin,
                         static_cast<std::size_t>(end - begin), view, counts);
      });
  return make_equal_weight_bins(fine, nbins);
}

Bins HistogramEngine::bins_for(const std::string& variable, std::size_t nbins,
                               BinningMode binning) const {
  const auto [lo, hi] = table_->domain(variable);
  if (binning == BinningMode::kUniform)
    return make_uniform_bins(lo, hi > lo ? hi : lo + 1.0, nbins);
  return make_adaptive_bins(lo, hi, table_->column(variable), nbins);
}

Histogram1D HistogramEngine::histogram1d(const std::string& variable,
                                         std::size_t nbins, const Query* condition,
                                         BinningMode binning) const {
  if (condition != nullptr) {
    // Two-step conditional evaluation: index answer first, then gather only
    // the matching records.
    return histogram1d(variable, nbins, table_->query(*condition, mode_), binning);
  }
  Histogram1D h;
  h.bins = bins_for(variable, nbins, binning);
  h.counts.assign(h.bins.num_bins(), 0);
  const std::span<const double> values = table_->column(variable);
  const Bins::Locator locate = h.bins.locator();
  const simd::LocatorView view = locate.view();
  const simd::Ops& ops = simd::ops();
  simd::count_hist1d_call(simd::has_vector_hist1d(ops));
  kern::sharded_tally(
      values.size(), h.counts.size(), h.counts.data(),
      [&](std::uint64_t begin, std::uint64_t end, std::uint64_t* counts) {
        ops.hist1d_dense(values.data() + begin,
                         static_cast<std::size_t>(end - begin), view, counts);
      });
  return h;
}

Histogram1D HistogramEngine::histogram1d(const std::string& variable,
                                         std::size_t nbins, const BitVector& rows,
                                         BinningMode binning) const {
  Histogram1D h;
  h.bins = bins_for(variable, nbins, binning);
  h.counts.assign(h.bins.num_bins(), 0);
  const std::span<const double> values = table_->column(variable);
  const Bins::Locator locate = h.bins.locator();
  // Block gather; each shard decodes only its row window of the condition
  // bitvector.
  kern::sharded_tally(
      values.size(), h.counts.size(), h.counts.data(),
      [&](std::uint64_t begin, std::uint64_t end, std::uint64_t* counts) {
        kern::gather_hist1d(rows, begin, end, values.data(), locate, counts);
      });
  return h;
}

Histogram1D HistogramEngine::histogram1d(const std::string& variable,
                                         const Bins& bins,
                                         const BitVector& rows) const {
  Histogram1D h;
  h.bins = bins;
  h.counts.assign(h.bins.num_bins(), 0);
  if (h.counts.empty()) return h;
  const std::span<const double> values = table_->column(variable);
  const Bins::Locator locate = h.bins.locator();
  kern::sharded_tally(
      values.size(), h.counts.size(), h.counts.data(),
      [&](std::uint64_t begin, std::uint64_t end, std::uint64_t* counts) {
        kern::gather_hist1d(rows, begin, end, values.data(), locate, counts);
      });
  return h;
}

Histogram2D HistogramEngine::histogram2d(const std::string& x, const std::string& y,
                                         std::size_t nxbins, std::size_t nybins,
                                         const Query* condition,
                                         BinningMode binning) const {
  if (condition != nullptr)
    return histogram2d(x, y, nxbins, nybins, table_->query(*condition, mode_),
                       binning);
  Histogram2D h;
  h.xbins = bins_for(x, nxbins, binning);
  h.ybins = bins_for(y, nybins, binning);
  h.counts.assign(h.xbins.num_bins() * h.ybins.num_bins(), 0);
  const std::span<const double> xs = table_->column(x);
  const std::span<const double> ys = table_->column(y);
  const std::size_t ny = h.ybins.num_bins();
  const Bins::Locator xloc = h.xbins.locator();
  const Bins::Locator yloc = h.ybins.locator();
  const simd::LocatorView xview = xloc.view();
  const simd::LocatorView yview = yloc.view();
  const simd::Ops& ops = simd::ops();
  simd::count_hist2d_call(simd::has_vector_hist2d(ops));
  kern::sharded_tally(
      xs.size(), h.counts.size(), h.counts.data(),
      [&](std::uint64_t begin, std::uint64_t end, std::uint64_t* counts) {
        ops.hist2d_dense(xs.data() + begin, ys.data() + begin,
                         static_cast<std::size_t>(end - begin), xview, yview,
                         ny, counts);
      });
  return h;
}

Histogram2D HistogramEngine::histogram2d(const std::string& x, const std::string& y,
                                         std::size_t nxbins, std::size_t nybins,
                                         const BitVector& rows,
                                         BinningMode binning) const {
  Histogram2D h;
  h.xbins = bins_for(x, nxbins, binning);
  h.ybins = bins_for(y, nybins, binning);
  h.counts.assign(h.xbins.num_bins() * h.ybins.num_bins(), 0);
  const std::span<const double> xs = table_->column(x);
  const std::span<const double> ys = table_->column(y);
  const std::size_t ny = h.ybins.num_bins();
  const Bins::Locator xloc = h.xbins.locator();
  const Bins::Locator yloc = h.ybins.locator();
  kern::sharded_tally(
      xs.size(), h.counts.size(), h.counts.data(),
      [&](std::uint64_t begin, std::uint64_t end, std::uint64_t* counts) {
        kern::gather_hist2d(rows, begin, end, xs.data(), ys.data(), xloc, yloc,
                            ny, counts);
      });
  return h;
}

Histogram2D HistogramEngine::histogram2d(const std::string& x, const std::string& y,
                                         const Bins& xbins, const Bins& ybins,
                                         const BitVector& rows) const {
  Histogram2D h;
  h.xbins = xbins;
  h.ybins = ybins;
  h.counts.assign(h.xbins.num_bins() * h.ybins.num_bins(), 0);
  if (h.counts.empty()) return h;
  const std::span<const double> xs = table_->column(x);
  const std::span<const double> ys = table_->column(y);
  const std::size_t ny = h.ybins.num_bins();
  const Bins::Locator xloc = h.xbins.locator();
  const Bins::Locator yloc = h.ybins.locator();
  kern::sharded_tally(
      xs.size(), h.counts.size(), h.counts.data(),
      [&](std::uint64_t begin, std::uint64_t end, std::uint64_t* counts) {
        kern::gather_hist2d(rows, begin, end, xs.data(), ys.data(), xloc, yloc,
                            ny, counts);
      });
  return h;
}

}  // namespace qdv
