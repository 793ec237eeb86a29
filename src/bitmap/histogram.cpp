#include "bitmap/histogram.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

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

Bins make_bins(double lo, double hi, std::span<const double> values,
               std::size_t nbins, BinningMode binning) {
  const double safe_hi = hi > lo ? hi : lo + 1.0;
  if (binning == BinningMode::kUniform)
    return make_uniform_bins(lo, safe_hi, nbins);
  const std::size_t oversample = std::clamp<std::size_t>(nbins * 8, 1024, 16384);
  return make_equal_weight_bins(
      tally1d(values, make_uniform_bins(lo, safe_hi, oversample)), nbins);
}

Histogram1D tally1d(std::span<const double> values, Bins bins,
                    const BitVector* rows) {
  Histogram1D h;
  h.bins = std::move(bins);
  h.counts.assign(h.bins.num_bins(), 0);
  if (h.counts.empty()) return h;
  const Bins::Locator loc = h.bins.locator();
  const simd::LocatorView view = loc.view();
  const simd::Ops& ops = simd::ops();
  // The gather kernel counts its own dispatch, once per shard; each shard
  // decodes only its row window of the bitvector.
  if (rows == nullptr) simd::count_hist1d_call(simd::has_vector_hist1d(ops));
  kern::sharded_tally(
      values.size(), rows != nullptr ? rows->count() : values.size(),
      h.counts.size(), h.counts.data(),
      [&](std::uint64_t begin, std::uint64_t end, std::uint64_t* counts) {
        if (rows != nullptr) {
          kern::gather_hist1d(*rows, begin, end, values.data(), loc, counts);
        } else {
          ops.hist1d_dense(values.data() + begin,
                           static_cast<std::size_t>(end - begin), view, counts);
        }
      });
  return h;
}

Histogram2D tally2d(std::span<const double> xs, std::span<const double> ys,
                    Bins xbins, Bins ybins, const BitVector* rows) {
  Histogram2D h;
  h.xbins = std::move(xbins);
  h.ybins = std::move(ybins);
  h.counts.assign(h.nx() * h.ny(), 0);
  if (h.counts.empty()) return h;
  const Bins::Locator xloc = h.xbins.locator();
  const Bins::Locator yloc = h.ybins.locator();
  const simd::LocatorView xview = xloc.view();
  const simd::LocatorView yview = yloc.view();
  const std::size_t ny = h.ny();
  const simd::Ops& ops = simd::ops();
  if (rows == nullptr) simd::count_hist2d_call(simd::has_vector_hist2d(ops));
  kern::sharded_tally(
      xs.size(), rows != nullptr ? rows->count() : xs.size(), h.counts.size(),
      h.counts.data(),
      [&](std::uint64_t begin, std::uint64_t end, std::uint64_t* counts) {
        if (rows != nullptr) {
          kern::gather_hist2d(*rows, begin, end, xs.data(), ys.data(), xloc,
                              yloc, ny, counts);
        } else {
          ops.hist2d_dense(xs.data() + begin, ys.data() + begin,
                           static_cast<std::size_t>(end - begin), xview, yview,
                           ny, counts);
        }
      });
  return h;
}

Histogram1D HistogramEngine::histogram1d(const std::string& variable,
                                         std::size_t nbins, const BitVector* rows,
                                         BinningMode binning) const {
  const auto [lo, hi] = table_->domain(variable);
  const std::span<const double> values = table_->column(variable);
  return tally1d(values, make_bins(lo, hi, values, nbins, binning), rows);
}

Histogram1D HistogramEngine::histogram1d(const std::string& variable,
                                         const Bins& bins,
                                         const BitVector& rows) const {
  return tally1d(table_->column(variable), bins, &rows);
}

Histogram2D HistogramEngine::histogram2d(const std::string& x, const std::string& y,
                                         std::size_t nxbins, std::size_t nybins,
                                         const BitVector* rows,
                                         BinningMode binning) const {
  const auto [xlo, xhi] = table_->domain(x);
  const auto [ylo, yhi] = table_->domain(y);
  const std::span<const double> xs = table_->column(x);
  const std::span<const double> ys = table_->column(y);
  return tally2d(xs, ys, make_bins(xlo, xhi, xs, nxbins, binning),
                 make_bins(ylo, yhi, ys, nybins, binning), rows);
}

Histogram2D HistogramEngine::histogram2d(const std::string& x, const std::string& y,
                                         const Bins& xbins, const Bins& ybins,
                                         const BitVector& rows) const {
  const std::span<const double> xs = table_->column(x);
  const std::span<const double> ys = table_->column(y);
  return tally2d(xs, ys, xbins, ybins, &rows);
}

}  // namespace qdv
