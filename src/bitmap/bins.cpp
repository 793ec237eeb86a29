#include "bitmap/bins.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace qdv {

Bins::Bins(std::vector<double> edges) : edges_(std::move(edges)) {
  if (edges_.size() < 2) throw std::invalid_argument("Bins: need at least 2 edges");
  if (!std::is_sorted(edges_.begin(), edges_.end()))
    throw std::invalid_argument("Bins: edges must be sorted");
  // Detect uniform spacing for the O(1) locate path. An infinite span (bin
  // sets whose outer edges are +-inf, e.g. quantile bins over data with
  // infinities) must take the search path: w = inf would make the tolerance
  // below infinite (accepting everything) and (value - lo) * inv_width NaN
  // for infinite values that still pass the [lo, hi] containment test.
  const double w = (edges_.back() - edges_.front()) / static_cast<double>(num_bins());
  uniform_ = std::isfinite(w) && w > 0.0;
  for (std::size_t i = 0; uniform_ && i + 1 < edges_.size(); ++i) {
    const double actual = edges_[i + 1] - edges_[i];
    if (std::abs(actual - w) > 1e-9 * std::max(1.0, std::abs(w))) uniform_ = false;
  }
  if (uniform_) {
    inv_width_ = 1.0 / w;
    width_ = w;
    // Affine detection for the vector locate: when every edge the uniform
    // verify step can read (k <= num_bins(); the final edge is never read —
    // e0's index is at most `last`, and e1 at `last + 1` only matters when
    // bin < last) equals lo + k*w under separate mul-then-add rounding, the
    // SIMD kernels compute their verify edges in-register instead of
    // gathering them. The volatile intermediate pins that rounding (no FMA
    // contraction), matching the vector mul/add instruction sequence.
    affine_ = true;
    for (std::size_t k = 0; affine_ && k + 1 < edges_.size(); ++k) {
      volatile const double m = w * static_cast<double>(k);
      if (m + edges_.front() != edges_[k]) affine_ = false;
    }
  }
}

std::ptrdiff_t Bins::locate(double value) const {
  // The negated comparison also rejects NaN (which would otherwise reach the
  // float->integer cast below, undefined behavior).
  if (edges_.empty() || !(value >= edges_.front() && value <= edges_.back()))
    return -1;
  const std::ptrdiff_t last = static_cast<std::ptrdiff_t>(num_bins()) - 1;
  if (uniform_) {
    auto bin = std::min(
        static_cast<std::ptrdiff_t>((value - edges_.front()) * inv_width_), last);
    // Settle one-ulp disagreements between the arithmetic and the stored
    // edges: index queries compare against the edges, so locate must too.
    if (value < edges_[static_cast<std::size_t>(bin)]) {
      --bin;
    } else if (bin < last && value >= edges_[static_cast<std::size_t>(bin) + 1]) {
      ++bin;
    }
    return bin;
  }
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), value);
  const auto bin = static_cast<std::ptrdiff_t>(it - edges_.begin()) - 1;
  return std::min(bin, last);
}

void check_edge_count(std::size_t nbins, const char* who) {
  if (nbins >= std::vector<double>().max_size())
    throw std::invalid_argument(std::string(who) + ": " +
                                std::to_string(nbins) + " bins is too many");
}

Bins make_uniform_bins(double lo, double hi, std::size_t nbins) {
  check_edge_count(nbins, "make_uniform_bins");
  if (nbins == 0 || !(hi > lo))
    throw std::invalid_argument("make_uniform_bins: empty range");
  std::vector<double> edges(nbins + 1);
  const double w = (hi - lo) / static_cast<double>(nbins);
  for (std::size_t i = 0; i <= nbins; ++i)
    edges[i] = lo + w * static_cast<double>(i);
  edges.back() = hi;
  return Bins(std::move(edges));
}

Bins make_quantile_bins(std::span<const double> values, std::size_t nbins) {
  check_edge_count(nbins, "make_quantile_bins");
  if (values.empty() || nbins == 0)
    throw std::invalid_argument("make_quantile_bins: empty input");
  // NaN rows never land in a bin (the locate contract), so they must not
  // shape the bin edges either — and sorting NaN is undefined behavior.
  std::vector<double> sorted;
  sorted.reserve(values.size());
  for (const double v : values)
    if (!std::isnan(v)) sorted.push_back(v);
  if (sorted.empty())
    throw std::invalid_argument("make_quantile_bins: all-NaN input");
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> edges;
  edges.reserve(nbins + 1);
  edges.push_back(sorted.front());
  for (std::size_t i = 1; i < nbins; ++i) {
    const std::size_t rank = i * sorted.size() / nbins;
    const double e = sorted[rank];
    if (e > edges.back()) edges.push_back(e);
  }
  if (sorted.back() > edges.back()) edges.push_back(sorted.back());
  if (edges.size() < 2) edges.push_back(edges.back() + 1.0);  // constant column
  return Bins(std::move(edges));
}

Bins make_precision_bins(double lo, double hi, int digits, std::size_t max_bins) {
  if (!(hi > lo) || digits < 1 || max_bins < 1)
    throw std::invalid_argument("make_precision_bins: bad arguments");
  // Resolution: the decade of the span, refined by (digits - 1) decimal
  // places; coarsened by 10x until the bin count fits.
  double step = std::pow(10.0, std::floor(std::log10(hi - lo)) -
                                   static_cast<double>(digits - 1));
  auto count_for = [&](double s) {
    return static_cast<std::size_t>(std::ceil(hi / s) - std::floor(lo / s));
  };
  while (count_for(step) > max_bins) step *= 10.0;
  const auto first = static_cast<long long>(std::floor(lo / step));
  const auto last = static_cast<long long>(std::ceil(hi / step));
  std::vector<double> edges;
  edges.reserve(static_cast<std::size_t>(last - first) + 1);
  for (long long k = first; k <= last; ++k)
    edges.push_back(static_cast<double>(k) * step);
  return Bins(std::move(edges));
}

}  // namespace qdv
