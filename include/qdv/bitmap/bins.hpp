// Bin boundary sets for bitmap indices and histograms: uniform, quantile
// (equal-count), and precision binning (bin edges on round decimal values, so
// low-precision range constants are answered from the index alone).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "bitmap/simd.hpp"

namespace qdv {

class Bins {
 public:
  Bins() = default;
  explicit Bins(std::vector<double> edges);

  /// Cached, fully-inlineable bin lookup for hot loops: uniform bin sets
  /// take a branchless `(v - lo) * inv_width` + clamp path, non-uniform
  /// ones a fixed-shape halving search over the cached edge array — either
  /// way no out-of-line call per value. Returns the same bin as
  /// Bins::locate for every input (locate stays the scalar reference used
  /// by the differential tests). Borrows the Bins' edge storage: the Bins
  /// must outlive the Locator.
  class Locator {
   public:
    explicit Locator(const Bins& bins)
        : edges_(bins.edges_.data()),
          nedges_(bins.edges_.size()),
          last_(static_cast<std::ptrdiff_t>(bins.num_bins()) - 1),
          inv_width_(bins.inv_width_),
          lo_(bins.edges_.empty() ? 0.0 : bins.edges_.front()),
          hi_(bins.edges_.empty() ? 0.0 : bins.edges_.back()),
          width_(bins.width_),
          uniform_(bins.uniform_),
          affine_(bins.affine_),
          empty_(bins.edges_.size() < 2) {}

    std::ptrdiff_t operator()(double value) const {
      // The negated comparison also rejects NaN (which would otherwise hit
      // the float->integer cast, undefined behavior).
      if (empty_ || !(value >= lo_ && value <= hi_)) return -1;
      if (uniform_) {
        auto bin = static_cast<std::ptrdiff_t>((value - lo_) * inv_width_);
        bin = bin > last_ ? last_ : bin;
        // Settle one-ulp disagreements between the arithmetic and the
        // stored edges, exactly as Bins::locate does.
        if (value < edges_[bin]) {
          --bin;
        } else if (bin < last_ && value >= edges_[bin + 1]) {
          ++bin;
        }
        return bin;
      }
      // Halving search for the last edge <= value: fixed iteration shape,
      // no per-step bounds branch.
      std::size_t lo = 0;
      std::size_t n = nedges_;
      while (n > 1) {
        const std::size_t half = n / 2;
        lo += edges_[lo + half] <= value ? half : 0;
        n -= half;
      }
      return std::min(static_cast<std::ptrdiff_t>(lo), last_);
    }

    /// Flattened POD view for the SIMD dispatch table (simd.hpp): same
    /// cached fields, no class dependency. Borrows the edge storage, so the
    /// same lifetime rule applies (the Bins must outlive the view).
    simd::LocatorView view() const {
      simd::LocatorView v;
      v.edges = edges_;
      v.nedges = nedges_;
      v.last = static_cast<std::int64_t>(last_);
      v.inv_width = inv_width_;
      v.lo = lo_;
      v.hi = hi_;
      v.width = width_;
      v.uniform = uniform_;
      v.affine = affine_;
      v.empty = empty_;
      return v;
    }

   private:
    const double* edges_;
    std::size_t nedges_;
    std::ptrdiff_t last_;
    double inv_width_;
    double lo_;
    double hi_;
    double width_;
    bool uniform_;
    bool affine_;
    bool empty_;
  };

  std::size_t num_bins() const { return edges_.empty() ? 0 : edges_.size() - 1; }
  const std::vector<double>& edges() const { return edges_; }
  double lo() const { return edges_.front(); }
  double hi() const { return edges_.back(); }
  double width(std::size_t bin) const { return edges_[bin + 1] - edges_[bin]; }

  /// Bin index of @p value, or -1 if outside [lo, hi]. Bins are half-open
  /// [e_i, e_{i+1}) except the last, which is closed. Uniform bin sets use an
  /// O(1) arithmetic path. Scalar reference for Locator: per-value loops on
  /// hot paths should build a Locator once instead.
  std::ptrdiff_t locate(double value) const;

  /// Build the cached lookup for this bin set (see Locator).
  Locator locator() const { return Locator(*this); }

  bool is_uniform() const { return uniform_; }

  bool operator==(const Bins& other) const { return edges_ == other.edges_; }

 private:
  std::vector<double> edges_;
  bool uniform_ = false;
  bool affine_ = false;  // edges bit-exactly lo + k*width (see bins.cpp)
  double inv_width_ = 0.0;  // 1 / uniform bin width
  double width_ = 0.0;      // uniform bin width
};

/// Throws std::invalid_argument (naming @p who) unless an @p nbins + 1 edge
/// array can exist, i.e. nbins + 1 neither wraps nor exceeds what a
/// std::vector<double> can hold. make_uniform_bins, make_quantile_bins and
/// make_equal_weight_bins check this first, so a wire-supplied bin count
/// like SIZE_MAX is a typed error, not a wrapped zero-length allocation.
void check_edge_count(std::size_t nbins, const char* who);

/// @p nbins equal-width bins over [lo, hi].
Bins make_uniform_bins(double lo, double hi, std::size_t nbins);

/// Equal-count bins from the empirical distribution of @p values.
Bins make_quantile_bins(std::span<const double> values, std::size_t nbins);

/// Bin edges on multiples of a power-of-ten step so that any range constant
/// with at most @p digits significant decimal digits falls exactly on an
/// edge (no candidate check needed). The step is coarsened until the bin
/// count fits within @p max_bins.
Bins make_precision_bins(double lo, double hi, int digits, std::size_t max_bins);

}  // namespace qdv
