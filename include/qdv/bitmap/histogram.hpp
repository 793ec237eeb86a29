// Conditional histograms through the FastBit-style two-step evaluation:
// the condition's rows come first (a query plan answers them, from the
// bitmap indices or a scan: core/plan.hpp), then only those records are
// gathered and binned (DESIGN.md Section 5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bitmap/bins.hpp"
#include "bitmap/bitvector.hpp"

namespace qdv {

namespace io {
class TimestepTable;
}  // namespace io

enum class BinningMode {
  kUniform,   // equal-width bins over the variable's domain
  kAdaptive,  // equal-weight bins via oversample + merge
};

struct Histogram1D {
  Bins bins;
  std::vector<std::uint64_t> counts;

  std::uint64_t total() const;
  std::uint64_t max_count() const;
  std::size_t nonempty_bins() const;
};

struct Histogram2D {
  Bins xbins;
  Bins ybins;
  std::vector<std::uint64_t> counts;  // row-major: counts[ix * ny + iy]

  std::size_t nx() const { return xbins.num_bins(); }
  std::size_t ny() const { return ybins.num_bins(); }
  std::uint64_t& at(std::size_t ix, std::size_t iy) { return counts[ix * ny() + iy]; }
  std::uint64_t at(std::size_t ix, std::size_t iy) const { return counts[ix * ny() + iy]; }
  /// Count per unit area — comparable across non-uniform (adaptive) bins.
  double density(std::size_t ix, std::size_t iy) const;

  std::uint64_t total() const;
  std::uint64_t max_count() const;
  std::size_t nonempty_bins() const;
};

/// Equal-weight bins derived from a finer histogram: greedily merge fine
/// bins until each merged bin holds ~total/nbins records (the paper's
/// adaptive binning, Section III-B).
Bins make_equal_weight_bins(const Histogram1D& fine, std::size_t nbins);

/// The one bins rule of every histogram over a variable's domain: uniform
/// bins over [lo, hi], widened to [lo, lo + 1] when hi <= lo (a constant
/// column), or adaptive ones — oversample @p values with a fine uniform
/// histogram over the same range, then merge to @p nbins equal-weight bins.
/// @p values is read only by BinningMode::kAdaptive.
Bins make_bins(double lo, double hi, std::span<const double> values,
               std::size_t nbins, BinningMode binning);

/// The one tally of every histogram: counts of @p values in @p bins, over
/// all rows or, when @p rows is given, only its set rows (the gather half
/// of the two-step conditional evaluation). Runs the SIMD dispatch table's
/// dense or gather kernel under kern::sharded_tally and counts the
/// dispatch; values outside the bins (and NaN) are dropped.
Histogram1D tally1d(std::span<const double> values, Bins bins,
                    const BitVector* rows = nullptr);

/// 2D twin of tally1d over the column pair (@p xs, @p ys); counts are
/// row-major counts[ix * ny + iy].
Histogram2D tally2d(std::span<const double> xs, std::span<const double> ys,
                    Bins xbins, Bins ybins, const BitVector* rows = nullptr);

/// Histograms over one timestep table's columns. Lightweight handle:
/// obtained from TimestepTable::engine().
class HistogramEngine {
 public:
  explicit HistogramEngine(const io::TimestepTable& table) : table_(&table) {}

  /// Over the table domain's bins: every row, or only the set rows of
  /// @p rows when given (an evaluated condition, e.g. a Selection's
  /// cached bitvector).
  Histogram1D histogram1d(const std::string& variable, std::size_t nbins,
                          const BitVector* rows = nullptr,
                          BinningMode binning = BinningMode::kUniform) const;

  Histogram2D histogram2d(const std::string& x, const std::string& y,
                          std::size_t nxbins, std::size_t nybins,
                          const BitVector* rows = nullptr,
                          BinningMode binning = BinningMode::kUniform) const;

  /// Variants over caller-supplied bin edges — the exact twin of a
  /// pyramid-served zoom window (core::Selection::zoom_histogram*), where
  /// the edges come from the pyramid's snapped level slice rather than the
  /// table domain.
  Histogram1D histogram1d(const std::string& variable, const Bins& bins,
                          const BitVector& rows) const;

  Histogram2D histogram2d(const std::string& x, const std::string& y,
                          const Bins& xbins, const Bins& ybins,
                          const BitVector& rows) const;

 private:
  const io::TimestepTable* table_;
};

}  // namespace qdv
