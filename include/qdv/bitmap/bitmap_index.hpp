// Equality-encoded bitmap index (FastBit's default): one WAH-compressed
// bitmap per bin plus one for the rows outside the bins. BitmapIndex builds
// the index and writes its `.bmi` image; range queries run against that
// image through SegmentedBitmapIndex (bitmap/index_segments.hpp), the
// two-step evaluation described in DESIGN.md Section 3.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "bitmap/bins.hpp"
#include "bitmap/bitvector.hpp"
#include "bitmap/interval.hpp"

namespace qdv {

namespace detail {
/// Classification of the bin range covered by an interval: bins
/// [full_lo, full_hi] are certain hits (empty when full_lo > full_hi);
/// partial bins need a candidate check.
struct BinCoverage {
  std::ptrdiff_t full_lo = 0;
  std::ptrdiff_t full_hi = -1;
  std::vector<std::size_t> partial;
};
BinCoverage classify_bins(const Bins& bins, const Interval& iv);
}  // namespace detail

class BitmapIndex {
 public:
  static BitmapIndex build(std::span<const double> values, const Bins& bins);

  const Bins& bins() const { return bins_; }
  std::uint64_t num_rows() const { return nrows_; }
  const BitVector& bin_bitmap(std::size_t bin) const { return bitmaps_[bin]; }

  /// Writes the `.bmi` image that SegmentedBitmapIndex::open reads back.
  void save(std::ostream& out) const;

 private:
  Bins bins_;
  std::uint64_t nrows_ = 0;
  std::vector<BitVector> bitmaps_;  // one per bin
  BitVector outside_;               // rows outside [bins.lo, bins.hi]
};

/// Row lookup index over an unsigned integer identifier column.
class IdIndex {
 public:
  static IdIndex build(std::span<const std::uint64_t> ids);

  /// Rows whose id is in @p search, ascending and deduplicated — the same
  /// result (and order) a sequential scan would produce.
  std::vector<std::uint32_t> lookup_rows(std::span<const std::uint64_t> search) const;

  /// Row of a single id, or -1 if absent.
  std::ptrdiff_t lookup_row(std::uint64_t id) const;

  std::uint64_t num_rows() const { return rows_.size(); }
  std::size_t memory_bytes() const;

  void save(std::ostream& out) const;
  /// Parse a saved image (e.g. a mapped `.idi`). Throws std::runtime_error
  /// when the image is shorter than its declared entry count needs.
  static IdIndex load(std::span<const std::byte> image);

 private:
  std::vector<std::uint64_t> sorted_ids_;
  std::vector<std::uint32_t> rows_;  // rows_[i] = row of sorted_ids_[i]
};

}  // namespace qdv
