#include "bitmap/bitmap_index.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace qdv {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Interval Interval::greater_than(double v) { return {v, kInf, true, true}; }
Interval Interval::at_least(double v) { return {v, kInf, false, true}; }
Interval Interval::less_than(double v) { return {-kInf, v, true, true}; }
Interval Interval::at_most(double v) { return {-kInf, v, true, false}; }
Interval Interval::between(double lo, double hi) { return {lo, hi, false, true}; }
Interval Interval::everything() { return {-kInf, kInf, true, true}; }

Interval intersect(const Interval& a, const Interval& b) {
  Interval out = a;
  if (b.lo > out.lo || (b.lo == out.lo && b.lo_open) || std::isnan(b.lo)) {
    out.lo = b.lo;
    out.lo_open = b.lo_open;
  }
  if (b.hi < out.hi || (b.hi == out.hi && b.hi_open) || std::isnan(b.hi)) {
    out.hi = b.hi;
    out.hi_open = b.hi_open;
  }
  return out;
}

namespace detail {

BinCoverage classify_bins(const Bins& bins, const Interval& iv) {
  BinCoverage cov;
  const std::size_t n = bins.num_bins();
  cov.full_lo = static_cast<std::ptrdiff_t>(n);
  cov.full_hi = -1;
  const auto& e = bins.edges();
  for (std::size_t b = 0; b < n; ++b) {
    const double e0 = e[b];
    const double e1 = e[b + 1];
    const bool last = (b + 1 == n);  // last bin is closed: [e0, e1]
    // Disjoint from the interval?
    const bool below = last ? (e1 < iv.lo || (e1 == iv.lo && iv.lo_open))
                            : (e1 <= iv.lo);
    const bool above = e0 > iv.hi || (e0 == iv.hi && iv.hi_open);
    if (below || above) continue;
    // Fully contained: every representable value of the bin satisfies iv.
    const bool lo_ok = e0 > iv.lo || (e0 == iv.lo && !iv.lo_open);
    const bool hi_ok = last ? (e1 < iv.hi || (e1 == iv.hi && !iv.hi_open))
                            : (e1 <= iv.hi);
    if (lo_ok && hi_ok) {
      cov.full_lo = std::min(cov.full_lo, static_cast<std::ptrdiff_t>(b));
      cov.full_hi = std::max(cov.full_hi, static_cast<std::ptrdiff_t>(b));
    } else {
      cov.partial.push_back(b);
    }
  }
  if (cov.full_lo > cov.full_hi) {
    cov.full_lo = 0;
    cov.full_hi = -1;
  }
  return cov;
}

}  // namespace detail

BitmapIndex BitmapIndex::build(std::span<const double> values, const Bins& bins) {
  // Group the row ids by bin (ascending within each bin, bin b at
  // [offsets[b], offsets[b + 1])), then build one bitmap per group.
  const std::size_t n = bins.num_bins();
  std::vector<std::int32_t> bin_of(values.size());
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<std::uint32_t> outside;
  const Bins::Locator locate = bins.locator();
  for (std::size_t row = 0; row < values.size(); ++row) {
    const std::ptrdiff_t b = locate(values[row]);
    bin_of[row] = static_cast<std::int32_t>(b);
    if (b >= 0)
      ++offsets[static_cast<std::size_t>(b) + 1];
    else
      outside.push_back(static_cast<std::uint32_t>(row));
  }
  for (std::size_t b = 0; b < n; ++b) offsets[b + 1] += offsets[b];
  std::vector<std::uint32_t> grouped(offsets.back());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t row = 0; row < values.size(); ++row)
    if (bin_of[row] >= 0)
      grouped[cursor[static_cast<std::size_t>(bin_of[row])]++] =
          static_cast<std::uint32_t>(row);

  BitmapIndex index;
  index.bins_ = bins;
  index.nrows_ = values.size();
  index.bitmaps_.reserve(n);
  for (std::size_t b = 0; b < n; ++b)
    index.bitmaps_.push_back(BitVector::from_positions(
        std::span(grouped).subspan(offsets[b], offsets[b + 1] - offsets[b]),
        index.nrows_));
  index.outside_ = BitVector::from_positions(outside, index.nrows_);
  return index;
}

void BitmapIndex::save(std::ostream& out) const {
  const std::uint64_t nedges = bins_.edges().size();
  const std::uint64_t nbitmaps = bitmaps_.size();
  out.write(reinterpret_cast<const char*>(&nrows_), sizeof(nrows_));
  out.write(reinterpret_cast<const char*>(&nedges), sizeof(nedges));
  out.write(reinterpret_cast<const char*>(bins_.edges().data()),
            static_cast<std::streamsize>(nedges * sizeof(double)));
  out.write(reinterpret_cast<const char*>(&nbitmaps), sizeof(nbitmaps));
  for (const BitVector& b : bitmaps_) b.save(out);
  outside_.save(out);
}

IdIndex IdIndex::build(std::span<const std::uint64_t> ids) {
  IdIndex index;
  index.rows_.resize(ids.size());
  for (std::uint32_t r = 0; r < ids.size(); ++r) index.rows_[r] = r;
  std::sort(index.rows_.begin(), index.rows_.end(),
            [&](std::uint32_t a, std::uint32_t b) { return ids[a] < ids[b]; });
  index.sorted_ids_.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    index.sorted_ids_[i] = ids[index.rows_[i]];
  return index;
}

std::vector<std::uint32_t> IdIndex::lookup_rows(
    std::span<const std::uint64_t> search) const {
  std::vector<std::uint32_t> out;
  out.reserve(search.size());
  for (const std::uint64_t id : search) {
    auto it = std::lower_bound(sorted_ids_.begin(), sorted_ids_.end(), id);
    for (; it != sorted_ids_.end() && *it == id; ++it)
      out.push_back(rows_[static_cast<std::size_t>(it - sorted_ids_.begin())]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::ptrdiff_t IdIndex::lookup_row(std::uint64_t id) const {
  const auto it = std::lower_bound(sorted_ids_.begin(), sorted_ids_.end(), id);
  if (it == sorted_ids_.end() || *it != id) return -1;
  return rows_[static_cast<std::size_t>(it - sorted_ids_.begin())];
}

std::size_t IdIndex::memory_bytes() const {
  return sorted_ids_.capacity() * sizeof(std::uint64_t) +
         rows_.capacity() * sizeof(std::uint32_t);
}

void IdIndex::save(std::ostream& out) const {
  const std::uint64_t n = sorted_ids_.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(sorted_ids_.data()),
            static_cast<std::streamsize>(n * sizeof(std::uint64_t)));
  out.write(reinterpret_cast<const char*>(rows_.data()),
            static_cast<std::streamsize>(n * sizeof(std::uint32_t)));
}

IdIndex IdIndex::load(std::span<const std::byte> image) {
  const auto n = detail::read_unaligned<std::uint64_t>(image, 0);
  // Bound the on-disk count by the bytes behind it before allocating: a
  // forged count must fail here, not commit gigabytes first.
  constexpr std::size_t kEntryBytes =
      sizeof(std::uint64_t) + sizeof(std::uint32_t);
  if (n > (image.size() - sizeof(n)) / kEntryBytes)
    throw std::runtime_error("IdIndex::load: truncated image");
  IdIndex index;
  index.sorted_ids_.resize(static_cast<std::size_t>(n));
  index.rows_.resize(static_cast<std::size_t>(n));
  const std::byte* ids = image.data() + sizeof(n);
  std::memcpy(index.sorted_ids_.data(), ids, n * sizeof(std::uint64_t));
  std::memcpy(index.rows_.data(), ids + n * sizeof(std::uint64_t),
              n * sizeof(std::uint32_t));
  return index;
}

}  // namespace qdv
