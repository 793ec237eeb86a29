#include "bitmap/index_segments.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace qdv {

using detail::read_unaligned;

SegmentedBitmapIndex SegmentedBitmapIndex::open(
    std::span<const std::byte> image, std::shared_ptr<const void> keeper) {
  SegmentedBitmapIndex index;
  index.image_ = image;
  index.keeper_ = std::move(keeper);
  std::size_t cursor = 0;
  index.nrows_ = read_unaligned<std::uint64_t>(image, cursor);
  cursor += 8;
  // Every count read from the image is bounded by the bytes behind it
  // before anything is allocated: a forged count must throw, not commit
  // gigabytes first.
  const auto nedges = read_unaligned<std::uint64_t>(image, cursor);
  cursor += 8;
  if (nedges > (image.size() - cursor) / sizeof(double))
    throw std::runtime_error("SegmentedBitmapIndex: truncated index image");
  std::vector<double> edges(static_cast<std::size_t>(nedges));
  std::memcpy(edges.data(), image.data() + cursor,
              static_cast<std::size_t>(nedges) * sizeof(double));
  cursor += static_cast<std::size_t>(nedges) * sizeof(double);
  index.bins_ = Bins(std::move(edges));
  const auto nbitmaps = read_unaligned<std::uint64_t>(image, cursor);
  cursor += 8;
  // One record per bin (then the outside record): a count that disagrees
  // with the edges above would let bin lookups index past the directory.
  if (nbitmaps != index.bins_.num_bins())
    throw std::runtime_error("SegmentedBitmapIndex: bitmap count mismatch");
  // The directory: walk the record headers only, never the payloads.
  index.offsets_.reserve(static_cast<std::size_t>(nbitmaps) + 2);
  index.offsets_.push_back(cursor);
  for (std::uint64_t b = 0; b <= nbitmaps; ++b) {  // bins, then outside
    cursor += BitVector::serialized_size(image, cursor);  // throws on overrun
    index.offsets_.push_back(cursor);
  }
  index.outside_empty_ =
      index.decode_segment(index.outside_segment()).count() == 0;
  return index;
}

BitVector SegmentedBitmapIndex::decode_segment(std::size_t s) const {
  std::size_t cursor = static_cast<std::size_t>(offsets_[s]);
  return BitVector::load(image_, cursor);
}

ApproxAnswer SegmentedBitmapIndex::evaluate_approx(
    const Interval& iv, const SegmentFetch& fetch) const {
  const detail::BinCoverage cov = detail::classify_bins(bins_, iv);
  std::vector<std::size_t> full_segments, candidate_segments;
  for (std::ptrdiff_t b = cov.full_lo; b <= cov.full_hi; ++b)
    full_segments.push_back(static_cast<std::size_t>(b));
  candidate_segments = cov.partial;
  if (!outside_empty_) candidate_segments.push_back(outside_segment());

  // Pins (fetch path) or local decodes (direct path) backing the pointers
  // handed to or_many.
  std::vector<std::shared_ptr<const BitVector>> pins;
  std::vector<BitVector> decoded;
  decoded.reserve(full_segments.size() + candidate_segments.size());
  const auto resolve = [&](std::size_t s) -> const BitVector* {
    if (fetch) {
      pins.push_back(fetch(s));
      return pins.back().get();
    }
    decoded.push_back(decode_segment(s));
    return &decoded.back();
  };

  ApproxAnswer out;
  std::vector<const BitVector*> operands;
  operands.reserve(full_segments.size());
  for (const std::size_t s : full_segments) operands.push_back(resolve(s));
  out.hits = or_many(std::move(operands), nrows_);
  operands.clear();
  operands.reserve(candidate_segments.size());
  for (const std::size_t s : candidate_segments) operands.push_back(resolve(s));
  out.candidates = or_many(std::move(operands), nrows_);
  return out;
}

BitVector SegmentedBitmapIndex::evaluate(const Interval& iv,
                                         std::span<const double> values,
                                         const SegmentFetch& fetch) const {
  return detail::resolve_candidates(iv, evaluate_approx(iv, fetch), values,
                                    nrows_);
}

std::size_t SegmentedBitmapIndex::metadata_bytes() const {
  return bins_.edges().capacity() * sizeof(double) +
         offsets_.capacity() * sizeof(std::uint64_t);
}

}  // namespace qdv
