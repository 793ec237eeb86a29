#include "bitmap/index_segments.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "bitmap/kernels.hpp"

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

namespace {
enum Status : std::uint8_t { kNone, kPartial, kFull };
}  // namespace

SegmentedBitmapIndex::ProbePlan SegmentedBitmapIndex::plan(
    std::span<const Interval> ivs) const {
  // Per-bin status over the union: full if some interval covers the whole
  // bin, partial if some interval touches it, none otherwise.
  const std::size_t nbins = bins_.num_bins();
  ProbePlan plan;
  plan.status.assign(nbins, kNone);
  for (const Interval& iv : ivs) {
    if (iv.empty()) continue;
    const detail::BinCoverage cov = detail::classify_bins(bins_, iv);
    for (std::ptrdiff_t b = cov.full_lo; b <= cov.full_hi; ++b)
      plan.status[static_cast<std::size_t>(b)] = kFull;
    for (const std::size_t b : cov.partial)
      if (plan.status[b] == kNone) plan.status[b] = kPartial;
  }
  // The bins and the outside bitmap partition the rows, so the complement
  // of every non-full segment is exactly the full bins.
  std::uint64_t inside_words = 0, complement_words = 0, candidate_words = 0;
  // An empty segment is one zero fill per 2^30 - 1 groups, so a longer
  // (canonical) segment holds a row.
  const std::uint64_t groups = nrows_ / BitVector::kGroupBits;
  const std::uint64_t empty_words = (groups + 0x3FFFFFFEu) / 0x3FFFFFFFu;
  plan.may_be_index_only = outside_empty_;
  for (std::size_t b = 0; b < nbins; ++b) {
    const std::uint64_t words = segment_words(b);
    (plan.status[b] == kFull ? inside_words : complement_words) += words;
    if (plan.status[b] == kPartial) {
      candidate_words += words;
      plan.may_be_index_only &= words <= empty_words;
    }
  }
  if (!outside_empty_) {
    complement_words += segment_words(outside_segment());
    candidate_words += segment_words(outside_segment());
  }
  plan.complement = complement_words < inside_words;
  plan.words = std::min(inside_words, complement_words) + candidate_words;
  return plan;
}

SegmentedBitmapIndex::Probe SegmentedBitmapIndex::pin(
    const ProbePlan& plan, const SegmentFetch& fetch) const {
  Probe probe;
  probe.nrows = nrows_;
  probe.complement = plan.complement;
  const auto get = [&](std::size_t s) {
    return fetch ? fetch(s)
                 : std::make_shared<const BitVector>(decode_segment(s));
  };
  const auto add_candidate = [&](const std::shared_ptr<const BitVector>& bits) {
    if (bits->count() > 0) probe.candidates.push_back(bits);
  };
  // One fetch per segment: on the complement side the partial bins and the
  // outside bitmap are ORed and checked both.
  for (std::size_t b = 0; b < plan.status.size(); ++b) {
    const bool ored = (plan.status[b] == kFull) != probe.complement;
    if (!ored && plan.status[b] != kPartial) continue;
    std::shared_ptr<const BitVector> bits = get(b);
    if (plan.status[b] == kPartial) add_candidate(bits);
    if (ored) probe.or_side.push_back(std::move(bits));
  }
  if (!outside_empty_) {
    std::shared_ptr<const BitVector> bits = get(outside_segment());
    add_candidate(bits);
    if (probe.complement) probe.or_side.push_back(std::move(bits));
  }
  return probe;
}

BitVector SegmentedBitmapIndex::Probe::run(std::span<const Interval> ivs,
                                           std::span<const double> values) const {
  const auto raw = [](const std::vector<std::shared_ptr<const BitVector>>& v) {
    std::vector<const BitVector*> out;
    out.reserve(v.size());
    for (const auto& p : v) out.push_back(p.get());
    return out;
  };
  return kern::probe_intervals(raw(or_side), complement, raw(candidates), ivs,
                               values, nrows);
}

std::size_t SegmentedBitmapIndex::metadata_bytes() const {
  return bins_.edges().capacity() * sizeof(double) +
         offsets_.capacity() * sizeof(std::uint64_t);
}

}  // namespace qdv
