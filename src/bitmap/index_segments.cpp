#include "bitmap/index_segments.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/checksum.hpp"

namespace qdv {

using detail::read_unaligned;

SegmentedBitmapIndex SegmentedBitmapIndex::open(
    std::span<const std::byte> image, std::shared_ptr<const void> keeper,
    SectionCheck check) {
  // Every record starts 4-byte aligned within the image (the header is
  // whole u64s, a record 24 bytes plus its words), so an aligned image
  // lets a probe read each segment's words where they lie.
  if (reinterpret_cast<std::uintptr_t>(image.data()) % alignof(std::uint32_t) != 0)
    throw std::runtime_error("SegmentedBitmapIndex: image not 4-byte aligned");
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
  index.check_ = std::move(check);
  if (index.check_) index.check_(0, image.first(index.offsets_[0]));
  index.states_ =
      std::make_unique<std::atomic<std::uint8_t>[]>(index.num_segments());
  index.check_mutex_ = std::make_unique<std::mutex>();
  index.outside_empty_ = index.touch(index.outside_segment()) == kEmpty;
  return index;
}

BitVector SegmentedBitmapIndex::decode_segment(std::size_t s) const {
  std::size_t cursor = static_cast<std::size_t>(offsets_[s]);
  return BitVector::load(image_, cursor);
}

kern::WahView SegmentedBitmapIndex::view(std::size_t s) const {
  // Record layout: nbits u64 | nwords u64 | active u32 | active_bits u32 |
  // words; the directory already bounded the words by the image.
  const std::size_t at = static_cast<std::size_t>(offsets_[s]);
  const auto* words = reinterpret_cast<const std::uint32_t*>(
      image_.data() + at + BitVector::kRecordHeaderBytes);
  return {{words, static_cast<std::size_t>(segment_words(s))},
          read_unaligned<std::uint32_t>(image_, at + 16),
          read_unaligned<std::uint32_t>(image_, at + 20)};
}

SegmentedBitmapIndex::SegmentState SegmentedBitmapIndex::touch(
    std::size_t s) const {
  const auto state =
      static_cast<SegmentState>(states_[s].load(std::memory_order_acquire));
  if (state != kUnchecked) [[likely]]
    return state;
  // First touch: check once, under the mutex, so concurrent probes of a
  // cold index neither repeat a check nor read a segment before it passes.
  std::lock_guard<std::mutex> lock(*check_mutex_);
  if (const auto again = states_[s].load(std::memory_order_relaxed);
      again != kUnchecked)
    return static_cast<SegmentState>(again);
  if (check_) check_(offsets_[s], image_.subspan(offsets_[s], segment_bytes(s)));
  const kern::WahView v = view(s);
  const auto nbits = read_unaligned<std::uint64_t>(image_, offsets_[s]);
  if (const char* fault = BitVector::record_fault(nbits, v.words, v.tail, v.tail_bits))
    throw io::IntegrityError("malformed bitmap segment " + std::to_string(s) +
                             " (" + fault + ")");
  const SegmentState checked = kern::count_words(v) > 0 ? kHoldsRows : kEmpty;
  states_[s].store(checked, std::memory_order_release);
  return checked;
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
    const ProbePlan& plan) const {
  Probe probe;
  probe.nrows = nrows_;
  probe.complement = plan.complement;
  // One read per segment: on the complement side the partial bins and the
  // outside bitmap are ORed and checked both.
  const auto read = [&](std::size_t s, bool ored, bool candidate) {
    const bool holds_rows = touch(s) == kHoldsRows;
    const kern::WahView v = view(s);
    ++probe.segments;
    if (candidate && holds_rows) probe.candidates.push_back(v);
    if (ored) probe.or_side.push_back(v);
  };
  for (std::size_t b = 0; b < plan.status.size(); ++b) {
    const bool ored = (plan.status[b] == kFull) != probe.complement;
    if (ored || plan.status[b] == kPartial)
      read(b, ored, plan.status[b] == kPartial);
  }
  if (!outside_empty_) read(outside_segment(), probe.complement, true);
  return probe;
}

BitVector SegmentedBitmapIndex::Probe::run(std::span<const Interval> ivs,
                                           std::span<const double> values) const {
  return kern::probe_intervals(or_side, complement, candidates, ivs, values,
                               nrows);
}

std::size_t SegmentedBitmapIndex::metadata_bytes() const {
  return bins_.edges().capacity() * sizeof(double) +
         offsets_.capacity() * sizeof(std::uint64_t) + num_segments();
}

}  // namespace qdv
