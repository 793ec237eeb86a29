// Segment-wise (lazy) view of a serialized equality-encoded bitmap index.
//
// A BitmapIndex image on disk (`<var>.bmi`, DESIGN.md Section 2) is a
// header (row count + bin edges) followed by one WAH bitmap per bin and a
// final "outside" bitmap. SegmentedBitmapIndex parses only the header and a
// byte-offset directory of the segments, so opening an index touches O(bins)
// record headers instead of deserializing every bitmap; a range query then
// decodes only the segments its probe reads (DESIGN.md Section 9).
// BitmapIndex builds and writes the image; every query reads it through
// this class. A probe answers a union of intervals on the variable in one
// pass (DESIGN.md Section 3): it ORs whichever side of the bins costs fewer
// compressed words, the bins fully inside the union or every other segment
// (then inverted), and checks only the boundary rows against the column.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "bitmap/bins.hpp"
#include "bitmap/bitmap_index.hpp"
#include "bitmap/bitvector.hpp"
#include "bitmap/interval.hpp"

namespace qdv {

/// Lazily-decoded bitmap index over a serialized image.
///
/// Ownership: the index holds a pin (@p keeper) on the byte image it was
/// opened over — typically an io::MappedFile — so the image outlives the
/// index regardless of who mapped it. Decoded segments are returned by
/// value (or through the caller's fetch hook); the index itself stays
/// metadata-sized (edges + offsets).
/// Thread-safety: immutable after open(); decode/plan/pin are const and
/// safe to call concurrently.
class SegmentedBitmapIndex {
 public:
  SegmentedBitmapIndex() = default;

  /// Parse the header and segment directory of @p image (a serialized
  /// BitmapIndex). @p keeper keeps the image bytes alive. Throws
  /// std::runtime_error on a truncated image.
  static SegmentedBitmapIndex open(std::span<const std::byte> image,
                                   std::shared_ptr<const void> keeper);

  const Bins& bins() const { return bins_; }
  std::uint64_t num_rows() const { return nrows_; }

  /// Segments 0..num_bins()-1 are the per-bin bitmaps; segment num_bins()
  /// is the "outside the binned range" bitmap.
  std::size_t num_segments() const { return offsets_.size() - 1; }
  std::size_t outside_segment() const { return num_segments() - 1; }

  /// Serialized byte length of segment @p s (what a decode reads).
  std::uint64_t segment_bytes(std::size_t s) const {
    return offsets_[s + 1] - offsets_[s];
  }

  /// Compressed words of segment @p s, read off the directory (no decode):
  /// the cost a probe weighs when it picks which side of the bins to OR.
  std::uint64_t segment_words(std::size_t s) const {
    return (segment_bytes(s) - BitVector::kRecordHeaderBytes) /
           sizeof(std::uint32_t);
  }

  /// Byte offset of segment @p s in the image — segment_offset(0) is also
  /// the header length. With segment_bytes() this names the exact byte
  /// range a decode touches, which is the granularity the integrity layer
  /// records checksums at (io/checksum.hpp).
  std::uint64_t segment_offset(std::size_t s) const { return offsets_[s]; }

  /// Decode segment @p s from the image (no caching at this level).
  BitVector decode_segment(std::size_t s) const;

  /// Raw serialized bytes of segment @p s — what the integrity layer
  /// checksums before a decode trusts them.
  std::span<const std::byte> segment_image(std::size_t s) const {
    return image_.subspan(offsets_[s], segment_bytes(s));
  }

  /// True when the outside bitmap has no set bits (checked once at open;
  /// lets range evaluation skip the outside candidate segment entirely).
  bool outside_empty() const { return outside_empty_; }

  /// Supplies a (possibly cached) decoded segment; the io layer backs this
  /// with the engine's MemoryBudget.
  using SegmentFetch =
      std::function<std::shared_ptr<const BitVector>(std::size_t segment)>;

  /// What the probe of a union of intervals reads, worked out from the
  /// segment directory alone (no segment is fetched or decoded).
  struct ProbePlan {
    /// Per bin: 0 outside the union, 1 partly inside, 2 fully inside.
    std::vector<std::uint8_t> status;
    /// True when the OR side is every segment but the bins fully inside.
    bool complement = false;
    /// Compressed words the probe reads: its OR side plus the segments
    /// it checks against the column (the partial bins and a non-empty
    /// outside bitmap). The probe side of the range-step rule.
    std::uint64_t words = 0;
    /// True when no segment the probe checks against the column is known,
    /// from the directory, to hold a row: the outside bitmap is empty and
    /// every partial bin's segment is no longer than an empty one. The
    /// pinned probe then tells whether the column is read at all
    /// (Probe::needs_column).
    bool may_be_index_only = false;
  };

  /// The segments one probe reads, pinned: pin() does all the segment I/O
  /// (and so meets every checksum failure), run() none of it.
  struct Probe {
    std::vector<std::shared_ptr<const BitVector>> or_side;
    /// The bins partly inside the union, and the outside bitmap — only
    /// those with set bits, so an empty list means an index-only answer.
    std::vector<std::shared_ptr<const BitVector>> candidates;
    /// True when or_side is every segment but the bins fully inside.
    bool complement = false;
    std::uint64_t nrows = 0;

    /// True when run() reads the column (a candidate has set bits).
    bool needs_column() const { return !candidates.empty(); }

    /// The rows whose value lies in at least one of @p ivs (the intervals
    /// the probe was planned for). @p values is the column, read only at
    /// candidate bits; it may be empty when !needs_column().
    BitVector run(std::span<const Interval> ivs,
                  std::span<const double> values) const;
  };

  /// Plan the probe of the union of @p ivs (empty intervals are ignored):
  /// classify every bin as fully, partly or not inside, and pick the
  /// cheaper OR side by compressed words (the inside on a tie).
  ProbePlan plan(std::span<const Interval> ivs) const;

  /// Pin the segments @p plan reads, each fetched at most once. Without
  /// @p fetch, segments are decoded directly from the image.
  Probe pin(const ProbePlan& plan, const SegmentFetch& fetch = {}) const;

  /// pin(plan(ivs), fetch).
  Probe pin(std::span<const Interval> ivs, const SegmentFetch& fetch = {}) const {
    return pin(plan(ivs), fetch);
  }

  /// Heap bytes of the directory itself (edges + offsets), i.e. the cost of
  /// keeping the index open without any decoded segment.
  std::size_t metadata_bytes() const;

 private:
  Bins bins_;
  std::uint64_t nrows_ = 0;
  std::vector<std::uint64_t> offsets_;  // segment s = [offsets_[s], offsets_[s+1])
  std::span<const std::byte> image_;
  std::shared_ptr<const void> keeper_;
  bool outside_empty_ = true;
};

}  // namespace qdv
