// Segment-wise (lazy) view of a serialized equality-encoded bitmap index.
//
// A BitmapIndex image on disk (`<var>.bmi`, DESIGN.md Section 2) is a
// header (row count + bin edges) followed by one WAH bitmap per bin and a
// final "outside" bitmap. SegmentedBitmapIndex parses only the header and a
// byte-offset directory of the segments, so opening an index touches O(bins)
// record headers instead of deserializing every bitmap; a range query then
// reads only the segments its probe names, in place in the image, each
// checked once on its first touch (DESIGN.md Section 9).
// BitmapIndex builds and writes the image; every query reads it through
// this class. A probe answers a union of intervals on the variable in one
// pass (DESIGN.md Section 3): it ORs whichever side of the bins costs fewer
// compressed words, the bins fully inside the union or every other segment
// (then inverted), and checks only the boundary rows against the column.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "bitmap/bins.hpp"
#include "bitmap/bitmap_index.hpp"
#include "bitmap/bitvector.hpp"
#include "bitmap/interval.hpp"
#include "bitmap/kernels.hpp"

namespace qdv {

/// Bitmap index read in place from a serialized image.
///
/// Ownership: the index holds a pin (@p keeper) on the byte image it was
/// opened over — typically an io::MappedFile — so the image outlives the
/// index regardless of who mapped it. A probe's segments are views into
/// that image; the index itself stays metadata-sized (edges, offsets and
/// one checked-state byte per segment).
/// Thread-safety: plan/pin are const and safe to call concurrently; the
/// first touch of a segment is serialized on one mutex, so each segment
/// is checked once whichever thread reads it first.
class SegmentedBitmapIndex {
 public:
  /// Checks one section of the image before anything trusts its bytes:
  /// called with the section's byte offset and bytes, once for the header
  /// at open() and once per segment on its first touch. Throws to refuse
  /// the section. The io layer checks the section's CRC32C here.
  using SectionCheck = std::function<void(std::uint64_t offset,
                                          std::span<const std::byte> bytes)>;

  SegmentedBitmapIndex() = default;

  /// Parse the header and segment directory of @p image (a serialized
  /// BitmapIndex), then check the header section and the outside segment.
  /// @p keeper keeps the image bytes alive; @p check, when set, runs on
  /// every section first. Throws std::runtime_error on a truncated image or
  /// one not 4-byte aligned in memory (segments are read as 32-bit words),
  /// io::IntegrityError on a malformed outside segment, and whatever
  /// @p check throws.
  static SegmentedBitmapIndex open(std::span<const std::byte> image,
                                   std::shared_ptr<const void> keeper,
                                   SectionCheck check = {});

  const Bins& bins() const { return bins_; }
  std::uint64_t num_rows() const { return nrows_; }

  /// Segments 0..num_bins()-1 are the per-bin bitmaps; segment num_bins()
  /// is the "outside the binned range" bitmap.
  std::size_t num_segments() const { return offsets_.size() - 1; }
  std::size_t outside_segment() const { return num_segments() - 1; }

  /// Serialized byte length of segment @p s (what a probe reads).
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
  /// range a probe reads, which is the granularity the integrity layer
  /// records checksums at (io/checksum.hpp).
  std::uint64_t segment_offset(std::size_t s) const { return offsets_[s]; }

  /// A decoded copy of segment @p s, for tests and benches that compare
  /// against one; queries read segments in place through pin().
  BitVector decode_segment(std::size_t s) const;

  /// True when the outside bitmap has no set bits (checked once at open;
  /// lets range evaluation skip the outside candidate segment entirely).
  bool outside_empty() const { return outside_empty_; }

  /// What the probe of a union of intervals reads, worked out from the
  /// segment directory alone (no segment is read).
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

  /// The segments one probe reads, pinned as views into the image: pin()
  /// does all the segment I/O (and so meets every damaged segment), run()
  /// none of it. The views are valid while the index is.
  struct Probe {
    std::vector<kern::WahView> or_side;
    /// The bins partly inside the union, and the outside bitmap — only
    /// those with set bits, so an empty list means an index-only answer.
    std::vector<kern::WahView> candidates;
    /// True when or_side is every segment but the bins fully inside.
    bool complement = false;
    std::uint64_t nrows = 0;
    /// Segments pin() read, each once (RangeStats::probe_segments).
    std::uint64_t segments = 0;

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

  /// Pin the segments @p plan reads, each read once. A segment's first
  /// touch checks it: the open() check, then the structural checks
  /// BitVector::load makes (BitVector::record_fault), whose failure throws
  /// io::IntegrityError, so a malformed segment demotes like one that
  /// fails its checksum (DESIGN.md Section 15). A segment that fails is
  /// checked again, and fails again, on its next touch.
  Probe pin(const ProbePlan& plan) const;

  /// pin(plan(ivs)).
  Probe pin(std::span<const Interval> ivs) const { return pin(plan(ivs)); }

  /// Heap bytes of the directory itself (edges, offsets and segment
  /// states), i.e. the cost of keeping the index open.
  std::size_t metadata_bytes() const;

 private:
  enum SegmentState : std::uint8_t { kUnchecked, kEmpty, kHoldsRows };

  /// Segment @p s as a view into the image (no check).
  kern::WahView view(std::size_t s) const;
  /// The state of segment @p s, checking it on its first touch.
  SegmentState touch(std::size_t s) const;

  Bins bins_;
  std::uint64_t nrows_ = 0;
  std::vector<std::uint64_t> offsets_;  // segment s = [offsets_[s], offsets_[s+1])
  std::span<const std::byte> image_;
  std::shared_ptr<const void> keeper_;
  SectionCheck check_;
  // One SegmentState per segment, kUnchecked until its first touch passes;
  // check_mutex_ serializes first touches.
  std::unique_ptr<std::atomic<std::uint8_t>[]> states_;
  std::unique_ptr<std::mutex> check_mutex_;
  bool outside_empty_ = true;
};

}  // namespace qdv
