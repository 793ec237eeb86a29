// One timestep of a dataset: memory-mapped, lazily-loaded column files plus
// their bitmap and identifier indices, and the two steps a query plan runs
// against them (core/plan.hpp): a range step, answered by an index probe or
// a column scan, and an id step.
//
// On-disk layout (DESIGN.md Section 2): the timestep directory holds
// `meta.txt` (row count + per-variable domains), raw little-endian column
// files `<var>.f64` / `id.u64`, and serialized indices `<var>.bmi` /
// `id.idi`.
//
// Out-of-core behavior (DESIGN.md Section 9): the table mmaps column files
// on first touch and opens `.bmi` indices as segment directories
// (SegmentedBitmapIndex), whose probes read the per-bin WAH bitmaps in
// place in the mapping. Every binary artifact is verified from the bytes
// its reader trusts, a column or index segment once, on first touch. All
// residents are charged to the table's MemoryBudget — a column or a `.bmi`
// image as one resident of its file bytes; budget eviction drops mapped
// pages but never invalidates a span already handed out — mappings stay
// address-valid for the table's lifetime.
//
// Ownership: a TimestepTable owns its mappings and opened indices; spans
// returned by column()/id_column() and pointers returned by the index
// accessors are valid for the lifetime of the table.
// Thread-safety: all lazy-loading accessors are guarded by one internal
// mutex; step evaluation itself runs outside that lock, so concurrent
// queries (and concurrent Selections sharing one mapped file) are safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bitmap/bitmap_index.hpp"
#include "bitmap/histogram.hpp"
#include "bitmap/index_segments.hpp"
#include "core/query.hpp"
#include "io/checksum.hpp"
#include "io/mapped_file.hpp"
#include "io/memory_budget.hpp"

namespace qdv::agg {
class Pyramid;
}

namespace qdv::io {

/// One whitespace-split `key value...` line of a dataset text file (the
/// manifest, a timestep's meta.txt). Numeric fields are whole tokens under
/// the wire's rule (parse_size / parse_double); a malformed one throws
/// std::runtime_error naming the file and the line.
struct MetaLine {
  std::string where;               // "<file>:<line>"
  std::vector<std::string> words;  // words[0] is the key

  /// The line's one value as a count (`rows N`, `timesteps N`).
  std::uint64_t count() const;
  /// The bounds of `domain VAR LO HI`: finite, with lo <= hi.
  std::pair<double, double> domain() const;
};

/// The non-blank lines of @p in, read from @p file.
std::vector<MetaLine> read_meta_lines(std::istream& in,
                                      const std::filesystem::path& file);

/// Work counts of the range steps a dataset's tables answered (DESIGN.md
/// Section 3): each step is one index probe or one column scan.
struct RangeStats {
  std::atomic<std::uint64_t> probes{0};       // steps answered by a probe
  std::atomic<std::uint64_t> scans{0};        // steps answered by a scan
  std::atomic<std::uint64_t> probe_words{0};  // compressed words probed
  std::atomic<std::uint64_t> scan_rows{0};    // rows scanned
  /// Index segments pinned, each once per pin (SegmentedBitmapIndex::
  /// Probe::segments) — also by a pin whose step then scans.
  std::atomic<std::uint64_t> probe_segments{0};
};

class TimestepTable {
 public:
  /// Open the timestep stored in @p dir (reads meta.txt now, everything
  /// else lazily). @p budget is charged for every resident the table loads
  /// and may evict them; @p integrity receives this table's verification /
  /// degradation counters and @p ranges its range-step work counts
  /// (Dataset shares one of each across all its tables). All must be
  /// non-null. Checksums come from the directory's `checksums.qdv`
  /// sidecar (io/checksum.hpp) — absent sidecar means every section checked
  /// counts as unverified but everything still opens.
  TimestepTable(std::filesystem::path dir, std::shared_ptr<MemoryBudget> budget,
                std::shared_ptr<IntegrityStats> integrity,
                std::shared_ptr<RangeStats> ranges);

  std::uint64_t num_rows() const { return rows_; }
  const std::vector<std::string>& variables() const { return variables_; }

  /// Raw column values, mapped on first use. The span stays valid for the
  /// table's lifetime, across budget evictions.
  std::span<const double> column(const std::string& name) const;

  /// The identifier column (unsigned 64-bit); same lifetime rules.
  std::span<const std::uint64_t> id_column(const std::string& name) const;

  /// Read-ahead: map @p name's column and ask the kernel to fault its
  /// pages in asynchronously (madvise(WILLNEED)). Used by par::Prefetcher.
  void prefetch_column(const std::string& name) const;
  void prefetch_id_column(const std::string& name) const;

  /// Segment directory of @p name's bitmap index, or nullptr when none
  /// exists on disk (or it is quarantined). Pointer valid for the table's
  /// lifetime.
  const SegmentedBitmapIndex* value_index(const std::string& name) const;

  /// Identifier index of @p name, or nullptr when none exists on disk.
  /// Always fully resident (binary search needs it whole): the `.idi` is
  /// mapped, verified whole and parsed once, then charged to the budget as
  /// pinned. Pointer valid for the table's lifetime.
  const IdIndex* id_index(const std::string& name) const;

  /// On-disk existence checks (no loading) — what the planner probes.
  bool has_value_index(const std::string& name) const;
  bool has_id_index(const std::string& name) const;

  /// True once @p name's bitmap index was quarantined after a checksum
  /// mismatch or structural corruption: its predicates demote to the scan
  /// path (DESIGN.md §15) without re-verifying per query. The planner
  /// consults this so fresh plans show the demotion in explain().
  bool index_quarantined(const std::string& name) const;
  /// Mark @p name's bitmap index unusable (idempotent; the first call
  /// counts one integrity demotion). Called by the evaluation layer when an
  /// index artifact fails verification mid-query.
  void quarantine_index(const std::string& name) const;

  /// The verification/degradation counters this table reports into.
  const std::shared_ptr<IntegrityStats>& integrity_stats() const {
    return integrity_;
  }

  /// The range-step work counts this table reports into.
  const std::shared_ptr<RangeStats>& range_stats() const { return ranges_; }

  /// How one range step — the rows of @p variable in the union of the
  /// non-empty intervals @p ivs — is answered at this timestep under
  /// @p mode: the one place the probe-or-scan choice is made (DESIGN.md
  /// Section 3), worked out from the segment directory alone, so pricing
  /// pins, charges and counts no segment. kIndex always probes (and throws
  /// without a usable index), kScan always scans. kAuto probes a usable
  /// index when kern::probe_is_cheaper weighs its compressed words below a
  /// scan of the rows; otherwise it scans, unless the directory allows an
  /// index-only answer (the probe then reads no column), which only the
  /// probe's pinned segments can confirm.
  struct RangeStep {
    std::uint64_t probe_words = 0;  // what a probe reads (0: no usable index)
    std::uint64_t scan_rows = 0;    // what a scan reads
    enum class Path {
      kScan,
      kProbe,
      /// range() pins the probe's segments, and probes when none of the
      /// segments it checks against the column holds a row.
      kProbeIfIndexOnly,
    } path = Path::kScan;
  };
  RangeStep range_step(const std::string& variable, std::span<const Interval> ivs,
                       EvalMode mode) const;

  /// One range step: the rows whose @p variable value lies in at least one
  /// of @p ivs (empty intervals are ignored), by the path range_step()
  /// prices, counted in RangeStats as one probe or one scan. A probe's pin
  /// refreshes the `.bmi` image in the budget (one lookup) and counts its
  /// segments in RangeStats::probe_segments; a
  /// segment failing its checksum or its structural checks while pinned
  /// quarantines the index, and the step scans (kIndex throws instead).
  /// The column is read outside that catch: a corrupt column is
  /// ground-truth damage, not an index demotion.
  BitVector range(const std::string& variable, std::span<const Interval> ivs,
                  EvalMode mode) const;

  /// One id step: the rows whose @p variable id is in @p ids (sorted and
  /// deduplicated, as IdInQuery::ids() is), by the id index unless @p mode
  /// is kScan or none exists (kIndex then throws).
  BitVector id_in(const std::string& variable,
                  std::span<const std::uint64_t> ids, EvalMode mode) const;

  /// Histogram pyramid of one column (`<name>.pyr`) or of a column pair
  /// (`<x>__<y>.pyr`, exactly that axis order — callers try both
  /// orientations). nullptr when none exists on disk. Levels load lazily
  /// through the budget under ResidentClass::kPyramid; the handle itself
  /// (header + leaf edges) stays resident for the table's lifetime.
  std::shared_ptr<const agg::Pyramid> pyramid1d(const std::string& name) const;
  std::shared_ptr<const agg::Pyramid> pyramid2d(const std::string& x,
                                                const std::string& y) const;

  /// On-disk existence checks (no loading) — what the planner probes.
  bool has_pyramid(const std::string& name) const;
  bool has_pyramid(const std::string& x, const std::string& y) const;

  /// True when at least one serialized index accompanies the data files.
  bool has_indices() const;

  /// Per-timestep [min, max] of a variable (from meta.txt).
  std::pair<double, double> domain(const std::string& name) const;

  /// Histogram computation handle bound to this table.
  HistogramEngine engine() const { return HistogramEngine(*this); }

  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
  std::uint64_t rows_ = 0;
  std::shared_ptr<MemoryBudget> budget_;  // never null
  std::string budget_prefix_;  // per-directory key namespace in the budget
  std::vector<std::string> variables_;
  std::unordered_map<std::string, std::pair<double, double>> domains_;
  std::shared_ptr<const ChecksumSet> sums_;  // sidecar; nullptr = unverified
  std::shared_ptr<IntegrityStats> integrity_;  // never null
  std::shared_ptr<RangeStats> ranges_;         // never null

  // Lazy-loading state, guarded by mutex_. Handles are stored in node-based
  // maps, so references stay stable while the maps grow.
  mutable std::mutex mutex_;
  mutable std::unordered_map<std::string, ColumnHandle<double>> column_handles_;
  mutable std::unordered_map<std::string, ColumnHandle<std::uint64_t>> id_handles_;
  // An opened `.bmi`: its mapping, charged to the budget under budget_key
  // as one resident, and the index a probe reads in place from it.
  struct ValueIndex {
    std::shared_ptr<MappedFile> file;
    std::string budget_key;
    SegmentedBitmapIndex index;
  };
  mutable std::unordered_map<std::string, std::optional<ValueIndex>>
      seg_indices_;
  mutable std::unordered_map<std::string, std::optional<IdIndex>> id_indices_;
  // Keyed by .pyr file stem ("x", "x__px"); nullptr = probed, absent.
  mutable std::unordered_map<std::string, std::shared_ptr<const agg::Pyramid>>
      pyramids_;
  // Quarantined artifact file names ("a.bmi", "id.idi") and column files
  // already verified once; both guarded by mutex_.
  mutable std::unordered_set<std::string> quarantined_;
  mutable std::unordered_set<std::string> verified_files_;

  std::shared_ptr<const agg::Pyramid> open_pyramid(
      const std::string& stem) const;
  // value_index() with the mapping behind it; nullptr when absent or
  // quarantined.
  const ValueIndex* open_value_index(const std::string& name) const;

  // range_step() with what range() needs to pin: the opened index (null
  // when the step scans for want of one) and the probe's plan.
  struct PricedRange {
    const ValueIndex* index = nullptr;
    SegmentedBitmapIndex::ProbePlan plan;
    RangeStep step;
  };
  PricedRange price_range(const std::string& variable,
                          std::span<const Interval> ivs, EvalMode mode) const;

  // Whole-file verification of a mapped column or id index, at most once
  // per file (mutex_ held). Throws IntegrityError on mismatch: a column is
  // ground truth and surfaces it, an id index demotes to the scan path.
  void verify_file_locked(const std::string& filename,
                          const MappedFile& file) const;

  template <typename T>
  std::span<const T> lazy_column(
      std::unordered_map<std::string, ColumnHandle<T>>& handles,
      const std::string& name, const char* extension) const;
};

}  // namespace qdv::io
