// Hierarchical histogram pyramids (DESIGN.md §14): per-column and
// per-column-pair coarse→fine power-of-two bin trees persisted as `.pyr`
// files next to the `.bmi` segments. A zoom/pan histogram request resolves
// at the coarsest level whose snapped viewport still carries the requested
// bin count — O(visible bins) instead of O(selected rows) — and a marginal
// range condition is answered by classifying each node against the
// condition interval, descending only through partially-covered nodes.
//
// Exactness contract: level-l edge j is leaf_edge[j << (L-l)] — a strided
// subset of the leaf edge array, never recomputed — so a level's bins tile
// the leaf bins exactly and every pyramid-served count equals the exact
// kernel path bit for bit (test_pyramid enforces this differentially).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bitmap/bins.hpp"
#include "bitmap/interval.hpp"
#include "io/checksum.hpp"
#include "io/memory_budget.hpp"

namespace qdv::agg {

/// Hook-up to the integrity layer (io/checksum.hpp, DESIGN.md §15): the
/// directory's checksum set, this pyramid's sidecar key (its file name),
/// and the dataset-wide counters. All members optional — a default
/// PyramidIntegrity opens the file unverified.
struct PyramidIntegrity {
  std::shared_ptr<const io::ChecksumSet> sums;
  std::string file_name;
  std::shared_ptr<io::IntegrityStats> stats;
};

/// How a pyramid node's value range relates to a condition interval.
enum class Cover { kOutside, kPartial, kInside };

/// One snapped viewport on one pyramid axis: bin window [lo, hi) at `level`
/// (level 0 = root = one bin per axis; level leaf_log2() = leaf grid).
struct SlicePlan {
  std::size_t level = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t bins() const { return hi - lo; }
  bool operator==(const SlicePlan&) const = default;
};

/// An immutable on-disk histogram pyramid over one column (ndims()==1) or
/// one column pair (ndims()==2).
///
/// Storage: the header and edge arrays are read eagerly at open() (a few
/// KB); per-level count arrays are read lazily by level() and cached in the
/// io::MemoryBudget under ResidentClass::kPyramid, so a pyramid larger than
/// the budget still serves queries through partial residency.
///
/// Thread-safety: all const methods are safe to call concurrently; lazy
/// level loads go through pread on a shared descriptor.
class Pyramid {
 public:
  /// Build an in-memory 1D pyramid: tally @p values into @p leaf (whose bin
  /// count must be a power of two) with qdv::tally1d, then reduce pairwise
  /// up to the root. NaN and values outside the leaf domain are dropped,
  /// exactly as in every other histogram.
  static Pyramid build1d(std::span<const double> values, Bins leaf);

  /// 2D analog over a column pair; both leaf grids must share one power-of-
  /// two bin count. Level-l counts are row-major [i0 * 2^l + i1].
  static Pyramid build2d(std::span<const double> v0, std::span<const double> v1,
                         Bins leaf0, Bins leaf1);

  void save(const std::filesystem::path& file) const;

  /// Open a `.pyr` file: header + edges read now, levels lazily (cached in
  /// @p budget under keys "<budget_prefix>|L<l>"; a null @p budget gets a
  /// private unlimited one). Throws std::runtime_error on a missing or
  /// malformed file, io::IntegrityError when @p integrity records a header
  /// checksum that does not match. Level loads verify per-level checksums
  /// the same way; a mismatching level quarantines the pyramid (see
  /// quarantined()) and throws io::IntegrityError — the zoom layer then
  /// falls back to the exact kernels.
  static std::shared_ptr<Pyramid> open(
      const std::filesystem::path& file,
      std::shared_ptr<io::MemoryBudget> budget = nullptr,
      std::string budget_prefix = {}, PyramidIntegrity integrity = {});

  /// True once a level checksum mismatch (or quarantine()) marked this
  /// pyramid unusable: the table accessors then report it absent, so every
  /// later zoom routes to the exact path without re-verifying.
  bool quarantined() const;
  /// Mark unusable (idempotent; first call counts one integrity demotion).
  /// Called internally on checksum mismatch and by the zoom layer when a
  /// level read fails structurally (truncated file).
  void quarantine() const;

  /// Byte ranges of the on-disk file that are read as units — the header
  /// (offset 0) and each level's count array — i.e. the sections the
  /// integrity layer checksums. Only valid for file-backed pyramids.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> file_sections() const;

  std::size_t ndims() const { return edges_.size(); }
  /// Per-axis leaf bins = 1 << leaf_log2(); levels run 0..leaf_log2().
  std::size_t leaf_log2() const { return leaf_log2_; }
  std::size_t num_levels() const { return leaf_log2_ + 1; }
  /// Rows tallied at build time (including rows dropped as out-of-domain).
  std::uint64_t rows() const { return rows_; }
  /// Per-axis bins at @p level.
  std::size_t bins_at(std::size_t level) const { return std::size_t{1} << level; }
  const std::vector<double>& leaf_edges(std::size_t axis) const {
    return edges_[axis];
  }
  /// Level-l edge j on @p axis == leaf edge [j << (leaf_log2 - l)].
  double edge(std::size_t axis, std::size_t level, std::size_t j) const {
    return edges_[axis][j << (leaf_log2_ - level)];
  }

  /// Level-l counts (1D: 2^l entries; 2D: 4^l, row-major), lazily loaded.
  /// The returned pin stays valid across eviction.
  std::shared_ptr<const std::vector<std::uint64_t>> level(std::size_t l) const;

  /// Snap a raw viewport to the coarsest level whose snapped bin window
  /// carries at least @p nbins bins: clamp to the leaf domain, take the last
  /// level edge <= view_lo and the first level edge >= view_hi. A viewport
  /// outside the domain yields an empty (lo == hi) plan at level 0; a
  /// viewport too narrow for @p nbins even at the leaf yields nullopt — the
  /// caller's resolution-threshold fallback to the exact path.
  std::optional<SlicePlan> plan_slice(std::size_t axis, double view_lo,
                                      double view_hi, std::size_t nbins) const;
  /// Same snap pinned to one level (2D serving aligns both axes to the
  /// finer of their independent plans).
  SlicePlan plan_slice_at(std::size_t axis, std::size_t level, double view_lo,
                          double view_hi) const;

  /// Edge array of a snapped window (plan.bins() + 1 edges; empty vector
  /// for an empty plan) — the Bins the served histogram reports.
  std::vector<double> slice_edges(std::size_t axis, const SlicePlan& plan) const;

  /// Classify condition @p c against node j at @p level on @p axis. Exact
  /// for every value the node can contain: nodes are half-open [a, b)
  /// except the last node of a level, which is closed at the domain top.
  Cover classify(std::size_t axis, std::size_t level, std::size_t j,
                 const Interval& c) const;

  /// True when every node the serve would touch classifies fully
  /// inside/outside @p cond by the leaf level — i.e. the condition descent
  /// terminates and the served counts are exact. Pure geometry: reads only
  /// edges, never counts, so the svc cache key and the serve itself agree.
  bool servable1d(const SlicePlan& plan, const Interval* cond) const;
  bool servable2d(const SlicePlan& p0, const SlicePlan& p1, const Interval* c0,
                  const Interval* c1) const;

  /// Serve a 1D window: counts[j] = rows landing in level bin plan.lo + j
  /// that satisfy @p cond (nullptr = unconditioned). Requires servable1d.
  std::vector<std::uint64_t> slice_counts1d(const SlicePlan& plan,
                                            const Interval* cond) const;
  /// 2D window at one shared level (p0.level == p1.level), row-major
  /// [i0 * p1.bins() + i1]. Requires servable2d.
  std::vector<std::uint64_t> slice_counts2d(const SlicePlan& p0,
                                            const SlicePlan& p1,
                                            const Interval* c0,
                                            const Interval* c1) const;

  /// Count entries (not bytes) stored for @p level.
  std::uint64_t level_entries(std::size_t l) const {
    return std::uint64_t{1} << (l * ndims());
  }
  std::uint64_t total_count_bytes() const;

 private:
  Pyramid() = default;
  struct LevelIo;  // open-file state for lazy loads

  std::size_t leaf_log2_ = 0;
  std::uint64_t rows_ = 0;
  std::vector<std::vector<double>> edges_;  // per axis, leaf resolution
  // In-memory (build path) levels, index 0 = root. Empty when file-backed.
  std::vector<std::shared_ptr<const std::vector<std::uint64_t>>> built_;
  std::shared_ptr<LevelIo> io_;  // set by open()

  std::uint64_t node_count1d(
      std::size_t level, std::size_t j, const Interval* cond,
      std::vector<std::shared_ptr<const std::vector<std::uint64_t>>>& pins)
      const;
  std::uint64_t node_count2d(
      std::size_t level, std::size_t j0, std::size_t j1, const Interval* c0,
      const Interval* c1,
      std::vector<std::shared_ptr<const std::vector<std::uint64_t>>>& pins)
      const;
  bool node_servable(std::size_t axis, std::size_t level, std::size_t j,
                     const Interval& cond) const;
  const std::vector<std::uint64_t>& level_pinned(
      std::size_t l,
      std::vector<std::shared_ptr<const std::vector<std::uint64_t>>>& pins)
      const;
};

/// `.pyr` file name for a single column / a column pair (in that axis
/// order); the pair probe tries both orientations.
std::string pyramid_filename(const std::string& var);
std::string pyramid_filename(const std::string& x, const std::string& y);

}  // namespace qdv::agg
