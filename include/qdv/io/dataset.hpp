// Multi-timestep dataset handle: manifest parsing, per-timestep table cache,
// global (cross-timestep) variable domains, and the dataset-wide memory
// budget every cached table charges its residents to.
//
// A dataset directory holds `qdv_manifest.txt` plus one `tNNNNN/` directory
// per timestep (see io/timestep_table.hpp and DESIGN.md Sections 2 and 9).
//
// Ownership: Dataset is a cheap value-type handle over shared immutable
// state, so it can be held by value in sessions and captured by parallel
// tasks; all copies see the same table cache and memory budget.
// Thread-safety: table() and drop_cache() are guarded by an internal mutex;
// the tables themselves handle their own locking. Lifetime: tables returned
// by table() live until drop_cache() — and spans handed out by a table stay
// valid for that table's lifetime (see TimestepTable).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/memory_budget.hpp"
#include "io/timestep_table.hpp"

namespace qdv::io {

/// Index construction parameters used by dataset writers.
struct IndexConfig {
  std::size_t nbins = 1024;       // bins per value index
  bool build_value_indices = true;
  bool build_id_index = true;
  /// Histogram pyramids (agg::Pyramid, DESIGN.md §14): one `<var>.pyr` per
  /// variable (leaf resolution = nbins rounded up to a power of two) plus
  /// one `<a>__<b>.pyr` pair pyramid per listed pair, at pyramid_pair_bins
  /// leaf bins per axis. Zoom/pan requests are served from these.
  bool build_pyramids = true;
  std::size_t pyramid_pair_bins = 256;
  std::vector<std::pair<std::string, std::string>> pyramid_pairs{{"x", "px"}};
};

/// How Dataset::open configures the dataset.
struct OpenOptions {
  /// Byte ceiling of the dataset's unified memory budget (columns, index
  /// segments, and — when an Engine adopts the budget — query bitvectors).
  std::uint64_t budget_bytes = MemoryBudget::kUnlimited;
};

/// The defaults Dataset::open(dir) uses: the QDV_MEMORY_BUDGET environment
/// variable (bytes), when set, seeds budget_bytes. Start from this when
/// layering CLI flags on top.
OpenOptions default_open_options();

class Dataset {
 public:
  /// Open with defaults: the QDV_MEMORY_BUDGET environment variable
  /// (bytes), when set, seeds the memory budget.
  static Dataset open(const std::filesystem::path& dir);
  static Dataset open(const std::filesystem::path& dir,
                      const OpenOptions& options);

  std::size_t num_timesteps() const;
  const std::vector<std::string>& variables() const;
  const std::filesystem::path& path() const;

  /// Cached per-timestep table (shared across callers; see drop_cache()).
  const TimestepTable& table(std::size_t t) const;

  /// A fresh, uncached table with its own unlimited memory budget — used by
  /// benchmarks and parallel tasks that need cold-start I/O semantics or
  /// private column caches. It pays its own I/O and charges nothing to
  /// memory_budget().
  std::shared_ptr<TimestepTable> open_table(std::size_t t) const;

  /// The dataset-wide memory budget all cached tables charge residents to
  /// (never null; unlimited unless configured).
  const std::shared_ptr<MemoryBudget>& memory_budget() const;

  /// Dataset-wide integrity counters: every cached table (and every table
  /// from open_table) reports its checksum verifications, failures, and
  /// quarantine demotions here (never null; surfaced via EngineStats and
  /// the svc stats verb — DESIGN.md §15).
  const std::shared_ptr<IntegrityStats>& integrity_stats() const;

  /// Dataset-wide range-step work counts: how many range steps every
  /// table probed or scanned, and the words and rows they read (never
  /// null; surfaced via EngineStats and the svc stats verb).
  const std::shared_ptr<RangeStats>& range_stats() const;

  /// Global [min, max] of a variable across all timesteps.
  std::pair<double, double> global_domain(const std::string& name) const;

  /// Total on-disk footprint (data + indices + metadata).
  std::uint64_t disk_bytes() const;

  /// Release all cached tables (and their column/index caches).
  void drop_cache() const;

  /// Directory of timestep @p t.
  std::filesystem::path step_dir(std::size_t t) const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Name of the per-dataset manifest file.
inline constexpr const char* kManifestName = "qdv_manifest.txt";

/// Directory name of timestep @p t ("t00000", "t00001", ...).
std::string step_dir_name(std::size_t t);

}  // namespace qdv::io
