// Engine: the entry point of the query pipeline (DESIGN.md Section 8). Owns
// a Dataset plus its unified memory budget — a cost-aware LRU cache over
// evaluated per-timestep BitVectors, mapped columns, and decoded index
// segments (DESIGN.md Section 9) — and hands out immutable Selection
// handles through which every consumer (counts, histograms, renders,
// traces, parallel batches) shares one cache.
//
// Ownership: Engine is a cheap value-type handle over shared state (like
// io::Dataset); copies see the same dataset, cache, and budget, and the
// state lives until the last Engine/Selection handle drops.
// Thread-safety: all methods are safe to call concurrently; evaluation runs
// outside the cache lock (two threads may race to compute one entry — the
// first insert wins). A Selection outlives cache evictions: evicted
// bitvectors are handed out as shared_ptr and freed only when unpinned.
//
// Include core/selection.hpp to use the Selections it returns.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "core/query.hpp"
#include "io/dataset.hpp"

namespace qdv::core {

namespace detail {
struct EngineState;
}  // namespace detail

class Selection;

/// Snapshot of the engine's cache and memory-budget counters (see
/// Engine::stats()). The first block covers the bitvector cache alone (the
/// pre-out-of-core counters); the second block covers the whole budget.
struct EngineStats {
  std::uint64_t hits = 0;        // evaluations answered from the cache
  std::uint64_t misses = 0;      // evaluations that had to run
  std::uint64_t evictions = 0;   // bitvector entries dropped by the LRU policy
  std::uint64_t entries = 0;     // live cached bitvectors
  std::uint64_t bytes = 0;       // compressed bytes held by the bitvector cache

  std::uint64_t budget_bytes = 0;    // configured ceiling (max = unlimited)
  std::uint64_t resident_bytes = 0;  // all residents currently charged
  std::uint64_t column_bytes = 0;    // resident mapped column bytes
  std::uint64_t segment_bytes = 0;   // resident decoded index-segment bytes
  std::uint64_t loaded_bytes = 0;    // cumulative bytes charged (I/O volume)
  std::uint64_t io_evictions = 0;    // column + segment + pyramid evictions

  // Zoom tier (DESIGN.md §14): resident pyramid-level bytes, levels dropped
  // by the LRU, and how zoom_histogram* requests were answered.
  std::uint64_t pyramid_bytes = 0;
  std::uint64_t pyramid_evictions = 0;
  std::uint64_t pyramid_served = 0;    // answered from pyramid levels
  std::uint64_t pyramid_fallback = 0;  // routed to the exact kernel path

  // Integrity (DESIGN.md §15): checksum verification events across every
  // table of the dataset, and how often a corrupt artifact was quarantined
  // (its queries demoted to a slower-but-exact path).
  std::uint64_t integrity_verified = 0;    // checks that passed
  std::uint64_t integrity_failures = 0;    // checksum mismatches detected
  std::uint64_t integrity_demotions = 0;   // artifacts quarantined
  std::uint64_t integrity_unverified = 0;  // decodes with no recorded sum

  // Range steps (DESIGN.md §3): how many were answered by an index probe
  // or a column scan across every table of the dataset, the compressed
  // words and rows those probes and scans read, and the index segments
  // their pins read.
  std::uint64_t range_probes = 0;
  std::uint64_t range_scans = 0;
  std::uint64_t probe_words = 0;
  std::uint64_t scan_rows = 0;
  std::uint64_t probe_segments = 0;

  // SIMD dispatch (process-wide, see qdv::simd): the active ISA level and
  // per-kernel-family counts of vector vs scalar-fallback invocations.
  std::string simd_isa;
  std::uint64_t positions_vector_calls = 0;
  std::uint64_t positions_scalar_calls = 0;
  std::uint64_t hist1d_vector_calls = 0;
  std::uint64_t hist1d_scalar_calls = 0;
  std::uint64_t hist2d_vector_calls = 0;
  std::uint64_t hist2d_scalar_calls = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class Engine {
 public:
  /// Open the dataset at @p dir with default options (lazy mmap-backed io;
  /// QDV_MEMORY_BUDGET, when set, seeds the byte budget).
  static Engine open(const std::filesystem::path& dir);

  /// Adopt @p dataset (and its memory budget) for query evaluation.
  explicit Engine(io::Dataset dataset, EvalMode mode = EvalMode::kAuto);

  const io::Dataset& dataset() const;
  std::size_t num_timesteps() const;

  /// Build an immutable Selection from query text / an AST (canonicalized
  /// and planned once; evaluation is lazy and cached per timestep).
  Selection select(const std::string& query_text) const;
  Selection select(QueryPtr query) const;

  /// Thread-safe shared-plan path for concurrent services: the same query
  /// text is parsed/canonicalized/planned once (bounded per-engine plan
  /// cache) and every returned Selection shares that one ExecutionPlan, so
  /// many sessions issuing the same query share the plan object as well as
  /// the per-timestep bitvector cache. Empty text = match everything.
  std::shared_ptr<const Selection> select_shared(const std::string& query_text) const;

  /// The match-everything selection (unset focus/context).
  Selection all() const;

  EngineStats stats() const;
  void clear_cache();

  /// Byte ceiling of the unified memory budget (bitvectors + columns +
  /// index segments). Shrinking evicts immediately; a single resident
  /// larger than the budget still completes as a streaming access.
  void set_memory_budget(std::uint64_t bytes);
  std::uint64_t memory_budget() const;

 private:
  friend class Selection;
  friend class Brush;     // holds an Engine member, filled in after checks
  Engine() = default;     // used by Selection::engine()
  std::shared_ptr<detail::EngineState> state_;
};

}  // namespace qdv::core
