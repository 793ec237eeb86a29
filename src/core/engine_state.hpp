// Shared mutable state behind Engine and Selection handles: the dataset
// plus the unified memory budget that caches evaluated per-timestep
// bitvectors alongside the io layer's mapped columns and index segments.
// Private to src/core — the public API never exposes this type completely.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/plan.hpp"
#include "io/dataset.hpp"
#include "io/memory_budget.hpp"

namespace qdv::core::detail {

struct EngineState {
  io::Dataset dataset;
  EvalMode mode = EvalMode::kAuto;

  // Plan cache behind Engine::select_shared(): query text -> planned
  // ExecutionPlan. Plans only (never Selection handles — a Selection holds
  // this state, so caching one here would be a shared_ptr cycle). Guarded
  // by its own mutex (planning never holds the budget lock); cleared
  // wholesale when it outgrows kPlanCacheCap so a long-lived service
  // cannot accrete plans for unbounded distinct texts.
  static constexpr std::size_t kPlanCacheCap = 1024;
  std::mutex plan_mutex;
  std::unordered_map<std::string, std::shared_ptr<const ExecutionPlan>>
      plan_cache;

  // The dataset's budget, adopted at Engine construction: bitvector cache
  // entries (ResidentClass::kBitVector) live next to the io residents, so
  // one byte ceiling governs everything the engine can re-create from disk.
  // Every plan node is cached under `bv|t#<t>|<canonical text>`
  // (Selection::bits). Evaluation happens outside the budget's lock: two
  // threads missing the same key may both compute it (idempotent; the
  // first insert wins). The budget's kBitVector hits and misses are the
  // cache's hit/miss counters.
  std::shared_ptr<io::MemoryBudget> budget;
  // Zoom tier routing (Selection::zoom_histogram* under ZoomMode::kAuto).
  std::atomic<std::uint64_t> pyramid_served{0};
  std::atomic<std::uint64_t> pyramid_fallback{0};
};

}  // namespace qdv::core::detail
