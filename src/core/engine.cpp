#include "core/engine.hpp"

#include <algorithm>

#include "bitmap/simd.hpp"
#include "core/selection.hpp"
#include "engine_state.hpp"

namespace qdv::core {

namespace {
constexpr std::size_t kDefaultCacheEntries = 1024;
}  // namespace

Engine Engine::open(const std::filesystem::path& dir) {
  return Engine(io::Dataset::open(dir));
}

Engine::Engine(io::Dataset dataset, EvalMode mode)
    : state_(std::make_shared<detail::EngineState>()) {
  state_->dataset = std::move(dataset);
  state_->mode = mode;
  state_->budget = state_->dataset.memory_budget();
  if (state_->budget->class_entry_cap(io::ResidentClass::kBitVector) ==
      io::MemoryBudget::kNoEntryCap)
    state_->budget->set_class_entry_cap(io::ResidentClass::kBitVector,
                                        kDefaultCacheEntries);
}

const io::Dataset& Engine::dataset() const { return state_->dataset; }

std::size_t Engine::num_timesteps() const { return state_->dataset.num_timesteps(); }

Selection Engine::select(const std::string& query_text) const {
  return select(parse_query(query_text));
}

Selection Engine::select(QueryPtr query) const {
  const io::TimestepTable* probe =
      state_->dataset.num_timesteps() > 0 ? &state_->dataset.table(0) : nullptr;
  auto plan = std::make_shared<const ExecutionPlan>(
      plan_query(std::move(query), probe));
  return Selection(state_, std::move(plan));
}

Selection Engine::all() const { return select(QueryPtr{}); }

std::shared_ptr<const Selection> Engine::select_shared(
    const std::string& query_text) const {
  std::shared_ptr<const ExecutionPlan> plan;
  {
    std::lock_guard<std::mutex> lock(state_->plan_mutex);
    const auto it = state_->plan_cache.find(query_text);
    if (it != state_->plan_cache.end()) plan = it->second;
  }
  if (!plan) {
    // Parse/plan outside the lock (pure, idempotent); two racing threads
    // may both plan — the first insert wins, matching the bitvector cache
    // race.
    const io::TimestepTable* probe =
        state_->dataset.num_timesteps() > 0 ? &state_->dataset.table(0) : nullptr;
    plan = std::make_shared<const ExecutionPlan>(
        plan_query(query_text.empty() ? QueryPtr{} : parse_query(query_text),
                   probe));
    std::lock_guard<std::mutex> lock(state_->plan_mutex);
    if (state_->plan_cache.size() >= detail::EngineState::kPlanCacheCap)
      state_->plan_cache.clear();
    plan = state_->plan_cache.try_emplace(query_text, std::move(plan))
               .first->second;
  }
  // The Selection handle itself is two shared_ptr copies — built per call
  // so the cache never stores anything that points back at this state.
  return std::make_shared<const Selection>(Selection(state_, std::move(plan)));
}

EngineStats Engine::stats() const {
  EngineStats s;
  const io::MemoryBudgetStats b = state_->budget->stats();
  s.hits = b.of(io::ResidentClass::kBitVector).hits;
  s.misses = b.of(io::ResidentClass::kBitVector).misses;
  s.entries = b.of(io::ResidentClass::kBitVector).entries;
  s.bytes = b.of(io::ResidentClass::kBitVector).bytes;
  s.evictions = b.of(io::ResidentClass::kBitVector).evictions;
  s.budget_bytes = b.budget_bytes;
  s.resident_bytes = b.resident_bytes;
  s.column_bytes = b.of(io::ResidentClass::kColumn).bytes;
  s.segment_bytes = b.of(io::ResidentClass::kIndexSegment).bytes;
  // I/O volume only: bitvectors are computed in memory, not read from disk.
  s.loaded_bytes = b.of(io::ResidentClass::kColumn).loaded_bytes +
                   b.of(io::ResidentClass::kIndexSegment).loaded_bytes +
                   b.of(io::ResidentClass::kPyramid).loaded_bytes;
  s.io_evictions = b.of(io::ResidentClass::kColumn).evictions +
                   b.of(io::ResidentClass::kIndexSegment).evictions +
                   b.of(io::ResidentClass::kPyramid).evictions;
  s.pyramid_bytes = b.of(io::ResidentClass::kPyramid).bytes;
  s.pyramid_evictions = b.of(io::ResidentClass::kPyramid).evictions;
  s.pyramid_served = state_->pyramid_served.load(std::memory_order_relaxed);
  s.pyramid_fallback =
      state_->pyramid_fallback.load(std::memory_order_relaxed);
  const io::IntegrityStats& integ = *state_->dataset.integrity_stats();
  s.integrity_verified = integ.verified.load(std::memory_order_relaxed);
  s.integrity_failures = integ.failures.load(std::memory_order_relaxed);
  s.integrity_demotions = integ.demotions.load(std::memory_order_relaxed);
  s.integrity_unverified = integ.unverified.load(std::memory_order_relaxed);
  const io::RangeStats& ranges = *state_->dataset.range_stats();
  s.range_probes = ranges.probes.load(std::memory_order_relaxed);
  s.range_scans = ranges.scans.load(std::memory_order_relaxed);
  s.probe_words = ranges.probe_words.load(std::memory_order_relaxed);
  s.scan_rows = ranges.scan_rows.load(std::memory_order_relaxed);
  s.probe_segments = ranges.probe_segments.load(std::memory_order_relaxed);
  s.simd_isa = simd::isa_name(simd::active());
  const simd::DispatchCounts d = simd::dispatch_counts();
  s.positions_vector_calls = d.positions.vector;
  s.positions_scalar_calls = d.positions.scalar;
  s.hist1d_vector_calls = d.hist1d.vector;
  s.hist1d_scalar_calls = d.hist1d.scalar;
  s.hist2d_vector_calls = d.hist2d.vector;
  s.hist2d_scalar_calls = d.hist2d.scalar;
  return s;
}

void Engine::clear_cache() {
  state_->budget->clear_class(io::ResidentClass::kBitVector);
}

void Engine::set_memory_budget(std::uint64_t bytes) {
  state_->budget->set_budget(bytes);
}

std::uint64_t Engine::memory_budget() const { return state_->budget->budget(); }

}  // namespace qdv::core
