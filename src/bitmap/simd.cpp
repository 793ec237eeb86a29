// ISA-agnostic core of the SIMD dispatch layer: CPUID probing, the
// QDV_FORCE_ISA override, active-level state, and the dispatch counters.
// Deliberately compiled WITHOUT target flags — everything here must run on
// the weakest supported host.
#include "bitmap/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace qdv::simd {

namespace {

bool cpu_supports(Isa isa) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Isa::kAvx512:
      // Must match the target flags simd_avx512.cpp is built with.
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl");
  }
  return false;
#else
  return isa == Isa::kScalar;
#endif
}

const Ops* compiled_ops(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return detail::scalar_ops();
    case Isa::kAvx2:
      return detail::avx2_ops();
    case Isa::kAvx512:
      return detail::avx512_ops();
  }
  return nullptr;
}

/// Best usable level at or below @p isa.
Isa clamp_supported(Isa isa) {
  for (int level = static_cast<int>(isa); level > 0; --level)
    if (supported(static_cast<Isa>(level))) return static_cast<Isa>(level);
  return Isa::kScalar;
}

/// Active level; kUnset until the first active() call resolves the CPUID
/// probe and the QDV_FORCE_ISA override.
constexpr int kUnset = -1;
std::atomic<int> g_active{kUnset};

struct CounterPair {
  std::atomic<std::uint64_t> scalar{0};
  std::atomic<std::uint64_t> vector{0};

  void count(bool v) {
    (v ? vector : scalar).fetch_add(1, std::memory_order_relaxed);
  }
  KernelDispatch snapshot() const {
    return {scalar.load(std::memory_order_relaxed),
            vector.load(std::memory_order_relaxed)};
  }
  void reset() {
    scalar.store(0, std::memory_order_relaxed);
    vector.store(0, std::memory_order_relaxed);
  }
};

CounterPair g_positions_calls;
CounterPair g_hist1d_calls;
CounterPair g_hist2d_calls;

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool supported(Isa isa) {
  return compiled_ops(isa) != nullptr && cpu_supports(isa);
}

Isa best_supported() {
  static const Isa best = clamp_supported(Isa::kAvx512);
  return best;
}

Isa parse_isa(const char* text, Isa fallback) {
  if (text == nullptr) return fallback;
  if (std::strcmp(text, "scalar") == 0) return Isa::kScalar;
  if (std::strcmp(text, "avx2") == 0) return Isa::kAvx2;
  if (std::strcmp(text, "avx512") == 0) return Isa::kAvx512;
  return fallback;
}

Isa active() {
  int level = g_active.load(std::memory_order_acquire);
  if (level == kUnset) {
    Isa resolved = best_supported();
    if (const char* env = std::getenv("QDV_FORCE_ISA"))
      resolved = clamp_supported(parse_isa(env, resolved));
    int expected = kUnset;
    g_active.compare_exchange_strong(expected, static_cast<int>(resolved),
                                     std::memory_order_acq_rel);
    level = g_active.load(std::memory_order_acquire);
  }
  return static_cast<Isa>(level);
}

Isa force(Isa isa) {
  const Isa resolved = clamp_supported(isa);
  g_active.store(static_cast<int>(resolved), std::memory_order_release);
  return resolved;
}

const Ops& ops() { return ops_for(active()); }

const Ops& ops_for(Isa isa) {
  const Ops* table = compiled_ops(isa);
  if (table == nullptr) table = detail::scalar_ops();
  return *table;
}

bool has_vector_hist1d(const Ops& table) {
  return table.hist1d_rows != detail::scalar_ops()->hist1d_rows;
}

bool has_vector_hist2d(const Ops& table) {
  return table.hist2d_rows != detail::scalar_ops()->hist2d_rows;
}

DispatchCounts dispatch_counts() {
  return {g_positions_calls.snapshot(), g_hist1d_calls.snapshot(),
          g_hist2d_calls.snapshot()};
}

void reset_dispatch_counts() {
  g_positions_calls.reset();
  g_hist1d_calls.reset();
  g_hist2d_calls.reset();
}

void count_positions_call(bool vector) { g_positions_calls.count(vector); }
void count_hist1d_call(bool vector) { g_hist1d_calls.count(vector); }
void count_hist2d_call(bool vector) { g_hist2d_calls.count(vector); }

}  // namespace qdv::simd
