// Ablation: WAH-compressed bitvector operations across bit densities and
// run structures (google-benchmark).
//
// DESIGN.md calls out WAH compression as the core design choice inherited
// from FastBit: logical operations must cost O(compressed words), not
// O(bits). This bench quantifies that across densities, and reports the
// compression ratio as a counter (words per 31-bit group; 1.0 = no
// compression win).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "bitmap/bitvector.hpp"

namespace {

using qdv::BitVector;

/// Deterministic run-structured bitvector: alternating runs with mean run
/// length `31 / density`-ish, so low density -> long fills.
BitVector make_vector(std::uint64_t nbits, double flip_prob, std::uint64_t seed) {
  BitVector v;
  std::uint64_t state = seed;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  bool value = false;
  std::uint64_t pos = 0;
  while (pos < nbits) {
    // Geometric run length with mean 1/flip_prob.
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    auto run = static_cast<std::uint64_t>(1.0 + (-std::log(1.0 - u) / flip_prob));
    run = std::min(run, nbits - pos);
    v.append_run(value, run);
    value = !value;
    pos += run;
  }
  return v;
}

void BM_WahAnd(benchmark::State& state) {
  const auto nbits = static_cast<std::uint64_t>(state.range(0));
  const double flip = 1.0 / static_cast<double>(state.range(1));
  const BitVector a = make_vector(nbits, flip, 1);
  const BitVector b = make_vector(nbits, flip, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a & b);
  }
  state.counters["words_per_group"] =
      static_cast<double>(a.word_count()) /
      (static_cast<double>(nbits) / BitVector::kGroupBits);
  state.counters["bits"] = static_cast<double>(nbits);
}

void BM_WahOr(benchmark::State& state) {
  const auto nbits = static_cast<std::uint64_t>(state.range(0));
  const double flip = 1.0 / static_cast<double>(state.range(1));
  const BitVector a = make_vector(nbits, flip, 3);
  const BitVector b = make_vector(nbits, flip, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a | b);
  }
}

void BM_WahCount(benchmark::State& state) {
  const auto nbits = static_cast<std::uint64_t>(state.range(0));
  const double flip = 1.0 / static_cast<double>(state.range(1));
  const BitVector a = make_vector(nbits, flip, 5);
  for (auto _ : state) {
    // Cache-defeating copy so count() does real work each iteration.
    BitVector copy = a;
    benchmark::DoNotOptimize(copy.count());
  }
}

void BM_WahToPositions(benchmark::State& state) {
  const auto nbits = static_cast<std::uint64_t>(state.range(0));
  const double flip = 1.0 / static_cast<double>(state.range(1));
  const BitVector a = make_vector(nbits, flip, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.to_positions());
  }
  state.counters["set_bits"] = static_cast<double>(a.count());
}

}  // namespace

// Sweep: 1M and 8M bits; mean run lengths 4 (dense/noisy) to 4096 (sparse).
BENCHMARK(BM_WahAnd)
    ->ArgsProduct({{1 << 20, 8 << 20}, {4, 64, 1024, 4096}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WahOr)
    ->ArgsProduct({{1 << 20, 8 << 20}, {4, 64, 1024, 4096}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WahCount)
    ->ArgsProduct({{8 << 20}, {4, 1024}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WahToPositions)
    ->ArgsProduct({{8 << 20}, {64, 4096}})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
