// Ablation: bitmap-index binning strategies (google-benchmark).
//
// DESIGN.md calls out the binning choices inherited from FastBit: bin count,
// uniform vs quantile boundaries, and precision binning (which answers
// low-precision range queries from the index alone, with no candidate
// check). This bench measures index build time, range-query time and the
// candidate-check volume across those choices. Queries probe the saved
// `.bmi` image through SegmentedBitmapIndex, as served queries do.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bitmap/bitmap_index.hpp"
#include "bitmap/bins.hpp"
#include "bitmap/index_segments.hpp"
#include "bitmap/kernels.hpp"

namespace {

using namespace qdv;

std::vector<double> make_column(std::size_t n, std::uint64_t seed) {
  std::vector<double> values(n);
  std::uint64_t state = seed;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (double& v : values) {
    // Heavy-tailed mixture resembling the momentum column: mostly small,
    // a few percent spread to large values.
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    const double t = static_cast<double>(next() >> 11) * 0x1.0p-53;
    v = (u < 0.95) ? t * 2e9 : 2e9 + t * 1.1e11;
  }
  return values;
}

Bins bins_for_strategy(int strategy, std::span<const double> values, std::size_t nbins) {
  switch (strategy) {
    case 0:
      return make_uniform_bins(0.0, 1.15e11, nbins);
    case 1:
      return make_quantile_bins(values, nbins);
    default:
      return make_precision_bins(0.0, 1.15e11, 3, nbins);
  }
}

void BM_IndexBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto nbins = static_cast<std::size_t>(state.range(1));
  const int strategy = static_cast<int>(state.range(2));
  const std::vector<double> values = make_column(n, 11);
  const Bins bins = bins_for_strategy(strategy, values, nbins);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BitmapIndex::build(values, bins));
  }
  state.counters["rows"] = static_cast<double>(n);
  state.counters["bins"] = static_cast<double>(bins.num_bins());
}

/// The `.bmi` image of BitmapIndex::build(values, bins), opened as the
/// SegmentedBitmapIndex every served query reads.
struct SavedIndex {
  SegmentedBitmapIndex index;
  std::size_t image_bytes = 0;
};

SavedIndex open_saved(std::span<const double> values, const Bins& bins) {
  std::stringstream stream;
  BitmapIndex::build(values, bins).save(stream);
  const auto image = std::make_shared<const std::string>(stream.str());
  return {SegmentedBitmapIndex::open(
              std::as_bytes(std::span(image->data(), image->size())), image),
          image->size()};
}

/// Set rows in the segments @p probe checks against the column.
double candidate_rows(const SegmentedBitmapIndex::Probe& probe) {
  std::uint64_t rows = 0;
  for (const kern::WahView& c : probe.candidates) rows += kern::count_words(c);
  return static_cast<double>(rows);
}

void BM_RangeQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto nbins = static_cast<std::size_t>(state.range(1));
  const int strategy = static_cast<int>(state.range(2));
  const std::vector<double> values = make_column(n, 13);
  const SavedIndex saved =
      open_saved(values, bins_for_strategy(strategy, values, nbins));
  // Mid-bin threshold: forces a candidate check for non-precision bins.
  const std::vector<Interval> ivs = {Interval::greater_than(7.05e10)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(saved.index.pin(ivs).run(ivs, values));
  }
  state.counters["candidates"] = candidate_rows(saved.index.pin(ivs));
  state.counters["index_mb"] =
      static_cast<double>(saved.image_bytes) / (1024.0 * 1024.0);
}

void BM_PrecisionBinningAnswersIndexOnly(benchmark::State& state) {
  // Inclusive low-precision threshold (1-digit: x >= 7e10) against a
  // precision-binned index: the candidate set must be empty, making the
  // query index-only. A strict threshold on the edge keeps one candidate
  // bin, since values equal to the edge must be excluded.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> values = make_column(n, 17);
  const SavedIndex saved =
      open_saved(values, make_precision_bins(0.0, 1.15e11, 2, 1u << 14));
  const std::vector<Interval> ivs = {Interval::at_least(7e10)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(saved.index.pin(ivs).run(ivs, values));
  }
  state.counters["candidates"] = candidate_rows(saved.index.pin(ivs));
}

}  // namespace

// strategy: 0 = uniform, 1 = quantile, 2 = precision
BENCHMARK(BM_IndexBuild)
    ->ArgsProduct({{1 << 20}, {64, 1024}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RangeQuery)
    ->ArgsProduct({{1 << 20}, {64, 256, 1024}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PrecisionBinningAnswersIndexOnly)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
