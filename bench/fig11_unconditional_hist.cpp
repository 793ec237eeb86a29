// Figure 11 of the paper: serial computation of unconditional 2D histograms
// as a function of bin count (32^2 ... 2048^2).
//
// Series: FastBit-Regular (index-backed engine, uniform bins),
//         FastBit-Adaptive (equal-weight bins via oversample+merge),
//         Custom-Regular (sequential scan with nested bin-count arrays).
//
// Expected shape (paper, Section V-A1): roughly flat in the bin count, since
// every variant touches all records; FastBit slightly faster than Custom
// (flat vs nested count array); adaptive costs a small constant more than
// uniform (bin merge step).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/custom_scan.hpp"
#include "io/timestep_table.hpp"

int main() {
  using namespace qdv;

  const auto dir = bench::ensure_serial_dataset();
  const io::Dataset dataset = io::Dataset::open(dir);
  const io::TimestepTable& table = dataset.table(0);
  const std::uint64_t rows = table.num_rows();

  // Warm the column cache so the sweep measures computation, not cold I/O
  // (the paper's serial study also reuses a hot workstation cache).
  (void)table.column("x");
  (void)table.column("px");

  const HistogramEngine fastbit = table.engine();
  const core::CustomScan custom(table);

  std::printf("# Figure 11: serial unconditional 2D histograms (x, px)\n");
  std::printf("# dataset: %llu particles, 1 timestep\n",
              static_cast<unsigned long long>(rows));
  std::printf("%10s %22s %22s %22s\n", "bins", "FastBit-Regular(s)",
              "FastBit-Adaptive(s)", "Custom-Regular(s)");

  double first_fb = 0.0, last_fb = 0.0;
  double sum_fb = 0.0, sum_custom = 0.0, sum_adaptive = 0.0;
  const std::vector<std::size_t> bin_counts = {32, 64, 128, 256, 512, 1024, 2048};
  for (const std::size_t bins : bin_counts) {
    const double t_regular = bench::time_best(
        [&] { (void)fastbit.histogram2d("x", "px", bins, bins); });
    const double t_adaptive = bench::time_best([&] {
      (void)fastbit.histogram2d("x", "px", bins, bins, nullptr, BinningMode::kAdaptive);
    });
    const double t_custom = bench::time_best(
        [&] { (void)custom.histogram2d("x", "px", bins, bins); });
    std::printf("%10zu %22.4f %22.4f %22.4f\n", bins, t_regular, t_adaptive, t_custom);
    if (bins == bin_counts.front()) first_fb = t_regular;
    if (bins == bin_counts.back()) last_fb = t_regular;
    sum_fb += t_regular;
    sum_adaptive += t_adaptive;
    sum_custom += t_custom;
  }

  std::printf("\n# shape checks (paper Section V-A1):\n");
  std::printf("#   flat in bins: FastBit time at 2048^2 / 32^2 = %.2fx\n",
              last_fb / first_fb);
  std::printf("#   FastBit vs Custom (mean over sweep): %.2fx faster\n",
              sum_custom / sum_fb);
  std::printf("#   adaptive overhead vs uniform (mean): %.2fx\n",
              sum_adaptive / sum_fb);
  return 0;
}
