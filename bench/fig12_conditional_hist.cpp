// Figure 12 of the paper: serial computation of conditional 2D histograms
// (1024x1024 bins) as a function of the number of hits, swept via px
// thresholds of the form `px > t`.
//
// Expected shape (paper, Section V-A2): FastBit is dramatically faster for
// selective conditions (its cost follows the hit count through the
// index-evaluate + gather two-step), while the Custom sequential scan is
// roughly flat in the hit count; the curves cross when the selection
// approaches the full record count, because FastBit's intermediate hit array
// becomes as expensive as the scan itself.
//
// The Scalar-Ref column is the pre-kernel gather (per-bit for_each_set +
// per-value Bins::locate) over the same condition bitvector: the
// FastBit-Regular / Scalar-Ref ratio is the block kernel speedup,
// recorded as old/new rows in the JSON output (--json / QDV_BENCH_JSON).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/custom_scan.hpp"
#include "core/plan.hpp"
#include "io/timestep_table.hpp"

int main(int argc, char** argv) {
  using namespace qdv;
  const auto dir = bench::ensure_serial_dataset();
  const io::Dataset dataset = io::Dataset::open(dir);
  const io::TimestepTable& table = dataset.table(0);
  const std::uint64_t rows = table.num_rows();
  (void)table.column("x");
  (void)table.column("px");
  bench::JsonReporter json("fig12_conditional_hist", argc, argv);

  // Thresholds targeting hit counts 10, 100, ..., ~rows/2: the k-th largest
  // px value, found via nth_element on a copy of the column.
  std::vector<std::uint64_t> targets;
  for (std::uint64_t k = 10; k < rows / 2; k *= 10) targets.push_back(k);
  targets.push_back(rows / 2);

  const auto px = table.column("px");
  std::vector<double> thresholds;
  {
    std::vector<double> copy(px.begin(), px.end());
    for (const std::uint64_t k : targets) {
      auto nth = copy.begin() + static_cast<std::ptrdiff_t>(k);
      std::nth_element(copy.begin(), nth, copy.end(), std::greater<double>());
      thresholds.push_back(*nth);
    }
  }

  const HistogramEngine fastbit = table.engine();
  const core::CustomScan custom(table);
  constexpr std::size_t kBins = 1024;

  std::printf("# Figure 12: serial conditional 2D histograms (x, px), 1024x1024 bins\n");
  std::printf("# dataset: %llu particles; condition: px > t\n",
              static_cast<unsigned long long>(rows));
  std::printf("%14s %20s %20s %20s %20s\n", "hits", "FastBit-Regular(s)",
              "FastBit-Adaptive(s)", "Custom-Regular(s)", "Scalar-Ref(s)");

  double small_fb = 0.0, small_custom = 0.0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const QueryPtr cond = Query::compare("px", CompareOp::kGt, thresholds[i]);
    // Planned outside the timed regions; each FastBit row runs both steps,
    // the plan's evaluation and the gather.
    const core::ExecutionPlan plan = core::plan_query(cond);
    const auto conditioned = [&] { return plan.evaluate(table, EvalMode::kAuto); };
    const BitVector selected = *conditioned();
    const std::uint64_t hits = selected.count();
    const double t_regular = bench::time_best([&] {
      (void)fastbit.histogram2d("x", "px", kBins, kBins, conditioned().get());
    });
    const double t_adaptive = bench::time_best([&] {
      (void)fastbit.histogram2d("x", "px", kBins, kBins, conditioned().get(),
                                BinningMode::kAdaptive);
    });
    const double t_custom = bench::time_best(
        [&] { (void)custom.histogram2d("x", "px", kBins, kBins, cond.get()); });
    // Old/new kernel rows. Full path: pre-PR two-step (pairwise OR tree +
    // per-bit resolve, reconstructed by ScalarTwoStepRef) + scalar gather,
    // against the production evaluate-then-histogram2d. Gather-only:
    // identical precomputed condition bitvector on both sides.
    const bench::ScalarTwoStepRef scalar_ref(table, "px",
                                             Interval::greater_than(thresholds[i]));
    const double t_full_old = bench::time_best([&] {
      (void)bench::scalar_hist2d(table, "x", "px", kBins, scalar_ref.evaluate());
    });
    const double t_gather_old = bench::time_best(
        [&] { (void)bench::scalar_hist2d(table, "x", "px", kBins, selected); });
    const double t_gather_new = bench::time_best(
        [&] { (void)fastbit.histogram2d("x", "px", kBins, kBins, &selected); });
    std::printf("%14llu %20.4f %20.4f %20.4f %20.4f\n",
                static_cast<unsigned long long>(hits), t_regular, t_adaptive,
                t_custom, t_full_old);
    const double h = static_cast<double>(hits);
    json.row("hist2d_cond/fastbit_adaptive", t_adaptive, {{"hits", h}});
    json.row("hist2d_cond/custom_scan", t_custom, {{"hits", h}});
    json.row("hist2d_cond/full_scalar_old", t_full_old, {{"hits", h}});
    json.row("hist2d_cond/full_kernel_new", t_regular,
             {{"hits", h},
              {"speedup_vs_scalar", t_regular > 0.0 ? t_full_old / t_regular : 0.0}});
    json.row("hist2d_cond/gather_scalar_old", t_gather_old, {{"hits", h}});
    json.row("hist2d_cond/gather_kernel_new", t_gather_new,
             {{"hits", h},
              {"speedup_vs_scalar",
               t_gather_new > 0.0 ? t_gather_old / t_gather_new : 0.0}});
    if (i == 0) {
      small_fb = t_regular;
      small_custom = t_custom;
    }
  }

  std::printf("\n# shape checks (paper Section V-A2):\n");
  std::printf("#   selective queries: FastBit %.1fx faster than Custom at ~10 hits\n",
              small_custom / small_fb);
  std::printf("#   expect FastBit cost to grow with hits and approach/exceed the\n");
  std::printf("#   flat Custom scan as hits -> O(records)\n");
  return 0;
}
