// Figures 14 and 15 of the paper: parallel computation of unconditional and
// conditional histograms over a multi-timestep dataset, and the resulting
// strong-scaling speedups for 1..100 virtual nodes.
//
// The measurement model matches the paper's setup: per-timestep files are
// statically assigned to nodes in a strided fashion and nodes work
// independently, so time(P) = max over nodes of that node's summed task
// time (see DESIGN.md Section 6). Each task computes five 1024^2 histogram
// pairs for the position and momentum fields of one timestep, exactly the
// paper's workload; the conditional variant uses `px > 7e10`.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.hpp"
#include "core/custom_scan.hpp"
#include "parallel/par_ops.hpp"

namespace {

using namespace qdv;

const std::vector<std::pair<std::string, std::string>> kPairs = {
    {"x", "px"}, {"y", "py"}, {"z", "pz"}, {"x", "y"}, {"px", "py"}};
constexpr std::size_t kBins = 1024;

/// Custom baseline task set: sequential-scan histograms per timestep.
par::ClusterRun run_custom(const io::Dataset& dataset, const QueryPtr& condition,
                           par::VirtualCluster& cluster) {
  return cluster.run(dataset.num_timesteps(), [&](std::size_t t) {
    const auto table = dataset.open_table(t);
    const core::CustomScan scan(*table);
    for (const auto& [vx, vy] : kPairs)
      (void)scan.histogram2d(vx, vy, kBins, kBins,
                             condition ? condition.get() : nullptr);
  });
}

/// Pre-kernel FastBit task set: the same two-step conditional workload, but
/// through the pre-PR scalar pipeline — pairwise OR tree + per-bit resolve
/// (bench::ScalarTwoStepRef) and the element-at-a-time gather (per-bit
/// for_each_set + per-value Bins::locate). The FastBit-Cond / Scalar-Ref
/// ratio is the kernel-layer speedup on this machine.
par::ClusterRun run_scalar_ref(const io::Dataset& dataset, double threshold,
                               par::VirtualCluster& cluster) {
  return cluster.run(dataset.num_timesteps(), [&](std::size_t t) {
    const auto table = dataset.open_table(t);
    const bench::ScalarTwoStepRef scalar_ref(
        *table, "px", Interval::greater_than(threshold));
    for (const auto& [vx, vy] : kPairs) {
      // Two-step per pair, exactly like the fresh-table
      // par::parallel_histograms workload it is compared with (the
      // reference decodes its segments once, so they stay warm across
      // pairs).
      (void)bench::scalar_hist2d(*table, vx, vy, kBins, scalar_ref.evaluate());
    }
  });
}

void print_series(const char* label, const par::ClusterRun& run,
                  const std::vector<std::size_t>& nodes) {
  std::printf("%-16s", label);
  for (const std::size_t p : nodes) std::printf(" %12.4f", run.makespan(p));
  std::printf("\n");
}

void print_speedup(const char* label, const par::ClusterRun& run,
                   const std::vector<std::size_t>& nodes) {
  std::printf("%-16s", label);
  for (const std::size_t p : nodes) std::printf(" %12.2f", run.speedup(p));
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto dir = bench::ensure_scaling_dataset();
  const io::Dataset dataset = io::Dataset::open(dir);
  bench::JsonReporter json("fig14_15_parallel_hist", argc, argv);
  // One host thread: per-task timings free of host-core contention (the
  // makespan model composes them into virtual-node times; DESIGN.md S6).
  par::VirtualCluster cluster(1);

  const QueryPtr condition = parse_query("px > 7e10");
  // Moderate-selectivity condition (~10% of records) for the old/new kernel
  // rows: the paper's 7e10 threshold selects almost nothing in scaled-down
  // surrogate data, so it only measures fixed overhead. The threshold is
  // the 90th px percentile of a middle timestep.
  double mid_threshold = 0.0;
  {
    const auto pxcol = dataset.table(dataset.num_timesteps() / 2).column("px");
    std::vector<double> copy(pxcol.begin(), pxcol.end());
    auto nth = copy.begin() + static_cast<std::ptrdiff_t>(copy.size() / 10);
    std::nth_element(copy.begin(), nth, copy.end(), std::greater<double>());
    mid_threshold = *nth;
  }
  const QueryPtr condition_mid =
      Query::compare("px", CompareOp::kGt, mid_threshold);
  const std::vector<std::size_t> nodes = {1, 2, 5, 10, 20, 50, 100};

  std::printf("# Figures 14/15: parallel histogram computation\n");
  std::printf("# dataset: %zu timesteps; workload: 5 pairs @ 1024^2 per timestep\n",
              dataset.num_timesteps());
  std::printf("# conditional query: px > 7e10\n");
  std::printf("# time(P) = modeled makespan under strided assignment (DESIGN.md S6)\n\n");

  // Warm the page cache once (freshly generated datasets otherwise charge
  // writeback and cold-read costs to whichever batch runs first).
  cluster.run(dataset.num_timesteps(), [&](std::size_t t) {
    const auto table = dataset.open_table(t);
    for (const auto& [vx, vy] : kPairs) {
      (void)table->column(vx);
      (void)table->column(vy);
    }
  });

  par::HistogramWorkload fb_uncond;
  fb_uncond.pairs = kPairs;
  fb_uncond.nbins = kBins;
  const auto r_fb_uncond = bench::best_cluster_run(
      [&] { return par::parallel_histograms(dataset, fb_uncond, cluster).run; });

  par::HistogramWorkload fb_cond = fb_uncond;
  fb_cond.condition = condition;
  const auto r_fb_cond = bench::best_cluster_run(
      [&] { return par::parallel_histograms(dataset, fb_cond, cluster).run; });

  const auto r_custom_uncond =
      bench::best_cluster_run([&] { return run_custom(dataset, nullptr, cluster); });
  const auto r_custom_cond =
      bench::best_cluster_run([&] { return run_custom(dataset, condition, cluster); });
  par::HistogramWorkload fb_mid = fb_uncond;
  fb_mid.condition = condition_mid;
  const auto r_fb_mid = bench::best_cluster_run(
      [&] { return par::parallel_histograms(dataset, fb_mid, cluster).run; });
  const auto r_scalar_mid = bench::best_cluster_run(
      [&] { return run_scalar_ref(dataset, mid_threshold, cluster); });

  // Engine-shared variant: the conditional bitvectors live in the engine
  // cache, so the second batch (and any later view of the same selection)
  // skips the index work entirely.
  const core::Engine engine(dataset);
  const auto r_engine_cold = par::parallel_histograms(engine, fb_cond, cluster).run;
  const core::EngineStats cold_stats = engine.stats();
  const auto r_engine_warm = par::parallel_histograms(engine, fb_cond, cluster).run;
  const core::EngineStats warm_stats = engine.stats();

  std::printf("# Figure 14: timings (seconds)\n%-16s", "nodes");
  for (const std::size_t p : nodes) std::printf(" %12zu", p);
  std::printf("\n");
  print_series("FastBit-Uncond", r_fb_uncond, nodes);
  print_series("Custom-Uncond", r_custom_uncond, nodes);
  print_series("FastBit-Cond", r_fb_cond, nodes);
  print_series("FastBit-CondMid", r_fb_mid, nodes);
  print_series("Scalar-CondMid", r_scalar_mid, nodes);
  print_series("Custom-Cond", r_custom_cond, nodes);
  print_series("Engine-Cold", r_engine_cold, nodes);
  print_series("Engine-Warm", r_engine_warm, nodes);

  // Old/new kernel rows (single-node makespans). The *CondMid pair runs the
  // same moderate-selectivity conditional workload through the pre-PR
  // scalar pipeline and the kernel layer respectively.
  const double t_old = r_scalar_mid.makespan(1);
  const double t_new = r_fb_mid.makespan(1);
  json.row("parallel_hist/fastbit_uncond", r_fb_uncond.makespan(1));
  json.row("parallel_hist/custom_uncond", r_custom_uncond.makespan(1));
  json.row("parallel_hist/fastbit_cond_7e10", r_fb_cond.makespan(1));
  json.row("parallel_hist/custom_cond_7e10", r_custom_cond.makespan(1));
  json.row("parallel_hist/condmid_scalar_old", t_old,
           {{"threshold", mid_threshold}});
  json.row("parallel_hist/condmid_kernel_new", t_new,
           {{"threshold", mid_threshold},
            {"speedup_vs_scalar", t_new > 0.0 ? t_old / t_new : 0.0}});
  json.row("parallel_hist/engine_cold", r_engine_cold.makespan(1));
  json.row("parallel_hist/engine_warm", r_engine_warm.makespan(1));

  std::printf("\n# Figure 15: speedup relative to 1 node (ideal = node count)\n%-16s",
              "nodes");
  for (const std::size_t p : nodes) std::printf(" %12zu", p);
  std::printf("\n");
  print_speedup("FastBit-Uncond", r_fb_uncond, nodes);
  print_speedup("Custom-Uncond", r_custom_uncond, nodes);
  print_speedup("FastBit-Cond", r_fb_cond, nodes);
  print_speedup("Custom-Cond", r_custom_cond, nodes);

  std::printf("\n# shape checks (paper Section V-C):\n");
  std::printf("#   unconditional: FastBit ~ Custom (both examine all records): %.2fx\n",
              r_custom_uncond.makespan(1) / r_fb_uncond.makespan(1));
  std::printf("#   conditional: FastBit keeps its advantage in parallel: %.2fx\n",
              r_custom_cond.makespan(1) / r_fb_cond.makespan(1));
  std::printf("#   speedup at 100 nodes: FastBit-Cond %.1f, Custom-Cond %.1f\n",
              r_fb_cond.speedup(100), r_custom_cond.speedup(100));
  const std::uint64_t warm_hits = warm_stats.hits - cold_stats.hits;
  const std::uint64_t warm_misses = warm_stats.misses - cold_stats.misses;
  std::printf("#   engine cache: warm batch %.2fx faster than cold (hit rate %.0f%%)\n",
              r_engine_warm.makespan(1) > 0.0
                  ? r_engine_cold.makespan(1) / r_engine_warm.makespan(1)
                  : 0.0,
              warm_hits + warm_misses
                  ? 100.0 * static_cast<double>(warm_hits) /
                        static_cast<double>(warm_hits + warm_misses)
                  : 0.0);
  std::printf("#   (host wall time for the FastBit-Uncond batch: %.2fs on %zu threads)\n",
              r_fb_uncond.wall_seconds, cluster.host_threads());
  return 0;
}
