// Shared infrastructure for the figure-reproduction benchmarks: dataset
// provisioning (generated once, cached on disk) and timing helpers.
//
// Dataset sizes scale to the host; the paper's absolute numbers (90M-177M
// particles per timestep on a Cray XT4) are not reproducible on a
// workstation, but every measured effect is a shape effect (see DESIGN.md).
// Override sizes with:
//   QDV_BENCH_SERIAL_PARTICLES   (default 4,000,000; Figures 11-13)
//   QDV_BENCH_SCALING_PARTICLES  (default 200,000 per timestep; Figures 14-17)
//   QDV_BENCH_SCALING_TIMESTEPS  (default 100)
//   QDV_BENCH_DATA_DIR           (default ./qdv_bench_data)
// Machine-readable results: pass `--json <path>` (or set QDV_BENCH_JSON) to
// any figure benchmark and it writes a JSON array of
//   {"bench": ..., "label": ..., "seconds": ..., <extra metrics>}
// rows next to its human-readable stdout. scripts/run_benchmarks.sh
// assembles the per-bench files into BENCH_kernels.json.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bitmap/index_segments.hpp"
#include "bitmap/kernels.hpp"
#include "io/dataset.hpp"
#include "kernel_refs.hpp"
#include "sim/wakefield.hpp"

namespace qdv::bench {

/// Reconstruction of the pre-kernel ("scalar") two-step range evaluation,
/// used as the old side of the old/new kernel rows: a pairwise-tree OR
/// (kern::ref::or_many_pairwise) over the touched bin segments and a
/// per-bit candidate resolve. Segments are decoded at construction so both
/// old and new sides measure warm evaluation (the engine reads its segments
/// in place, with nothing to decode).
class ScalarTwoStepRef {
 public:
  ScalarTwoStepRef(const io::TimestepTable& table, const std::string& variable,
                   const Interval& iv)
      : values_(table.column(variable)), iv_(iv), nrows_(table.num_rows()) {
    const SegmentedBitmapIndex* idx = table.value_index(variable);
    if (idx == nullptr)
      throw std::runtime_error("ScalarTwoStepRef: no lazy index for " + variable);
    const detail::BinCoverage cov = detail::classify_bins(idx->bins(), iv);
    for (std::ptrdiff_t b = cov.full_lo; b <= cov.full_hi; ++b)
      full_.push_back(idx->decode_segment(static_cast<std::size_t>(b)));
    for (const std::size_t b : cov.partial)
      partial_.push_back(idx->decode_segment(b));
    if (!idx->outside_empty())
      partial_.push_back(idx->decode_segment(idx->outside_segment()));
  }

  BitVector evaluate() const {
    std::vector<const BitVector*> ops;
    ops.reserve(full_.size());
    for (const BitVector& b : full_) ops.push_back(&b);
    BitVector hits = kern::ref::or_many_pairwise(ops, nrows_);
    ops.clear();
    for (const BitVector& b : partial_) ops.push_back(&b);
    const BitVector candidates = kern::ref::or_many_pairwise(ops, nrows_);
    std::vector<std::uint32_t> verified;
    candidates.for_each_set([&](std::uint64_t row) {
      if (iv_.contains(values_[row]))
        verified.push_back(static_cast<std::uint32_t>(row));
    });
    if (verified.empty()) return hits;
    return hits | BitVector::from_positions(verified, nrows_);
  }

 private:
  std::span<const double> values_;
  Interval iv_;
  std::uint64_t nrows_;
  std::vector<BitVector> full_;
  std::vector<BitVector> partial_;
};

/// Pre-kernel conditional 2D histogram gather (the other half of the old
/// path): per-bit for_each_set + per-value Bins::locate over uniform
/// domain bins. Shared by the fig12 and fig14/15 old/new rows.
inline Histogram2D scalar_hist2d(const io::TimestepTable& table,
                                 const std::string& x, const std::string& y,
                                 std::size_t nbins, const BitVector& rows) {
  Histogram2D h;
  const auto [xlo, xhi] = table.domain(x);
  const auto [ylo, yhi] = table.domain(y);
  h.xbins = make_uniform_bins(xlo, xhi > xlo ? xhi : xlo + 1.0, nbins);
  h.ybins = make_uniform_bins(ylo, yhi > ylo ? yhi : ylo + 1.0, nbins);
  h.counts.assign(nbins * nbins, 0);
  const std::span<const double> xs = table.column(x);
  const std::span<const double> ys = table.column(y);
  rows.for_each_set([&](std::uint64_t row) {
    const std::ptrdiff_t bx = h.xbins.locate(xs[row]);
    const std::ptrdiff_t by = h.ybins.locate(ys[row]);
    if (bx >= 0 && by >= 0)
      ++h.counts[static_cast<std::size_t>(bx) * nbins +
                 static_cast<std::size_t>(by)];
  });
  return h;
}

inline std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

inline std::filesystem::path data_root() {
  if (const char* env = std::getenv("QDV_BENCH_DATA_DIR")) return env;
  return "qdv_bench_data";
}

/// One-timestep dataset for the serial benchmarks (Figures 11-13).
inline std::filesystem::path ensure_serial_dataset() {
  const std::size_t particles = env_size("QDV_BENCH_SERIAL_PARTICLES", 4'000'000);
  const std::filesystem::path dir =
      data_root() / ("serial_" + std::to_string(particles));
  if (!std::filesystem::exists(dir / "qdv_manifest.txt")) {
    std::cerr << "[bench] generating serial dataset (" << particles
              << " particles, 1 timestep) in " << dir << " ...\n";
    const sim::WakefieldConfig cfg = sim::WakefieldConfig::preset_bench(particles, 1);
    io::IndexConfig index_config;
    index_config.nbins = 1024;
    const std::uint64_t bytes = sim::generate_dataset(cfg, dir, index_config);
    std::cerr << "[bench] wrote " << (bytes >> 20) << " MiB\n";
  }
  return dir;
}

/// Multi-timestep dataset for the scalability benchmarks (Figures 14-17).
inline std::filesystem::path ensure_scaling_dataset() {
  const std::size_t particles = env_size("QDV_BENCH_SCALING_PARTICLES", 200'000);
  const std::size_t timesteps = env_size("QDV_BENCH_SCALING_TIMESTEPS", 100);
  const std::filesystem::path dir =
      data_root() /
      ("scaling_" + std::to_string(particles) + "x" + std::to_string(timesteps));
  if (!std::filesystem::exists(dir / "qdv_manifest.txt")) {
    std::cerr << "[bench] generating scaling dataset (" << timesteps << " x "
              << particles << " particles) in " << dir << " ...\n";
    const sim::WakefieldConfig cfg =
        sim::WakefieldConfig::preset_bench(particles, timesteps);
    io::IndexConfig index_config;
    index_config.nbins = 1024;
    const std::uint64_t bytes = sim::generate_dataset(cfg, dir, index_config);
    std::cerr << "[bench] wrote " << (bytes >> 20) << " MiB\n";
  }
  return dir;
}

/// Collects benchmark rows and writes them as a JSON array when a path was
/// given via `--json <path>` on the command line or the QDV_BENCH_JSON
/// environment variable (argv wins). Rows are written on destruction; with
/// no path configured the reporter is inert.
class JsonReporter {
 public:
  JsonReporter(std::string bench, int argc, char** argv)
      : bench_(std::move(bench)) {
    for (int i = 1; i + 1 < argc; ++i)
      if (std::string(argv[i]) == "--json") path_ = argv[i + 1];
    if (path_.empty())
      if (const char* env = std::getenv("QDV_BENCH_JSON")) path_ = env;
  }

  ~JsonReporter() {
    if (path_.empty()) return;
    std::ofstream out(path_);
    out << "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i)
      out << rows_[i] << (i + 1 < rows_.size() ? ",\n" : "\n");
    out << "]\n";
    if (out)
      std::cerr << "[bench] wrote " << rows_.size() << " JSON rows to "
                << path_ << "\n";
    else
      std::cerr << "[bench] FAILED to write JSON to " << path_ << "\n";
  }

  bool enabled() const { return !path_.empty(); }

  /// One measurement row; @p extra holds additional numeric metrics
  /// (e.g. {"hits", 1e4} or {"speedup_vs_scalar", 2.4}).
  void row(const std::string& label, double seconds,
           std::initializer_list<std::pair<const char*, double>> extra = {}) {
    char buf[64];
    std::string r = "  {\"bench\": \"" + bench_ + "\", \"label\": \"" + label +
                    "\"";
    std::snprintf(buf, sizeof(buf), "%.9g", seconds);
    r += std::string(", \"seconds\": ") + buf;
    for (const auto& [key, value] : extra) {
      std::snprintf(buf, sizeof(buf), "%.9g", value);
      r += std::string(", \"") + key + "\": " + buf;
    }
    r += "}";
    rows_.push_back(std::move(r));
  }

 private:
  std::string bench_;
  std::string path_;
  std::vector<std::string> rows_;
};

/// Run a ClusterRun-producing callable @p reps times and keep the
/// element-wise minimum task time (and the smallest wall time). Filters the
/// host-environment noise (writeback, reclaim stalls) that would otherwise
/// dominate a makespan, which is a max-statistic.
template <typename Fn>
auto best_cluster_run(Fn&& fn, int reps = 2) {
  auto best = fn();
  for (int r = 1; r < reps; ++r) {
    const auto next = fn();
    for (std::size_t t = 0; t < best.task_seconds.size(); ++t)
      best.task_seconds[t] = std::min(best.task_seconds[t], next.task_seconds[t]);
    best.wall_seconds = std::min(best.wall_seconds, next.wall_seconds);
  }
  return best;
}

/// Best-of-N wall-clock timing of a callable; keeps repeating until the
/// accumulated time passes @p min_total (so sub-millisecond operations are
/// still measured meaningfully) or @p max_reps is reached.
template <typename Fn>
double time_best(Fn&& fn, int max_reps = 5, double min_total = 0.05) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  double total = 0.0;
  for (int rep = 0; rep < max_reps; ++rep) {
    const auto start = clock::now();
    fn();
    const double s = std::chrono::duration<double>(clock::now() - start).count();
    best = std::min(best, s);
    total += s;
    if (total >= min_total && rep >= 1) break;
  }
  return best;
}

}  // namespace qdv::bench
