// Parallel partitioned operations for the scalability studies (Figures
// 14-17): per-timestep tasks are executed on host threads and their
// measured durations are composed into modeled makespans for 1..P virtual
// nodes under the paper's static strided file assignment (DESIGN.md
// Section 6).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bitmap/histogram.hpp"
#include "core/query.hpp"
#include "core/selection.hpp"
#include "io/dataset.hpp"

namespace qdv::par {

/// Measured per-task times of one batch, plus the makespan model.
struct ClusterRun {
  std::vector<double> task_seconds;  // task t = timestep t
  double wall_seconds = 0.0;         // host wall time of the batch

  /// Modeled completion time on @p nodes virtual nodes: tasks are assigned
  /// statically (task t -> node t % nodes) and nodes run independently, so
  /// the makespan is the largest per-node sum.
  double makespan(std::size_t nodes) const;

  /// makespan(1) / makespan(nodes).
  double speedup(std::size_t nodes) const;
};

/// Executes task batches on the persistent shared thread pool
/// (par::ThreadPool::global()) and times each task. host_threads caps the
/// batch's concurrency (the calling thread participates); host_threads == 1
/// runs tasks serially on the caller so per-task timings stay free of host
/// contention. No threads are spawned or joined per run() call.
class VirtualCluster {
 public:
  explicit VirtualCluster(std::size_t host_threads);

  /// Run tasks 0..ntasks-1, each timed individually.
  ClusterRun run(std::size_t ntasks,
                 const std::function<void(std::size_t)>& task) const;

  std::size_t host_threads() const { return host_threads_; }

 private:
  std::size_t host_threads_;
};

/// The per-timestep histogram workload of Figures 14/15.
struct HistogramWorkload {
  std::vector<std::pair<std::string, std::string>> pairs;
  std::size_t nbins = 1024;
  QueryPtr condition;  // nullptr = unconditional
  BinningMode binning = BinningMode::kUniform;
  EvalMode mode = EvalMode::kAuto;
};

struct HistogramBatch {
  ClusterRun run;
  std::uint64_t total_records = 0;  // records tallied across all histograms
};

/// Compute the workload's histogram set for every timestep of @p dataset.
/// Opens a fresh table per task (each virtual node pays its own column
/// reads — the paper's cold-I/O setup). The condition is planned once and
/// evaluated uncached under workload.mode (core::ExecutionPlan::evaluate),
/// once per histogram.
HistogramBatch parallel_histograms(const io::Dataset& dataset,
                                   const HistogramWorkload& workload,
                                   VirtualCluster& cluster);

/// Engine-shared variant: the condition is evaluated through the engine's
/// bitvector cache and the dataset's shared tables, so repeated batches —
/// and any other view driven by the same selection — reuse one evaluation
/// per timestep. Worker threads hit the cache concurrently, and a
/// par::Prefetcher reads the next timestep's touched columns ahead of the
/// workers (DESIGN.md Section 9). Evaluation uses the *engine's* EvalMode,
/// not workload.mode (cached bitvectors are identical under either mode;
/// to time the scan path, construct the Engine with EvalMode::kScan or use
/// the Dataset overload above).
HistogramBatch parallel_histograms(const core::Engine& engine,
                                   const HistogramWorkload& workload,
                                   VirtualCluster& cluster);

struct TrackBatch {
  ClusterRun run;
  std::uint64_t total_hits = 0;  // appearances of the ids across timesteps
};

/// Run the identifier query for @p ids against every timestep (Figures
/// 16/17): planned once, evaluated uncached under @p mode on a fresh table
/// per task.
TrackBatch parallel_track(const io::Dataset& dataset,
                          const std::vector<std::uint64_t>& ids, EvalMode mode,
                          VirtualCluster& cluster);

/// Engine-shared variant of parallel_track (cached id-query bitvectors).
TrackBatch parallel_track(const core::Engine& engine,
                          const std::vector<std::uint64_t>& ids,
                          VirtualCluster& cluster);

}  // namespace qdv::par
