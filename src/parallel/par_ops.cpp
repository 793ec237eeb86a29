#include "parallel/par_ops.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "parallel/prefetch.hpp"
#include "parallel/thread_pool.hpp"

namespace qdv::par {

double ClusterRun::makespan(std::size_t nodes) const {
  if (nodes == 0) throw std::invalid_argument("makespan: zero nodes");
  std::vector<double> node_time(std::min(nodes, task_seconds.size() + 1), 0.0);
  for (std::size_t t = 0; t < task_seconds.size(); ++t)
    node_time[t % nodes % node_time.size()] += task_seconds[t];
  double worst = 0.0;
  for (const double s : node_time) worst = std::max(worst, s);
  return worst;
}

double ClusterRun::speedup(std::size_t nodes) const {
  const double base = makespan(1);
  const double now = makespan(nodes);
  return now > 0.0 ? base / now : 0.0;
}

VirtualCluster::VirtualCluster(std::size_t host_threads)
    : host_threads_(std::max<std::size_t>(1, host_threads)) {}

ClusterRun VirtualCluster::run(std::size_t ntasks,
                               const std::function<void(std::size_t)>& task) const {
  using clock = std::chrono::steady_clock;
  ClusterRun result;
  result.task_seconds.assign(ntasks, 0.0);
  const auto batch_start = clock::now();
  // Every task runs inside a SerialSection: its measured time feeds the
  // makespan model, so intra-task kernels must not fan out underneath it.
  if (host_threads_ == 1) {
    for (std::size_t t = 0; t < ntasks; ++t) {
      const SerialSection serial;
      const auto start = clock::now();
      task(t);
      result.task_seconds[t] =
          std::chrono::duration<double>(clock::now() - start).count();
    }
  } else {
    // Persistent pool instead of a thread spawn/join per batch: the calling
    // thread participates and host_threads_ caps the concurrency. Exceptions
    // are recorded per task (so its time is still measured) and the first
    // one is rethrown after the batch drains, as before.
    std::exception_ptr error;
    std::mutex error_mutex;
    ThreadPool::global().parallel_for(ntasks, host_threads_, [&](std::size_t t) {
      const SerialSection serial;
      const auto start = clock::now();
      try {
        task(t);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      result.task_seconds[t] =
          std::chrono::duration<double>(clock::now() - start).count();
    });
    if (error) std::rethrow_exception(error);
  }
  result.wall_seconds =
      std::chrono::duration<double>(clock::now() - batch_start).count();
  return result;
}

HistogramBatch parallel_histograms(const io::Dataset& dataset,
                                   const HistogramWorkload& workload,
                                   VirtualCluster& cluster) {
  HistogramBatch batch;
  std::atomic<std::uint64_t> total{0};
  // Planned once, outside the timed tasks; each task runs the plan uncached.
  const core::ExecutionPlan plan = core::plan_query(workload.condition);
  batch.run = cluster.run(dataset.num_timesteps(), [&](std::size_t t) {
    // A fresh table per task: each virtual node owns its timestep file and
    // pays its own column reads, as in the paper's setup.
    const auto table = dataset.open_table(t);
    const HistogramEngine engine = table->engine();
    std::uint64_t local = 0;
    for (const auto& [x, y] : workload.pairs) {
      // Two steps per histogram: its condition's rows, then the gather.
      const std::shared_ptr<const BitVector> rows =
          workload.condition ? plan.evaluate(*table, workload.mode) : nullptr;
      const Histogram2D h = engine.histogram2d(
          x, y, workload.nbins, workload.nbins, rows.get(), workload.binning);
      local += h.total();
    }
    total.fetch_add(local, std::memory_order_relaxed);
  });
  batch.total_records = total.load();
  return batch;
}

HistogramBatch parallel_histograms(const core::Engine& engine,
                                   const HistogramWorkload& workload,
                                   VirtualCluster& cluster) {
  HistogramBatch batch;
  std::atomic<std::uint64_t> total{0};
  // One Selection shared by every worker: each timestep's condition
  // bitvector is evaluated once (whichever thread gets there first) and
  // every histogram of that timestep reads it from the cache.
  const core::Selection selection = workload.condition
                                        ? engine.select(workload.condition)
                                        : engine.all();
  // Read-ahead for sequential traversals: while timestep t computes, the
  // prefetcher loads the columns and index directories timestep t+1 will
  // touch (plan leaves + histogram axes). With several host threads the
  // workers overlap their own I/O (t+1 is already claimed by a peer), so
  // the prefetcher would only duplicate work — skip it.
  // Plan variables get their index directories too; axis-only variables
  // are read as raw columns by the histogram path, so their (pinned)
  // directories are not opened.
  const std::vector<std::string> plan_vars = selection.plan().variables();
  std::vector<std::string> axis_vars;
  for (const auto& [x, y] : workload.pairs) {
    for (const std::string& v : {x, y})
      if (std::find(plan_vars.begin(), plan_vars.end(), v) == plan_vars.end() &&
          std::find(axis_vars.begin(), axis_vars.end(), v) == axis_vars.end())
        axis_vars.push_back(v);
  }
  std::optional<Prefetcher> prefetch;
  if (cluster.host_threads() == 1) prefetch.emplace(engine.dataset());
  batch.run = cluster.run(engine.num_timesteps(), [&](std::size_t t) {
    if (prefetch) {
      if (!plan_vars.empty()) prefetch->request(t + 1, plan_vars);
      if (!axis_vars.empty())
        prefetch->request(t + 1, axis_vars, /*value_indices=*/false);
    }
    std::uint64_t local = 0;
    for (const auto& [x, y] : workload.pairs) {
      const Histogram2D h = selection.histogram2d(t, x, y, workload.nbins,
                                                  workload.nbins, workload.binning);
      local += h.total();
    }
    total.fetch_add(local, std::memory_order_relaxed);
  });
  batch.total_records = total.load();
  return batch;
}

TrackBatch parallel_track(const io::Dataset& dataset,
                          const std::vector<std::uint64_t>& ids, EvalMode mode,
                          VirtualCluster& cluster) {
  TrackBatch batch;
  std::atomic<std::uint64_t> hits{0};
  const core::ExecutionPlan plan = core::plan_query(Query::id_in("id", ids));
  batch.run = cluster.run(dataset.num_timesteps(), [&](std::size_t t) {
    const auto table = dataset.open_table(t);
    hits.fetch_add(plan.evaluate(*table, mode)->count(),
                   std::memory_order_relaxed);
  });
  batch.total_hits = hits.load();
  return batch;
}

TrackBatch parallel_track(const core::Engine& engine,
                          const std::vector<std::uint64_t>& ids,
                          VirtualCluster& cluster) {
  TrackBatch batch;
  std::atomic<std::uint64_t> hits{0};
  const core::Selection selection = engine.select(Query::id_in("id", ids));
  std::optional<Prefetcher> prefetch;
  if (cluster.host_threads() == 1) prefetch.emplace(engine.dataset());
  batch.run = cluster.run(engine.num_timesteps(), [&](std::size_t t) {
    if (prefetch) prefetch->request(t + 1, {"id"});
    hits.fetch_add(selection.count(t), std::memory_order_relaxed);
  });
  batch.total_hits = hits.load();
  return batch;
}

}  // namespace qdv::par
