// qdvbench: the repository's wire-level benchmark (bench/qdvbench/README.md).
//
// Each workload generates a dataset with `qdv_tool generate`, serves it with
// a `qdv_tool serve` child process, and drives it over the unix socket from
// closed-loop client threads in this process. Responses are verified against
// an oracle engine after the server stops. With tracing on, the same action
// streams are replayed in-process, timing calls into each module's public
// functions, to give per-layer numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "io/dataset.hpp"

namespace qdvbench {

enum class Workload { kExplore, kZoom, kBrush, kSweep };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kExplore, Workload::kZoom, Workload::kBrush, Workload::kSweep};

const char* workload_name(Workload w);
std::optional<Workload> parse_workload(const std::string& name);

/// Dataset size and load shape of one workload.
struct Shape {
  std::size_t particles = 0;
  std::size_t timesteps = 0;
  std::size_t clients = 0;     // closed-loop client threads (capped at nproc)
  std::uint64_t budget_mib = 0;  // `serve --budget`; 0 = unlimited
};

Shape shape_of(Workload w, bool smoke);

/// One client action: the request lines it sends, in order. The response to
/// the last line is the view the analyst waits for; it is the one verified.
struct Action {
  std::vector<std::string> lines;
  /// Brush actions only: the predicate the brush holds after this action
  /// (the client-tracked composition) and the epoch its answer must carry.
  std::string composed;
  std::uint64_t epoch = 0;
};

/// Seeded action streams of one workload. action(c, i) is a pure function of
/// (seed, workload, c, i) and the dataset's metadata (per-timestep domains
/// and pyramid edges), so the wire run, the verifier and the traced replays
/// all see the same requests.
class Streams {
 public:
  Streams(Workload workload, const qdv::io::Dataset& dataset,
          std::uint64_t seed, std::size_t clients);
  ~Streams();
  Streams(const Streams&) = delete;
  Streams& operator=(const Streams&) = delete;

  Action action(std::size_t client, std::size_t i) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The response line the server should have sent for @p action's last line,
/// recomputed on @p scan_engine (an EvalMode::kScan engine): plain queries
/// as-is, zooms with ZoomMode::kExact, brush queries as their composed
/// predicate at the tracked epoch.
std::string oracle_response(const qdv::core::Engine& scan_engine,
                            const Action& action);

/// True when two response lines agree on every field except the ones that
/// legitimately differ between the server and the oracle: src=, exec_us=
/// and pyr=.
bool same_response(const std::string& a, const std::string& b);

/// Deterministic 64-bit generator keyed by a tuple of integers.
class Rng {
 public:
  Rng(std::initializer_list<std::uint64_t> key);
  std::uint64_t next();
  double uniform();  // [0, 1)
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct WorkloadResult {
  Workload workload = Workload::kExplore;
  bool correct = true;          // no verified response mismatched
  std::uint64_t attempted = 0;  // actions sent (warm-up + timed)
  std::uint64_t failed = 0;     // err lines, disconnects, mismatches
  std::uint64_t mismatches = 0;
  std::uint64_t verified = 0;   // responses checked against the oracle
  std::uint64_t n_ops = 0;      // ok actions in the timed phase
  std::vector<Metric> metrics;  // end-to-end, as named in BENCHMARK.json
  std::vector<Metric> layers;   // per-layer (traced runs only)

  /// (err lines + disconnects + mismatches) / attempted.
  double error_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

struct Options {
  std::vector<Workload> workloads;
  std::uint64_t seed = 42;
  double seconds = 15.0;        // timed phase
  double warmup_seconds = 2.0;  // untimed phase before it
  std::size_t setup_reps = 3;   // set-ups per run; setup_s is their median
  std::size_t replay_actions = 2000;  // traced replay: actions per client
  bool trace = false;
  bool smoke = false;
  std::size_t sets = 1;
  std::filesystem::path tool;       // qdv_tool binary
  std::filesystem::path work;       // working root for datasets and sockets
  std::filesystem::path out;        // result JSON
  std::filesystem::path trace_out;  // Chrome trace (traced runs)
  std::string git_sha = "unknown";
  bool git_dirty = false;
};

/// One span of the traced replay: a timed call into one layer.
struct Span {
  std::uint64_t req = 0;  // action id, shared by the spans of one action
  const char* name = "";
  std::int64_t parent = -1;  // index of the enclosing span in the same thread
  double t0 = 0.0;           // microseconds since the replay started
  double t1 = 0.0;
  std::uint32_t thread = 0;
};

/// Spans of one replay, for trace.json.
struct TraceLog {
  std::string label;  // "<workload> <replay>"
  std::vector<Span> spans;
};

/// Run @p w end to end: set-up, warm-up, timed phase, verification, and
/// (when tracing) the in-process replays. Appends the replays' spans to
/// @p traces.
WorkloadResult run_workload(const Options& options, Workload w,
                            std::vector<TraceLog>& traces);

/// Per-layer metrics of @p w from the in-process replays over the dataset
/// in @p dataset_dir. @p e2e_p50_us and @p generate_s come from the wire run.
std::vector<Metric> trace_layers(const Options& options, Workload w,
                                 const std::filesystem::path& dataset_dir,
                                 double e2e_p50_us, double generate_s,
                                 std::vector<TraceLog>& traces);

/// Nearest-rank percentile of an unsorted sample set (0 when empty).
double percentile(std::vector<double> values, double q);

}  // namespace qdvbench
