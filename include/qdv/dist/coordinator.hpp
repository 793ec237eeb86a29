// Coordinator of the distributed execution subsystem (DESIGN.md
// Section 13): scatters shard-scoped canonical plans over the framed wire
// protocol to worker processes, gathers the partials, and merges them into
// results bit-identical to single-process core::Engine execution — counts
// sum, uniform-bin histogram counts sum elementwise (identical edges come
// from the shared table domain), and each windowed selection bitvector maps
// its rows through the id column inside its own window, in window order.
//
// Robustness is structural, not bolted on: every worker channel carries an
// SO_RCVTIMEO request timeout, a failed sub-request gets a bounded
// reconnect-and-resend retry, a worker that still fails is declared dead,
// its manifest windows are re-sharded onto the survivors, and the pending
// sub-requests re-scatter — all inside the same execute() call, so the
// caller still receives the exact answer. A background heartbeat thread
// additionally detects deaths between queries.
//
// Thread-safety: execute()/stats()/attach_worker() are safe from any
// thread; per-worker channels are mutex-guarded and coordinator state
// (manifest, liveness, counters) sits behind one state mutex.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bitmap/histogram.hpp"
#include "dist/shard.hpp"
#include "dist/wire.hpp"
#include "io/dataset.hpp"

namespace qdv::dist {

struct DistConfig {
  /// Budget for a worker socket to come up / come back on retry.
  std::chrono::milliseconds connect_timeout{2000};
  /// SO_RCVTIMEO on every scatter reply; a worker that does not answer
  /// within this is treated as failed (then retried, then declared dead).
  std::chrono::milliseconds request_timeout{10000};
  /// Liveness probe period of the background heartbeat thread.
  std::chrono::milliseconds heartbeat_interval{250};
  /// Consecutive missed heartbeats before a worker is declared dead.
  int heartbeat_misses = 3;
  /// Reconnect-and-resend attempts per sub-request before the owning
  /// worker is declared dead and its window re-sharded.
  int max_retries = 1;
  /// Jittered exponential backoff before each reconnect-and-resend: the
  /// delay is min(backoff_base * 2^attempt, backoff_max) scaled by a
  /// seeded jitter factor in [0.5, 1.0), so a momentarily overloaded
  /// worker gets breathing room instead of an instant resend — and
  /// coordinators retrying the same worker do not resend in lockstep.
  std::chrono::milliseconds backoff_base{5};
  std::chrono::milliseconds backoff_max{200};
  /// Seed of the jitter PRNG; a fixed seed makes the delay sequence
  /// reproducible in tests.
  std::uint64_t backoff_seed = 0x9e3779b97f4a7c15ull;
  /// Test seam: when set, called with each backoff delay instead of
  /// sleeping the calling thread.
  std::function<void(std::chrono::milliseconds)> backoff_sleep;
  /// Run the heartbeat thread (tests exercising only the in-query failure
  /// path can turn it off for determinism).
  bool heartbeats = true;
};

/// Per-worker slice of DistStats.
struct WorkerCounters {
  std::string name;  // socket filename
  bool alive = true;
  std::uint64_t requests = 0;  // sub-requests sent (incl. resends)
  std::uint64_t failures = 0;  // send/recv/timeout failures observed
  std::uint64_t retries = 0;   // reconnect-and-resend attempts
};

struct DistStats {
  std::size_t workers = 0;  // ever attached
  std::size_t alive = 0;
  std::uint64_t queries = 0;        // execute() calls
  std::uint64_t scatters = 0;       // shard sub-requests sent
  std::uint64_t gathers = 0;        // partial results merged
  std::uint64_t retries = 0;        // bounded per-worker retries
  std::uint64_t reshards = 0;       // windows reassigned after deaths
  std::uint64_t deaths = 0;         // workers declared dead
  std::uint64_t remote_errors = 0;  // kError replies (query-level failures)
  std::vector<WorkerCounters> per_worker;
};

/// The merged outcome of one scatter/gather. ok == false carries a remote
/// evaluation error (unknown variable, bad window, ...) — the distributed
/// twin of a local evaluation throwing.
struct GatherResult {
  bool ok = true;
  std::string error;

  std::uint64_t count = 0;             // kCount (and total of kBits)
  std::vector<std::uint64_t> ids;      // kBits, mapped through the id column
  Histogram1D hist1d;                  // kHist1
  Histogram2D hist2d;                  // kHist2

  // Worker-reported per-shard compute cost in process CPU seconds (what the
  // shard costs on a dedicated core, immune to workers time-sharing host
  // cores): the max is the makespan-model critical path, the sum the total
  // work (see bench/distributed.cpp).
  std::size_t shards = 0;              // partials merged
  double max_shard_seconds = 0.0;      // critical-path worker CPU time
  double sum_shard_seconds = 0.0;      // total worker CPU time
};

/// Next retry delay: min(@p base * 2^attempt, @p max) scaled by a jitter
/// factor in [0.5, 1.0) drawn from @p state (xorshift64 — seed it once,
/// pass it back for each draw; the same seed replays the same sequence).
/// Never returns less than 1 ms.
std::chrono::milliseconds backoff_delay(int attempt,
                                        std::chrono::milliseconds base,
                                        std::chrono::milliseconds max,
                                        std::uint64_t& state);

/// No live worker remains (or none was ever attached): callers fall back
/// to local execution.
class NoLiveWorkers : public std::runtime_error {
 public:
  explicit NoLiveWorkers(const std::string& what) : std::runtime_error(what) {}
};

class Coordinator {
 public:
  /// @p dataset is the coordinator's own handle to the same on-disk
  /// dataset the workers serve (shared filesystem); it provides row counts
  /// for the shard manifest and the id column for merged id queries.
  explicit Coordinator(io::Dataset dataset, DistConfig config = {});
  /// Stops the heartbeat thread and shuts down (then reaps) every worker
  /// process attached with a pid.
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Connect to a worker socket and hello-handshake (wire version +
  /// dataset identity are verified). @p pid >= 0 registers the process for
  /// shutdown/kill/reap; the returned index is the worker's id in the
  /// shard manifest and stats. Throws std::runtime_error on connect or
  /// handshake failure. The manifest is rebuilt over all live workers on
  /// every attach, so attach every worker before the first execute().
  std::size_t attach_worker(const std::filesystem::path& socket,
                            pid_t pid = -1);

  /// Scatter @p kind over the manifest windows of @p timestep, gather and
  /// merge the partials. Retries, death detection, and re-sharding happen
  /// inside; throws NoLiveWorkers when nobody is left to ask.
  GatherResult execute(ShardKind kind, std::size_t timestep,
                       const std::string& query, const std::string& var_x = {},
                       const std::string& var_y = {}, std::size_t nxbins = 64,
                       std::size_t nybins = 64);

  std::size_t workers() const;
  std::size_t live_workers() const;
  DistStats stats() const;
  ShardManifest manifest_snapshot() const;
  void save_manifest(const std::filesystem::path& path) const;

  /// Graceful worker shutdown: kShutdown over the wire, bounded wait, then
  /// SIGKILL + reap for spawned pids (idempotent; also run by ~Coordinator).
  void shutdown_workers();

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace qdv::dist
