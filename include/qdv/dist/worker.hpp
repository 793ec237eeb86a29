// Worker process of the distributed execution subsystem (DESIGN.md
// Section 13): one process, one full core::Engine over the (shared-
// filesystem) dataset, one AF_UNIX listener speaking the framed dist wire
// protocol. A worker is stateless across requests — every kShardQuery
// carries the canonical plan text plus its row window, so any worker can
// evaluate any shard (which is what makes re-sharding after a death
// trivial); the engine's plan/bitvector caches make repeated plans cheap.
//
// `qdv_tool worker <dataset> --socket <path>` wraps run_worker(); tests and
// `serve --workers N` spawn workers via spawn_worker_process() (fork +
// exec, never bare fork — the parent owns live threads).
#pragma once

#include <sys/types.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace qdv::dist {

/// Framed-protocol server over one engine, on the same io::UnixServer as
/// svc::SocketServer: an accept thread plus one thread per connection;
/// stop() closes everything and joins.
class WorkerServer {
 public:
  /// Opens the dataset and binds @p socket_path (an existing socket file is
  /// removed first); throws std::runtime_error on failure.
  WorkerServer(const std::filesystem::path& dataset_dir,
               std::filesystem::path socket_path);
  ~WorkerServer();  // stop()s if still running
  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  void start();
  void stop();
  /// Block until a kShutdown frame arrives (run_worker's wait).
  void wait_shutdown();

  const std::filesystem::path& socket_path() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Blocking entry point of `qdv_tool worker`: serve until a kShutdown frame
/// (or a fatal setup error). Returns a process exit code.
int run_worker(const std::filesystem::path& dataset_dir,
               const std::filesystem::path& socket_path);

/// Fork + exec @p exe with @p args (argv[0] = exe) and the parent's
/// environment plus @p env overrides. Returns the child pid; throws on
/// fork/allocation failure. exec happens immediately after fork, so
/// spawning from a process with live threads (the pool, the service) is
/// safe.
pid_t spawn_worker_process(
    const std::string& exe, const std::vector<std::string>& args,
    const std::vector<std::pair<std::string, std::string>>& env = {});

/// Absolute path of the running executable (/proc/self/exe), or @p fallback
/// when the link cannot be read.
std::string self_exe_path(const std::string& fallback = {});

}  // namespace qdv::dist
