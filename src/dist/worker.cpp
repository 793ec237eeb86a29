#include "dist/worker.hpp"

#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "bitmap/bitvector.hpp"
#include "bitmap/histogram.hpp"
#include "core/engine.hpp"
#include "core/selection.hpp"
#include "dist/wire.hpp"
#include "io/io_util.hpp"

extern char** environ;

namespace qdv::dist {

namespace {

/// Shard timing uses process CPU time, not wall time: workers time-share
/// host cores with each other (and the coordinator), so wall time around
/// the evaluation would charge this shard for the other processes' slices.
/// CPU seconds are what the shard costs on a dedicated core — the unit the
/// coordinator's makespan statistics (max/sum_shard_seconds) aggregate.
/// The process-wide clock (not thread) also covers engine pool threads.
double cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Frame error_frame(std::uint32_t seq, const std::string& message) {
  Frame f;
  f.type = MsgType::kError;
  f.seq = seq;
  WireWriter w;
  w.str(message);
  f.payload = w.take();
  return f;
}

/// Zeros outside [begin, end), ones inside — ANDed against the selection
/// bitvector to window it to this worker's shard. Run-length encoded, so
/// the mask costs O(1) words regardless of the window size.
BitVector window_mask(std::uint64_t begin, std::uint64_t end,
                      std::uint64_t nrows) {
  BitVector m;
  m.append_run(false, begin);
  m.append_run(true, end - begin);
  m.append_run(false, nrows - end);
  return m;
}

}  // namespace

struct WorkerServer::Impl {
  core::Engine engine;
  std::filesystem::path dataset_dir;

  std::mutex shutdown_mutex;
  std::condition_variable shutdown_cv;
  bool shutdown_requested = false;

  // Windowed-selection cache. The coordinator's shard windows are static
  // between re-shards, so the same (plan, timestep, window) triple arrives
  // for every kind of query over a selection; windowing the full-timestep
  // bitvector is O(total rows) while everything downstream is O(window),
  // and without this cache that AND would dominate per-shard compute and
  // cap the scatter speedup. Bounded by wholesale clear — entries are
  // cheap to rebuild and the working set (plans x windows) is tiny.
  std::mutex window_mutex;
  std::unordered_map<std::string, std::shared_ptr<const BitVector>> window_cache;
  static constexpr std::size_t kWindowCacheMax = 256;

  std::shared_ptr<const BitVector> windowed_rows(const core::Selection& selection,
                                                 const ShardQuery& q,
                                                 std::uint64_t nrows) {
    std::string key = selection.cache_key();
    key += '|';
    key += std::to_string(q.timestep);
    key += ':';
    key += std::to_string(q.row_begin);
    key += '-';
    key += std::to_string(q.row_end);
    {
      std::lock_guard<std::mutex> lock(window_mutex);
      const auto it = window_cache.find(key);
      if (it != window_cache.end()) return it->second;
    }
    const std::shared_ptr<const BitVector> bits =
        selection.bits(static_cast<std::size_t>(q.timestep));
    auto rows = std::make_shared<const BitVector>(
        *bits & window_mask(q.row_begin, q.row_end, nrows));
    std::lock_guard<std::mutex> lock(window_mutex);
    if (window_cache.size() >= kWindowCacheMax) window_cache.clear();
    window_cache.emplace(std::move(key), rows);
    return rows;
  }

  // Declared last: bound only once the engine has opened, and destroyed
  // (stopped, every handler joined) before anything the handlers touch.
  io::UnixServer server;

  Impl(const std::filesystem::path& dir, std::filesystem::path p)
      : engine(core::Engine::open(dir)),
        dataset_dir(dir),
        server(std::move(p), [this](int fd) { serve_connection(fd); }) {}

  Frame handle(const Frame& request) {
    switch (request.type) {
      case MsgType::kHello:
        return handle_hello(request);
      case MsgType::kHeartbeat: {
        Frame f;
        f.type = MsgType::kHeartbeatAck;
        f.seq = request.seq;
        return f;
      }
      case MsgType::kShardQuery:
        return handle_query(request);
      case MsgType::kShutdown: {
        Frame f;
        f.type = MsgType::kShutdownAck;
        f.seq = request.seq;
        return f;
      }
      default:
        return error_frame(request.seq, "unexpected frame type");
    }
  }

  Frame handle_hello(const Frame& request) {
    try {
      WireReader r(request.payload);
      const std::uint16_t peer_version = r.u16();
      const std::string peer_dataset = r.str();
      if (peer_version != kWireVersion)
        return error_frame(
            request.seq,
            "wire version mismatch: worker speaks v" +
                std::to_string(kWireVersion) + ", coordinator sent v" +
                std::to_string(peer_version));
      // Both sides must read the same files; a canonical-path mismatch
      // means merged partials would silently describe two datasets.
      std::error_code ec;
      const auto ours = std::filesystem::weakly_canonical(dataset_dir, ec);
      const auto theirs = std::filesystem::weakly_canonical(peer_dataset, ec);
      if (!peer_dataset.empty() && ours != theirs)
        return error_frame(request.seq, "dataset mismatch: worker serves " +
                                            dataset_dir.string() +
                                            ", coordinator expects " +
                                            peer_dataset);
      std::uint64_t total_rows = 0;
      for (std::size_t t = 0; t < engine.num_timesteps(); ++t)
        total_rows += engine.dataset().table(t).num_rows();
      Frame f;
      f.type = MsgType::kHelloAck;
      f.seq = request.seq;
      WireWriter w;
      w.u64(static_cast<std::uint64_t>(::getpid()));
      w.u64(engine.num_timesteps());
      w.u64(total_rows);
      f.payload = w.take();
      return f;
    } catch (const std::exception& e) {
      return error_frame(request.seq, e.what());
    }
  }

  Frame handle_query(const Frame& request) {
    try {
      const ShardQuery q = ShardQuery::decode(request.payload);
      if (q.timestep >= engine.num_timesteps())
        throw std::invalid_argument("timestep out of range");
      const io::TimestepTable& table =
          engine.dataset().table(static_cast<std::size_t>(q.timestep));
      const std::uint64_t nrows = table.num_rows();
      if (q.row_begin > q.row_end || q.row_end > nrows)
        throw std::invalid_argument("shard row window out of range");

      const double start = cpu_seconds();
      const auto selection = engine.select_shared(q.query);
      const std::shared_ptr<const BitVector> rows_ptr =
          windowed_rows(*selection, q, nrows);
      const BitVector& rows = *rows_ptr;

      Frame f;
      f.seq = request.seq;
      WireWriter w;
      switch (q.kind) {
        case ShardKind::kCount: {
          const std::uint64_t count = rows.count();
          w.f64(cpu_seconds() - start);
          w.u64(count);
          f.type = MsgType::kPartialCount;
          break;
        }
        case ShardKind::kBits: {
          std::ostringstream blob;
          rows.save(blob);
          w.f64(cpu_seconds() - start);
          w.str(blob.str());
          f.type = MsgType::kPartialBits;
          break;
        }
        case ShardKind::kHist1: {
          // Uniform bins derive from the table domain alone, so every
          // worker produces identical edges and partial counts sum to the
          // single-process histogram bit for bit.
          const Histogram1D h = table.engine().histogram1d(
              q.var_x, static_cast<std::size_t>(q.nxbins), &rows,
              BinningMode::kUniform);
          w.f64(cpu_seconds() - start);
          w.u32(static_cast<std::uint32_t>(h.bins.edges().size()));
          for (const double e : h.bins.edges()) w.f64(e);
          w.u32(static_cast<std::uint32_t>(h.counts.size()));
          for (const std::uint64_t c : h.counts) w.u64(c);
          f.type = MsgType::kPartialHist1;
          break;
        }
        case ShardKind::kHist2: {
          const Histogram2D h = table.engine().histogram2d(
              q.var_x, q.var_y, static_cast<std::size_t>(q.nxbins),
              static_cast<std::size_t>(q.nybins), &rows, BinningMode::kUniform);
          w.f64(cpu_seconds() - start);
          w.u32(static_cast<std::uint32_t>(h.xbins.edges().size()));
          for (const double e : h.xbins.edges()) w.f64(e);
          w.u32(static_cast<std::uint32_t>(h.ybins.edges().size()));
          for (const double e : h.ybins.edges()) w.f64(e);
          w.u32(static_cast<std::uint32_t>(h.counts.size()));
          for (const std::uint64_t c : h.counts) w.u64(c);
          f.type = MsgType::kPartialHist2;
          break;
        }
        default:
          throw std::invalid_argument("unknown shard kind");
      }
      f.payload = w.take();
      return f;
    } catch (const std::exception& e) {
      return error_frame(request.seq, e.what());
    }
  }

  void serve_connection(int fd) {
    // The channel closes its descriptor on any wire error, so it gets a
    // duplicate: `fd` itself stays open (stop() shuts it down to wake the
    // channel) until the UnixServer retires it. No recv timeout: idle
    // between requests is normal.
    Channel channel(::dup(fd));
    bool request_shutdown = false;
    for (;;) {
      Frame request;
      try {
        request = channel.recv();
      } catch (const WireVersionError& e) {
        // The frame was drained, the stream is still synced: tell the
        // stale peer exactly what went wrong before hanging up.
        try {
          channel.send(error_frame(0, e.what()));
        } catch (...) {
        }
        break;
      } catch (...) {
        break;  // EOF / peer gone / corrupt stream
      }
      const Frame reply = handle(request);
      request_shutdown = request.type == MsgType::kShutdown;
      try {
        channel.send(reply);
      } catch (...) {
        break;
      }
      if (request_shutdown) break;
    }
    channel.close();
    if (request_shutdown) {
      std::lock_guard<std::mutex> lock(shutdown_mutex);
      shutdown_requested = true;
      shutdown_cv.notify_all();
    }
  }
};

WorkerServer::WorkerServer(const std::filesystem::path& dataset_dir,
                           std::filesystem::path socket_path)
    : impl_(std::make_unique<Impl>(dataset_dir, std::move(socket_path))) {}

WorkerServer::~WorkerServer() = default;  // the UnixServer stops itself

void WorkerServer::start() { impl_->server.start(); }

void WorkerServer::stop() { impl_->server.stop(); }

void WorkerServer::wait_shutdown() {
  std::unique_lock<std::mutex> lock(impl_->shutdown_mutex);
  impl_->shutdown_cv.wait(lock, [this] { return impl_->shutdown_requested; });
}

const std::filesystem::path& WorkerServer::socket_path() const {
  return impl_->server.path();
}

int run_worker(const std::filesystem::path& dataset_dir,
               const std::filesystem::path& socket_path) {
  try {
    WorkerServer server(dataset_dir, socket_path);
    server.start();
    server.wait_shutdown();
    server.stop();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qdv worker: %s\n", e.what());
    return 1;
  }
}

pid_t spawn_worker_process(
    const std::string& exe, const std::vector<std::string>& args,
    const std::vector<std::pair<std::string, std::string>>& env) {
  // Build argv/envp before fork(): only async-signal-safe calls are legal
  // between fork and exec in a multithreaded parent.
  std::vector<std::string> arg_storage;
  arg_storage.reserve(args.size() + 1);
  arg_storage.push_back(exe);
  for (const std::string& a : args) arg_storage.push_back(a);
  std::vector<char*> argv;
  for (std::string& a : arg_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::vector<std::string> env_storage;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view entry(*e);
    const std::size_t eq = entry.find('=');
    const std::string_view name = entry.substr(0, eq);
    bool overridden = false;
    for (const auto& [k, v] : env) overridden = overridden || k == name;
    if (!overridden) env_storage.emplace_back(entry);
  }
  for (const auto& [k, v] : env) env_storage.push_back(k + "=" + v);
  std::vector<char*> envp;
  for (std::string& e : env_storage) envp.push_back(e.data());
  envp.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0)
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    ::execve(exe.c_str(), argv.data(), envp.data());
    _exit(127);
  }
  return pid;
}

std::string self_exe_path(const std::string& fallback) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return fallback;
  buf[n] = '\0';
  return std::string(buf);
}

}  // namespace qdv::dist
