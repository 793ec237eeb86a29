#include "dist/coordinator.hpp"

#include <signal.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

#include "bitmap/bitvector.hpp"
#include "bitmap/kernels.hpp"
#include "io/timestep_table.hpp"

namespace qdv::dist {

namespace {

/// One shard sub-request in flight during execute(): the window, which
/// worker it is currently assigned to, and how often that worker has been
/// retried for it.
struct Sub {
  ShardRange range;
  int attempts = 0;
  // Per-round transient state:
  std::uint32_t seq = 0;
  bool sent = false;
  bool failed = false;
};

struct Partial {
  ShardRange range;
  Frame frame;
};

double read_exec_seconds(const Frame& frame) {
  WireReader r(frame.payload);
  return r.f64();
}

}  // namespace

std::chrono::milliseconds backoff_delay(int attempt,
                                        std::chrono::milliseconds base,
                                        std::chrono::milliseconds max,
                                        std::uint64_t& state) {
  // xorshift64: tiny, seedable, and good enough for jitter (a zero state
  // would stick at zero, so it is nudged to 1).
  if (state == 0) state = 1;
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  const double jitter =
      0.5 + 0.5 * static_cast<double>(state >> 11) /
                      static_cast<double>(std::uint64_t{1} << 53);
  const int k = std::clamp(attempt, 0, 30);
  double ms = static_cast<double>(base.count()) * std::ldexp(1.0, k);
  ms = std::min(ms, static_cast<double>(max.count())) * jitter;
  return std::max(std::chrono::milliseconds(static_cast<std::int64_t>(ms)),
                  std::chrono::milliseconds(1));
}

struct Coordinator::Impl {
  io::Dataset dataset;
  DistConfig config;

  struct Worker {
    std::filesystem::path socket;
    std::string name;
    pid_t pid = -1;
    bool reaped = false;

    std::mutex qmutex;  // query channel, one scatter at a time
    Channel query;
    std::mutex cmutex;  // control channel (heartbeat / shutdown)
    Channel control;

    std::atomic<bool> alive{true};
    int hb_misses = 0;  // heartbeat thread only

    // Guarded by state_mutex:
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
    std::uint64_t retries = 0;
  };

  mutable std::mutex state_mutex;  // manifest, liveness, counters
  std::vector<std::unique_ptr<Worker>> workers;
  std::size_t alive_count = 0;
  ShardManifest manifest;
  std::vector<std::uint64_t> rows_per_timestep;

  std::uint64_t backoff_state = 0;  // jitter PRNG, guarded by state_mutex

  std::uint64_t queries = 0;
  std::uint64_t scatters = 0;
  std::uint64_t gathers = 0;
  std::uint64_t retries = 0;
  std::uint64_t reshards = 0;
  std::uint64_t deaths = 0;
  std::uint64_t remote_errors = 0;

  std::atomic<std::uint32_t> next_seq{1};

  std::mutex hb_mutex;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::thread hb_thread;

  bool workers_shut_down = false;

  Impl(io::Dataset d, DistConfig c)
      : dataset(std::move(d)), config(std::move(c)),
        backoff_state(config.backoff_seed) {
    rows_per_timestep.reserve(dataset.num_timesteps());
    for (std::size_t t = 0; t < dataset.num_timesteps(); ++t)
      rows_per_timestep.push_back(dataset.table(t).num_rows());
  }

  // ------------------------------------------------------------ liveness ---

  std::vector<bool> alive_mask_locked() const {
    std::vector<bool> mask(workers.size());
    for (std::size_t w = 0; w < workers.size(); ++w)
      mask[w] = workers[w]->alive.load(std::memory_order_relaxed);
    return mask;
  }

  /// Declare worker @p index dead and move its manifest windows onto the
  /// survivors. Idempotent; safe from execute() and the heartbeat thread.
  void mark_dead(std::size_t index) {
    std::lock_guard<std::mutex> lock(state_mutex);
    Worker& w = *workers[index];
    if (!w.alive.exchange(false, std::memory_order_relaxed)) return;
    ++deaths;
    --alive_count;
    try {
      reshards += manifest.reassign(index, alive_mask_locked());
    } catch (const std::exception&) {
      // No survivors: the manifest keeps the stale assignment; execute()
      // reports NoLiveWorkers before consulting it.
    }
  }

  void rebuild_manifest_locked() {
    manifest = ShardManifest::build(rows_per_timestep,
                                    std::max<std::size_t>(workers.size(), 1));
    for (std::size_t w = 0; w < workers.size(); ++w)
      if (!workers[w]->alive.load(std::memory_order_relaxed))
        manifest.reassign(w, alive_mask_locked());
  }

  // ----------------------------------------------------------- heartbeat ---

  void heartbeat_loop() {
    std::unique_lock<std::mutex> lock(hb_mutex);
    while (!hb_stop) {
      hb_cv.wait_for(lock, config.heartbeat_interval);
      if (hb_stop) break;
      lock.unlock();
      probe_workers();
      lock.lock();
    }
  }

  void probe_workers() {
    // attach_worker() may grow the list meanwhile, so probe a snapshot taken
    // under state_mutex; workers are never removed, so the pointers stay
    // valid.
    std::vector<Worker*> snapshot;
    {
      std::lock_guard<std::mutex> lock(state_mutex);
      for (const auto& w : workers) snapshot.push_back(w.get());
    }
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      Worker& w = *snapshot[i];
      if (!w.alive.load(std::memory_order_relaxed)) continue;
      // A spawned child that exited is dead no matter what its socket says.
      if (w.pid > 0 && !w.reaped) {
        int status = 0;
        if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
          w.reaped = true;
          mark_dead(i);
          continue;
        }
      }
      std::lock_guard<std::mutex> lock(w.cmutex);
      try {
        Frame probe;
        probe.type = MsgType::kHeartbeat;
        probe.seq = next_seq.fetch_add(1, std::memory_order_relaxed);
        if (!w.control.open())
          w.control = Channel::connect(w.socket, config.connect_timeout,
                                       config.request_timeout);
        w.control.send(probe);
        const Frame ack = w.control.recv();
        if (ack.type != MsgType::kHeartbeatAck)
          throw std::runtime_error("unexpected heartbeat reply");
        w.hb_misses = 0;
      } catch (const std::exception&) {
        w.control.close();
        if (++w.hb_misses >= config.heartbeat_misses) mark_dead(i);
      }
    }
  }

  // -------------------------------------------------------------- expire ---

  void stop_heartbeat() {
    {
      std::lock_guard<std::mutex> lock(hb_mutex);
      hb_stop = true;
      hb_cv.notify_all();
    }
    if (hb_thread.joinable()) hb_thread.join();
  }

  void shutdown_workers() {
    {
      std::lock_guard<std::mutex> lock(state_mutex);
      if (workers_shut_down) return;
      workers_shut_down = true;
    }
    for (auto& wp : workers) {
      Worker& w = *wp;
      if (w.alive.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(w.cmutex);
        try {
          if (!w.control.open())
            w.control = Channel::connect(w.socket, config.connect_timeout,
                                         std::chrono::milliseconds(500));
          Frame bye;
          bye.type = MsgType::kShutdown;
          bye.seq = next_seq.fetch_add(1, std::memory_order_relaxed);
          w.control.send(bye);
          (void)w.control.recv();  // kShutdownAck (best effort)
        } catch (const std::exception&) {
        }
        w.control.close();
      }
      {
        std::lock_guard<std::mutex> lock(w.qmutex);
        w.query.close();
      }
    }
    for (auto& wp : workers) {
      Worker& w = *wp;
      if (w.pid <= 0 || w.reaped) continue;
      int status = 0;
      for (int i = 0; i < 100; ++i) {  // ~2s of graceful exit budget
        if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
          w.reaped = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (!w.reaped) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, &status, 0);
        w.reaped = true;
      }
    }
  }

  // --------------------------------------------------------------- query ---

  Frame make_query_frame(ShardKind kind, std::size_t timestep,
                         const std::string& query, const std::string& var_x,
                         const std::string& var_y, std::size_t nxbins,
                         std::size_t nybins, const ShardRange& range,
                         std::uint32_t seq) const {
    ShardQuery q;
    q.kind = kind;
    q.timestep = timestep;
    q.row_begin = range.begin;
    q.row_end = range.end;
    q.nxbins = nxbins;
    q.nybins = nybins;
    q.var_x = var_x;
    q.var_y = var_y;
    q.query = query;
    Frame f;
    f.type = MsgType::kShardQuery;
    f.seq = seq;
    f.payload = q.encode();
    return f;
  }

  /// One scatter round over @p pending: send everything first, then gather
  /// every reply — workers compute their shards concurrently while the
  /// coordinator waits, whatever the local thread count. Successful
  /// partials are appended; failed subs are returned for retry/re-shard.
  std::vector<Sub> scatter_round(std::vector<Sub> pending, ShardKind kind,
                                 std::size_t timestep, const std::string& query,
                                 const std::string& var_x,
                                 const std::string& var_y, std::size_t nxbins,
                                 std::size_t nybins,
                                 std::vector<Partial>& partials,
                                 std::string& remote_error) {
    std::sort(pending.begin(), pending.end(), [](const Sub& a, const Sub& b) {
      return a.range.worker < b.range.worker ||
             (a.range.worker == b.range.worker && a.range.begin < b.range.begin);
    });
    // Lock every involved worker's query channel, ascending by index (the
    // one lock order everywhere, so concurrent executes cannot deadlock).
    std::vector<std::unique_lock<std::mutex>> locks;
    for (std::size_t i = 0; i < pending.size(); ++i)
      if (i == 0 || pending[i].range.worker != pending[i - 1].range.worker)
        locks.emplace_back(workers[pending[i].range.worker]->qmutex);

    std::uint64_t sent_count = 0;
    for (Sub& sub : pending) {
      Worker& w = *workers[sub.range.worker];
      if (!w.alive.load(std::memory_order_relaxed)) {
        sub.failed = true;
        continue;
      }
      sub.seq = next_seq.fetch_add(1, std::memory_order_relaxed);
      try {
        w.query.send(make_query_frame(kind, timestep, query, var_x, var_y,
                                      nxbins, nybins, sub.range, sub.seq));
        sub.sent = true;
        ++sent_count;
      } catch (const std::exception&) {
        sub.failed = true;
      }
    }
    for (Sub& sub : pending) {
      if (!sub.sent) continue;
      Worker& w = *workers[sub.range.worker];
      try {
        Frame reply = w.query.recv();
        if (reply.seq != sub.seq)
          throw std::runtime_error("reply out of sequence");
        if (reply.type == MsgType::kError) {
          WireReader r(reply.payload);
          if (remote_error.empty()) remote_error = r.str();
        } else {
          partials.push_back({sub.range, std::move(reply)});
        }
      } catch (const std::exception&) {
        sub.failed = true;
        w.query.close();  // a desynced/timed-out stream cannot be reused
      }
    }
    locks.clear();

    {
      std::lock_guard<std::mutex> lock(state_mutex);
      scatters += sent_count;
      for (const Sub& sub : pending) {
        Worker& w = *workers[sub.range.worker];
        if (sub.sent) ++w.requests;
        if (sub.failed) ++w.failures;
      }
    }
    std::vector<Sub> failed;
    for (Sub& sub : pending)
      if (sub.failed) {
        sub.sent = false;
        sub.failed = false;
        failed.push_back(sub);
      }
    return failed;
  }

  /// Decide each failed sub's fate: bounded reconnect-and-resend on the
  /// same worker, or declare the worker dead and split the window across
  /// the survivors.
  std::vector<Sub> handle_failures(std::vector<Sub> failed) {
    std::vector<Sub> requeued;
    for (Sub& sub : failed) {
      const std::size_t wi = sub.range.worker;
      Worker& w = *workers[wi];
      bool retry = false;
      if (w.alive.load(std::memory_order_relaxed) &&
          sub.attempts < config.max_retries) {
        // Back off before touching the worker again — even before the
        // reconnect, so a worker restarting its listener gets the same
        // breathing room as one that is merely slow.
        std::chrono::milliseconds delay{};
        {
          std::lock_guard<std::mutex> lock(state_mutex);
          delay = backoff_delay(sub.attempts, config.backoff_base,
                                config.backoff_max, backoff_state);
        }
        if (config.backoff_sleep)
          config.backoff_sleep(delay);
        else
          std::this_thread::sleep_for(delay);
        std::lock_guard<std::mutex> lock(w.qmutex);
        try {
          if (!w.query.open())
            w.query = Channel::connect(w.socket, config.connect_timeout,
                                       config.request_timeout);
          retry = true;
        } catch (const std::exception&) {
        }
      }
      if (retry) {
        {
          std::lock_guard<std::mutex> lock(state_mutex);
          ++retries;
          ++w.retries;
        }
        ++sub.attempts;
        requeued.push_back(sub);
        continue;
      }
      mark_dead(wi);
      std::lock_guard<std::mutex> lock(state_mutex);
      std::vector<std::size_t> live;
      for (std::size_t i = 0; i < workers.size(); ++i)
        if (workers[i]->alive.load(std::memory_order_relaxed)) live.push_back(i);
      if (live.empty())
        throw NoLiveWorkers("worker '" + w.name +
                            "' died and no live workers remain");
      for (ShardRange piece :
           partition_rows(sub.range.end - sub.range.begin, live)) {
        piece.begin += sub.range.begin;
        piece.end += sub.range.begin;
        ++reshards;
        requeued.push_back({piece, 0, 0, false, false});
      }
    }
    return requeued;
  }

  // --------------------------------------------------------------- merge ---

  GatherResult merge(ShardKind kind, std::size_t timestep,
                     std::vector<Partial> partials) {
    GatherResult out;
    out.shards = partials.size();
    // Re-queued windows arrive out of order: sorted, they must tile
    // [0, rows) exactly, each starting where the previous one ended.
    std::sort(partials.begin(), partials.end(),
              [](const Partial& a, const Partial& b) {
                return a.range.begin < b.range.begin;
              });
    const std::uint64_t rows = rows_per_timestep[timestep];
    std::uint64_t covered = 0;
    for (const Partial& p : partials) {
      const double s = read_exec_seconds(p.frame);
      out.sum_shard_seconds += s;
      out.max_shard_seconds = std::max(out.max_shard_seconds, s);
      if (p.range.begin != covered)
        throw std::runtime_error("gathered windows do not tile the timestep");
      covered = p.range.end;
    }
    if (covered != rows)
      throw std::runtime_error("gathered windows do not tile the timestep");

    switch (kind) {
      case ShardKind::kCount: {
        for (const Partial& p : partials) {
          WireReader r(p.frame.payload);
          r.f64();
          out.count += r.u64();
        }
        break;
      }
      case ShardKind::kBits: {
        // Map each partial's set rows through the id column inside its own
        // window. The windows are sorted and tile the timestep, so this is
        // the row-ascending walk of Selection::ids. A partial longer than
        // the timestep, or with a set row outside its window, is refused.
        const std::span<const std::uint64_t> id_col =
            dataset.table(timestep).id_column("id");
        for (const Partial& p : partials) {
          WireReader r(p.frame.payload);
          r.f64();
          std::istringstream blob(r.str());
          const BitVector bits = BitVector::load(blob);
          if (bits.size() > rows)
            throw std::runtime_error(
                "partial id bitvector is longer than the timestep");
          const std::uint64_t set = bits.count();
          const std::size_t before = out.ids.size();
          out.ids.reserve(before + set);
          kern::for_each_set_blocked(
              bits, p.range.begin, p.range.end,
              [&](std::uint64_t row) { out.ids.push_back(id_col[row]); });
          if (out.ids.size() - before != set)
            throw std::runtime_error(
                "partial id bitvector has rows outside its window");
        }
        out.count = out.ids.size();
        break;
      }
      case ShardKind::kHist1: {
        std::vector<double> edges;
        for (const Partial& p : partials) {
          WireReader r(p.frame.payload);
          r.f64();
          const std::uint32_t nedges = r.u32();
          std::vector<double> e(nedges);
          for (auto& v : e) v = r.f64();
          const std::uint32_t ncounts = r.u32();
          if (edges.empty()) {
            edges = std::move(e);
            out.hist1d.counts.assign(ncounts, 0);
          } else if (e != edges || ncounts != out.hist1d.counts.size()) {
            throw std::runtime_error("partial histogram shapes disagree");
          }
          for (std::uint32_t i = 0; i < ncounts; ++i)
            out.hist1d.counts[i] += r.u64();
        }
        out.hist1d.bins = Bins(std::move(edges));
        out.count = out.hist1d.total();
        break;
      }
      case ShardKind::kHist2: {
        std::vector<double> xedges;
        std::vector<double> yedges;
        for (const Partial& p : partials) {
          WireReader r(p.frame.payload);
          r.f64();
          const std::uint32_t nx = r.u32();
          std::vector<double> xe(nx);
          for (auto& v : xe) v = r.f64();
          const std::uint32_t ny = r.u32();
          std::vector<double> ye(ny);
          for (auto& v : ye) v = r.f64();
          const std::uint32_t ncounts = r.u32();
          if (xedges.empty() && yedges.empty()) {
            xedges = std::move(xe);
            yedges = std::move(ye);
            out.hist2d.counts.assign(ncounts, 0);
          } else if (xe != xedges || ye != yedges ||
                     ncounts != out.hist2d.counts.size()) {
            throw std::runtime_error("partial histogram shapes disagree");
          }
          for (std::uint32_t i = 0; i < ncounts; ++i)
            out.hist2d.counts[i] += r.u64();
        }
        out.hist2d.xbins = Bins(std::move(xedges));
        out.hist2d.ybins = Bins(std::move(yedges));
        out.count = out.hist2d.total();
        break;
      }
    }
    {
      std::lock_guard<std::mutex> lock(state_mutex);
      gathers += partials.size();
    }
    return out;
  }
};

Coordinator::Coordinator(io::Dataset dataset, DistConfig config)
    : impl_(std::make_shared<Impl>(std::move(dataset), config)) {
  if (config.heartbeats)
    impl_->hb_thread = std::thread([impl = impl_] { impl->heartbeat_loop(); });
}

Coordinator::~Coordinator() {
  impl_->stop_heartbeat();
  impl_->shutdown_workers();
}

std::size_t Coordinator::attach_worker(const std::filesystem::path& socket,
                                       pid_t pid) {
  auto w = std::make_unique<Impl::Worker>();
  w->socket = socket;
  w->name = socket.filename().string();
  w->pid = pid;
  w->query = Channel::connect(socket, impl_->config.connect_timeout,
                              impl_->config.request_timeout);
  w->control = Channel::connect(socket, impl_->config.connect_timeout,
                                impl_->config.request_timeout);

  Frame hello;
  hello.type = MsgType::kHello;
  hello.seq = impl_->next_seq.fetch_add(1, std::memory_order_relaxed);
  WireWriter payload;
  payload.u16(kWireVersion);
  payload.str(impl_->dataset.path().string());
  hello.payload = payload.take();
  w->query.send(hello);
  const Frame ack = w->query.recv();
  if (ack.type == MsgType::kError) {
    WireReader r(ack.payload);
    throw std::runtime_error("worker handshake failed: " + r.str());
  }
  if (ack.type != MsgType::kHelloAck)
    throw std::runtime_error("worker handshake failed: unexpected reply");
  WireReader r(ack.payload);
  r.u64();  // worker pid (informational)
  const std::uint64_t timesteps = r.u64();
  if (timesteps != impl_->dataset.num_timesteps())
    throw std::runtime_error(
        "worker handshake failed: worker sees " + std::to_string(timesteps) +
        " timesteps, coordinator sees " +
        std::to_string(impl_->dataset.num_timesteps()));

  std::lock_guard<std::mutex> lock(impl_->state_mutex);
  const std::size_t index = impl_->workers.size();
  impl_->workers.push_back(std::move(w));
  ++impl_->alive_count;
  impl_->rebuild_manifest_locked();
  return index;
}

GatherResult Coordinator::execute(ShardKind kind, std::size_t timestep,
                                  const std::string& query,
                                  const std::string& var_x,
                                  const std::string& var_y, std::size_t nxbins,
                                  std::size_t nybins) {
  Impl& impl = *impl_;
  std::vector<Sub> pending;
  std::size_t worker_count = 0;
  {
    std::lock_guard<std::mutex> lock(impl.state_mutex);
    ++impl.queries;
    if (impl.alive_count == 0)
      throw NoLiveWorkers("no live workers attached");
    if (timestep >= impl.manifest.num_timesteps())
      throw std::runtime_error("timestep out of range");
    for (const ShardRange& r : impl.manifest.ranges(timestep))
      pending.push_back({r, 0, 0, false, false});
    worker_count = impl.workers.size();
  }
  if (pending.empty())
    throw NoLiveWorkers("timestep has no sharded rows");

  std::vector<Partial> partials;
  std::string remote_error;
  std::size_t round = 0;
  while (!pending.empty()) {
    if (++round > worker_count + 3)
      throw NoLiveWorkers("scatter kept failing across every worker");
    std::vector<Sub> failed = impl.scatter_round(
        std::move(pending), kind, timestep, query, var_x, var_y, nxbins,
        nybins, partials, remote_error);
    pending = impl.handle_failures(std::move(failed));
  }
  if (!remote_error.empty()) {
    std::lock_guard<std::mutex> lock(impl.state_mutex);
    ++impl.remote_errors;
    GatherResult out;
    out.ok = false;
    out.error = remote_error;
    return out;
  }
  return impl.merge(kind, timestep, std::move(partials));
}

std::size_t Coordinator::workers() const {
  std::lock_guard<std::mutex> lock(impl_->state_mutex);
  return impl_->workers.size();
}

std::size_t Coordinator::live_workers() const {
  std::lock_guard<std::mutex> lock(impl_->state_mutex);
  return impl_->alive_count;
}

DistStats Coordinator::stats() const {
  std::lock_guard<std::mutex> lock(impl_->state_mutex);
  DistStats s;
  s.workers = impl_->workers.size();
  s.alive = impl_->alive_count;
  s.queries = impl_->queries;
  s.scatters = impl_->scatters;
  s.gathers = impl_->gathers;
  s.retries = impl_->retries;
  s.reshards = impl_->reshards;
  s.deaths = impl_->deaths;
  s.remote_errors = impl_->remote_errors;
  s.per_worker.reserve(impl_->workers.size());
  for (const auto& w : impl_->workers)
    s.per_worker.push_back({w->name, w->alive.load(std::memory_order_relaxed),
                            w->requests, w->failures, w->retries});
  return s;
}

ShardManifest Coordinator::manifest_snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->state_mutex);
  return impl_->manifest;
}

void Coordinator::save_manifest(const std::filesystem::path& path) const {
  manifest_snapshot().save(path);
}

void Coordinator::shutdown_workers() { impl_->shutdown_workers(); }

}  // namespace qdv::dist
