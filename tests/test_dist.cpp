// Differential suite of the distributed execution subsystem. A fleet of
// real worker processes (this binary re-exec'ed with --worker) behind a
// dist::Coordinator must answer counts, id queries, and uniform-bin
// histograms bit-identically to a single-process core::Engine — across 1,
// 2, and 4 workers, through a seeded fuzz leg (the same random-AST
// machinery as test_fuzz_query, via fuzz_common.hpp), after a worker is
// SIGKILLed and its window is re-sharded onto the survivors, and through
// the svc::QueryService distributed path. A stub worker's forged id
// partials (a row outside its window, a bitvector longer than the
// timestep) are refused with a typed error. Plus pure-logic legs for the
// wire framing (round-trip, truncation, version mismatch against a live
// worker) and the shard manifest (partition, reassign, text round-trip).
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/selection.hpp"
#include "dist/coordinator.hpp"
#include "dist/shard.hpp"
#include "dist/wire.hpp"
#include "dist/worker.hpp"
#include "fuzz_common.hpp"
#include "io/io_util.hpp"
#include "svc/query_service.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;
namespace fuzz = qdv::test::fuzz;

// ------------------------------------------------------------------ wire ---

void test_wire_round_trip() {
  dist::WireWriter w;
  w.u8(7);
  w.u16(65535);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.f64(-0.1);  // not exactly representable: must survive bit-exactly
  w.str("shard query text with spaces");
  const std::string payload = w.take();

  dist::WireReader r(payload);
  CHECK_EQ(r.u8(), 7u);
  CHECK_EQ(r.u16(), 65535u);
  CHECK_EQ(r.u32(), 0xdeadbeefu);
  CHECK_EQ(r.u64(), 0x0123456789abcdefull);
  CHECK_EQ(r.f64(), -0.1);
  CHECK_EQ(r.str(), std::string("shard query text with spaces"));
  CHECK_EQ(r.remaining(), 0u);
  CHECK_THROWS(r.u8());  // past the end: truncated frame

  dist::ShardQuery q;
  q.kind = dist::ShardKind::kHist2;
  q.timestep = 3;
  q.row_begin = 100;
  q.row_end = 250;
  q.nxbins = 16;
  q.nybins = 8;
  q.var_x = "a";
  q.var_y = "c";
  q.query = "(a > 0 && b < 5)";
  const dist::ShardQuery back = dist::ShardQuery::decode(q.encode());
  CHECK(back.kind == q.kind);
  CHECK_EQ(back.timestep, q.timestep);
  CHECK_EQ(back.row_begin, q.row_begin);
  CHECK_EQ(back.row_end, q.row_end);
  CHECK_EQ(back.nxbins, q.nxbins);
  CHECK_EQ(back.nybins, q.nybins);
  CHECK_EQ(back.var_x, q.var_x);
  CHECK_EQ(back.var_y, q.var_y);
  CHECK_EQ(back.query, q.query);

  // A truncated ShardQuery payload is an error, not garbage.
  CHECK_THROWS(dist::ShardQuery::decode(q.encode().substr(0, 10)));
}

/// A hand-built frame with a bumped wire version against a live in-process
/// worker: the worker must answer with a clear kError naming both versions
/// (the version check lives in Channel::recv, which the worker serves
/// through, so this exercises the real reject path end to end).
void test_wire_version_mismatch() {
  const std::filesystem::path dir = fuzz::write_random_dataset(
      "dist_wire_ver", /*timesteps=*/1, /*rows=*/50, /*seed=*/0xabc,
      /*index_bins=*/8);
  const std::filesystem::path sock = dir / "w.sock";
  dist::WorkerServer worker(dir, sock);
  worker.start();

  const int fd = io::connect_unix(sock, std::chrono::seconds(1),
                                  std::chrono::seconds(5));

  // Header: magic u32 | version u16 | type u16 | seq u32 | payload u32,
  // little-endian, with version = kWireVersion + 1.
  const auto put_le = [](std::string& out, std::uint64_t v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  std::string bad;
  put_le(bad, dist::kWireMagic, 4);
  put_le(bad, dist::kWireVersion + 1, 2);
  put_le(bad, 3 /* kHeartbeat */, 2);
  put_le(bad, 42, 4);
  put_le(bad, 0, 4);
  CHECK(::send(fd, bad.data(), bad.size(), 0) ==
        static_cast<ssize_t>(bad.size()));

  // The reply comes back in the current version; read it with a Channel.
  dist::Channel reply(fd);
  const dist::Frame frame = reply.recv();
  CHECK(frame.type == dist::MsgType::kError);
  dist::WireReader r(frame.payload);
  const std::string message = r.str();
  CHECK(message.find("version mismatch") != std::string::npos);
  CHECK(message.find(std::to_string(dist::kWireVersion + 1)) !=
        std::string::npos);
  worker.stop();
}

// -------------------------------------------------------------- manifest ---

void test_partition_rows() {
  // Near-equal contiguous windows, remainder spread over the earlier
  // workers, tiling [0, nrows) exactly.
  const std::vector<std::size_t> workers = {0, 1, 2};
  const auto parts = dist::partition_rows(10, workers);
  CHECK_EQ(parts.size(), 3u);
  CHECK_EQ(parts[0].begin, 0u);
  CHECK_EQ(parts[0].end, 4u);  // 10 = 4 + 3 + 3
  CHECK_EQ(parts[1].begin, 4u);
  CHECK_EQ(parts[1].end, 7u);
  CHECK_EQ(parts[2].begin, 7u);
  CHECK_EQ(parts[2].end, 10u);

  // Fewer rows than workers: empty windows are omitted entirely.
  const auto tiny = dist::partition_rows(2, workers);
  CHECK_EQ(tiny.size(), 2u);
  CHECK_EQ(tiny[0].end - tiny[0].begin, 1u);
  CHECK_EQ(tiny[1].end - tiny[1].begin, 1u);

  CHECK_THROWS(dist::partition_rows(5, std::vector<std::size_t>{}));
}

void test_manifest_reassign_and_text() {
  const std::vector<std::uint64_t> rows = {100, 7, 0};
  dist::ShardManifest m = dist::ShardManifest::build(rows, /*num_workers=*/3);
  CHECK_EQ(m.num_timesteps(), 3u);
  CHECK_EQ(m.ranges(0).size(), 3u);
  CHECK_EQ(m.ranges(2).size(), 0u);  // empty timestep: no windows

  // Text round-trip before the reassign.
  CHECK(dist::ShardManifest::from_text(m.to_text()) == m);

  // Worker 1 dies: its windows land on 0 and 2, still tiling every step.
  const std::size_t moved = m.reassign(1, std::vector<bool>{true, false, true});
  CHECK(moved > 0);
  for (std::size_t t = 0; t < 3; ++t) {
    std::uint64_t covered = 0;
    std::uint64_t cursor = 0;
    for (const dist::ShardRange& r : m.ranges(t)) {
      CHECK(r.worker != 1u);
      CHECK_EQ(r.begin, cursor);  // sorted and contiguous
      cursor = r.end;
      covered += r.end - r.begin;
    }
    CHECK_EQ(covered, rows[t]);
  }
  CHECK(dist::ShardManifest::from_text(m.to_text()) == m);

  // Nobody left alive: reassign must refuse, not divide by zero.
  dist::ShardManifest dead = dist::ShardManifest::build(rows, 2);
  CHECK_THROWS(dead.reassign(0, std::vector<bool>{false, false}));
}

// ---------------------------------------------------------------- fleets ---

/// A coordinator plus the worker processes it scattered over (this test
/// binary re-exec'ed via --worker). The coordinator's destructor shuts the
/// fleet down and reaps every pid.
struct Fleet {
  std::unique_ptr<dist::Coordinator> coordinator;
  std::vector<pid_t> pids;
};

Fleet start_fleet(const std::filesystem::path& dir, std::size_t n,
                  dist::DistConfig config) {
  Fleet fleet;
  fleet.coordinator =
      std::make_unique<dist::Coordinator>(io::Dataset::open(dir.string()), config);
  const std::string exe = dist::self_exe_path();
  CHECK(!exe.empty());
  for (std::size_t w = 0; w < n; ++w) {
    std::string sock_name = "w";
    sock_name += std::to_string(w);
    sock_name += ".sock";
    const std::filesystem::path sock = dir / sock_name;
    std::filesystem::remove(sock);
    fleet.pids.push_back(dist::spawn_worker_process(
        exe, {"--worker", dir.string(), sock.string()}));
    fleet.coordinator->attach_worker(sock, fleet.pids.back());
  }
  return fleet;
}

dist::DistConfig quiet_config() {
  dist::DistConfig config;
  config.heartbeats = false;  // deterministic: only in-query detection
  config.connect_timeout = std::chrono::milliseconds(3000);
  config.request_timeout = std::chrono::milliseconds(15000);
  return config;
}

/// Assert one scatter/gather of every kind against the direct engine.
void check_query_matches(dist::Coordinator& coordinator,
                         const core::Engine& direct, std::size_t timestep,
                         const std::string& query) {
  const core::Selection sel =
      query.empty() ? direct.all() : direct.select(query);

  const auto count =
      coordinator.execute(dist::ShardKind::kCount, timestep, query);
  CHECK(count.ok);
  CHECK_EQ(count.count, sel.count(timestep));

  const auto ids = coordinator.execute(dist::ShardKind::kBits, timestep, query);
  CHECK(ids.ok);
  CHECK(ids.ids == sel.ids(timestep));

  const auto h1 = coordinator.execute(dist::ShardKind::kHist1, timestep, query,
                                      "a", "", 32);
  const Histogram1D d1 = sel.histogram1d(timestep, "a", 32);
  CHECK(h1.ok);
  CHECK(h1.hist1d.bins.edges() == d1.bins.edges());
  CHECK(h1.hist1d.counts == d1.counts);

  const auto h2 = coordinator.execute(dist::ShardKind::kHist2, timestep, query,
                                      "a", "c", 12, 8);
  const Histogram2D d2 = sel.histogram2d(timestep, "a", "c", 12, 8);
  CHECK(h2.ok);
  CHECK(h2.hist2d.xbins.edges() == d2.xbins.edges());
  CHECK(h2.hist2d.ybins.edges() == d2.ybins.edges());
  CHECK(h2.hist2d.counts == d2.counts);
}

// ---------------------------------------------------------- differential ---

void test_differential_vs_single_process(const std::filesystem::path& dir,
                                         const core::Engine& direct) {
  const std::vector<std::string> queries = {
      "",  // selects all: the distributed twin of Engine::all()
      "a > 0",
      "(a > -50 && b < 5)",
      "(b == 2.5 || c > 500)",
      "!(a > 0)",
      "a > 1e9",  // empty answer on every shard
  };
  for (const std::size_t nworkers : {1u, 2u, 4u}) {
    Fleet fleet = start_fleet(dir, nworkers, quiet_config());
    CHECK_EQ(fleet.coordinator->live_workers(), nworkers);
    for (const std::string& q : queries)
      for (std::size_t t = 0; t < direct.num_timesteps(); ++t)
        check_query_matches(*fleet.coordinator, direct, t, q);
    const dist::DistStats stats = fleet.coordinator->stats();
    CHECK_EQ(stats.deaths, 0u);
    CHECK_EQ(stats.retries, 0u);
    CHECK(stats.scatters >= queries.size() * direct.num_timesteps());
    CHECK_EQ(stats.scatters, stats.gathers);  // nothing failed or was lost
  }
}

void test_fuzz_differential(const std::filesystem::path& dir,
                            const core::Engine& direct) {
  Fleet fleet = start_fleet(dir, 2, quiet_config());
  std::uint64_t state = 0xd15717ull;
  const std::size_t iters = fuzz::iterations(15);
  for (std::size_t i = 0; i < iters; ++i) {
    const QueryPtr q = fuzz::random_query(state, 1 + fuzz::next(state) % 3);
    const std::string text = q->to_string();
    const std::size_t t = fuzz::next(state) % direct.num_timesteps();
    const core::Selection sel = direct.select(q);
    const auto count = fleet.coordinator->execute(dist::ShardKind::kCount, t, text);
    CHECK(count.ok);
    CHECK_EQ(count.count, sel.count(t));
    const auto ids = fleet.coordinator->execute(dist::ShardKind::kBits, t, text);
    CHECK(ids.ok);
    CHECK(ids.ids == sel.ids(t));
  }
}

// ---------------------------------------------------------- forged frames ---

/// What the stub worker below puts in each id partial, for the window it
/// was asked about.
enum class Forge {
  kHonest,         // every row of the window: the all-records answer
  kOutsideWindow,  // no row of the window, one row of another window
  kTooLong,        // one bit past the timestep's last row
};

/// A stub worker attached twice, so that it owns two windows of every
/// timestep: an io::UnixServer whose handler answers hello, heartbeats and
/// shutdown as a real worker does and every id query with a partial forged
/// as @p forge says. Each forged partial must be refused with a typed
/// error, never merged into an answer.
void test_forged_id_partials_refused(const std::filesystem::path& dir,
                                     const core::Engine& direct) {
  constexpr std::size_t kStep = 0;
  const std::uint64_t rows = direct.dataset().table(kStep).num_rows();
  std::atomic<Forge> forge{Forge::kHonest};
  const auto partial = [&](const dist::ShardQuery& q) {
    BitVector bits;
    switch (forge.load()) {
      case Forge::kHonest:
        bits.append_run(false, q.row_begin);
        bits.append_run(true, q.row_end - q.row_begin);
        bits.append_run(false, rows - q.row_end);
        break;
      case Forge::kOutsideWindow: {
        const std::uint64_t row = q.row_begin == 0 ? q.row_end : 0;
        bits.append_run(false, row);
        bits.append_run(true, 1);
        bits.append_run(false, rows - row - 1);
        break;
      }
      case Forge::kTooLong:
        bits.append_run(false, rows);
        bits.append_run(true, 1);
        break;
    }
    std::ostringstream blob;
    bits.save(blob);
    dist::WireWriter w;
    w.f64(0.0);
    w.str(blob.str());
    return w.take();
  };
  const std::filesystem::path sock = test::scratch_dir("dist_stub") / "s.sock";
  io::UnixServer stub(sock, [&](int fd) {
    dist::Channel channel(::dup(fd));
    for (;;) {
      dist::Frame request;
      try {
        request = channel.recv();
      } catch (const std::exception&) {
        return;
      }
      dist::Frame reply;
      reply.seq = request.seq;
      switch (request.type) {
        case dist::MsgType::kHello: {
          dist::WireWriter w;
          w.u64(static_cast<std::uint64_t>(::getpid()));
          w.u64(direct.num_timesteps());
          w.u64(0);
          reply.type = dist::MsgType::kHelloAck;
          reply.payload = w.take();
          break;
        }
        case dist::MsgType::kHeartbeat:
          reply.type = dist::MsgType::kHeartbeatAck;
          break;
        case dist::MsgType::kShardQuery:
          reply.type = dist::MsgType::kPartialBits;
          reply.payload = partial(dist::ShardQuery::decode(request.payload));
          break;
        default:
          reply.type = dist::MsgType::kShutdownAck;
          break;
      }
      channel.send(reply);
    }
  });
  stub.start();
  {
    dist::Coordinator coordinator(io::Dataset::open(dir.string()),
                                  quiet_config());
    coordinator.attach_worker(sock);
    coordinator.attach_worker(sock);
    CHECK_EQ(coordinator.manifest_snapshot().ranges(kStep).size(), 2u);

    // The honest stub answers as the engine does.
    const auto all = coordinator.execute(dist::ShardKind::kBits, kStep, "");
    CHECK(all.ok);
    CHECK(all.ids == direct.all().ids(kStep));

    const auto refused = [&](Forge f, const std::string& reason) {
      forge = f;
      try {
        (void)coordinator.execute(dist::ShardKind::kBits, kStep, "");
      } catch (const std::runtime_error& e) {
        return std::string(e.what()).find(reason) != std::string::npos;
      }
      return false;
    };
    CHECK(refused(Forge::kOutsideWindow, "outside its window"));
    CHECK(refused(Forge::kTooLong, "longer than the timestep"));
  }
  stub.stop();
}

// --------------------------------------------------------------- backoff ---

void test_backoff_delay() {
  using std::chrono::milliseconds;
  // Same seed, same sequence — a failing chaos run replays exactly.
  std::uint64_t s1 = 42, s2 = 42;
  std::vector<milliseconds> a, b;
  for (int k = 0; k < 8; ++k) {
    a.push_back(dist::backoff_delay(k, milliseconds(5), milliseconds(200), s1));
    b.push_back(dist::backoff_delay(k, milliseconds(5), milliseconds(200), s2));
  }
  CHECK(a == b);
  // Each delay sits inside the jittered exponential envelope:
  // [0.5, 1.0) x min(base * 2^k, max), never below 1 ms.
  for (int k = 0; k < 8; ++k) {
    const double nominal = std::min(5.0 * std::ldexp(1.0, k), 200.0);
    CHECK(a[k] >= milliseconds(1));
    CHECK(a[k].count() >= static_cast<std::int64_t>(0.5 * nominal));
    CHECK(a[k].count() <= static_cast<std::int64_t>(nominal));
  }
  // A different seed jitters differently.
  std::uint64_t s3 = 43;
  std::vector<milliseconds> c;
  for (int k = 0; k < 8; ++k)
    c.push_back(dist::backoff_delay(k, milliseconds(5), milliseconds(200), s3));
  CHECK(c != a);
}

/// The coordinator backs off (through the injectable sleeper, so the test
/// takes no real wall-clock hit) before re-touching a failed worker — even
/// when the reconnect then fails and the worker is declared dead.
void test_retry_backoff_sleeper(const std::filesystem::path& dir,
                                const core::Engine& direct) {
  dist::DistConfig config = quiet_config();
  config.connect_timeout = std::chrono::milliseconds(200);
  config.backoff_base = std::chrono::milliseconds(4);
  config.backoff_max = std::chrono::milliseconds(32);
  config.backoff_seed = 77;
  auto dmutex = std::make_shared<std::mutex>();
  auto delays = std::make_shared<std::vector<std::chrono::milliseconds>>();
  config.backoff_sleep = [dmutex, delays](std::chrono::milliseconds d) {
    std::lock_guard<std::mutex> lock(*dmutex);
    delays->push_back(d);
  };
  Fleet fleet = start_fleet(dir, 2, config);
  ::kill(fleet.pids[0], SIGKILL);
  // Still the exact answer — and the backoff ran before the dead worker's
  // reconnect attempt.
  check_query_matches(*fleet.coordinator, direct, 0, "a > 0");
  {
    std::lock_guard<std::mutex> lock(*dmutex);
    CHECK(!delays->empty());
    for (const std::chrono::milliseconds d : *delays) {
      CHECK(d >= std::chrono::milliseconds(1));
      CHECK(d <= config.backoff_max);
    }
  }
  CHECK_EQ(fleet.coordinator->live_workers(), 1u);
  CHECK_EQ(fleet.coordinator->stats().deaths, 1u);
}

// -------------------------------------------------------------- failures ---

void test_worker_kill_reshard(const std::filesystem::path& dir,
                              const core::Engine& direct) {
  dist::DistConfig config = quiet_config();
  config.connect_timeout = std::chrono::milliseconds(300);  // fast dead-reconnect
  Fleet fleet = start_fleet(dir, 3, config);
  const std::string query = "(a > 0 && c < 500)";

  // Healthy first: all three workers answer.
  check_query_matches(*fleet.coordinator, direct, 0, query);

  // Kill one worker outright. The next execute() must hit the broken
  // channel, fail the bounded reconnect (nobody listens there anymore),
  // declare the worker dead, re-shard its window onto the survivors, and
  // still return the bit-identical answer.
  ::kill(fleet.pids[1], SIGKILL);
  for (std::size_t t = 0; t < direct.num_timesteps(); ++t)
    check_query_matches(*fleet.coordinator, direct, t, query);

  CHECK_EQ(fleet.coordinator->live_workers(), 2u);
  const dist::DistStats stats = fleet.coordinator->stats();
  CHECK_EQ(stats.deaths, 1u);
  CHECK(stats.reshards > 0);
  CHECK(!stats.per_worker[1].alive);
  CHECK(stats.per_worker[1].failures > 0);

  // The updated manifest never references the dead worker again.
  const dist::ShardManifest m = fleet.coordinator->manifest_snapshot();
  for (std::size_t t = 0; t < m.num_timesteps(); ++t)
    for (const dist::ShardRange& r : m.ranges(t)) CHECK(r.worker != 1u);

  // A fresh query after the re-shard runs clean on the survivors.
  check_query_matches(*fleet.coordinator, direct, 0, "b >= 0");
}

void test_heartbeat_death_detection(const std::filesystem::path& dir,
                                    const core::Engine& direct) {
  dist::DistConfig config;
  config.heartbeats = true;
  config.heartbeat_interval = std::chrono::milliseconds(50);
  config.heartbeat_misses = 2;
  config.connect_timeout = std::chrono::milliseconds(300);
  config.request_timeout = std::chrono::milliseconds(15000);
  Fleet fleet = start_fleet(dir, 2, config);
  check_query_matches(*fleet.coordinator, direct, 0, "a > 0");

  // Kill a worker between queries: the heartbeat thread (helped by the
  // waitpid child check) must notice without any query traffic.
  ::kill(fleet.pids[0], SIGKILL);
  bool detected = false;
  for (int i = 0; i < 200 && !detected; ++i) {  // <= 10 s
    detected = fleet.coordinator->live_workers() == 1;
    if (!detected) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  CHECK(detected);
  CHECK_EQ(fleet.coordinator->stats().deaths, 1u);

  // The very next query runs on the survivor, no in-query failures needed.
  check_query_matches(*fleet.coordinator, direct, 0, "a > 0");
}

// ------------------------------------------------------------------- svc ---

void test_service_distributed_path(const std::filesystem::path& dir,
                                   const core::Engine& direct) {
  svc::QueryService service{core::Engine::open(dir.string())};
  Fleet fleet = start_fleet(dir, 2, quiet_config());
  std::shared_ptr<dist::Coordinator> coordinator{std::move(fleet.coordinator)};
  service.set_distributor(coordinator);
  CHECK(service.distributor() == coordinator);

  const auto session = service.open_session("dist-test");
  const std::string query = "(a > 0 && b < 5)";
  const core::Selection sel = direct.select(query);

  svc::Request count;
  count.kind = svc::RequestKind::kCount;
  count.query = query;
  count.timestep = 1;
  const auto count_result = service.execute(session, count);
  CHECK(count_result->status == svc::Status::kOk);
  CHECK_EQ(count_result->count, sel.count(1));

  svc::Request ids;
  ids.kind = svc::RequestKind::kIds;
  ids.query = query;
  ids.timestep = 0;
  const auto ids_result = service.execute(session, ids);
  CHECK(ids_result->status == svc::Status::kOk);
  CHECK(ids_result->ids == sel.ids(0));

  svc::Request hist;
  hist.kind = svc::RequestKind::kHistogram1D;
  hist.query = query;
  hist.timestep = 0;
  hist.var_x = "a";
  hist.nxbins = 24;
  const auto hist_result = service.execute(session, hist);
  CHECK(hist_result->status == svc::Status::kOk);
  const Histogram1D d1 = sel.histogram1d(0, "a", 24);
  CHECK(hist_result->hist1d.bins.edges() == d1.bins.edges());
  CHECK(hist_result->hist1d.counts == d1.counts);

  // Adaptive binning is not distributable: it must run locally and still
  // answer correctly (no fallback counter bump — it never tried to
  // scatter).
  svc::Request adaptive = hist;
  adaptive.binning = BinningMode::kAdaptive;
  const auto adaptive_result = service.execute(session, adaptive);
  CHECK(adaptive_result->status == svc::Status::kOk);
  const Histogram1D da =
      sel.histogram1d(0, "a", 24, BinningMode::kAdaptive);
  CHECK(adaptive_result->hist1d.counts == da.counts);

  // A bad variable surfaces as a clean error through the remote path.
  svc::Request bad = hist;
  bad.var_x = "no_such_variable";
  const auto bad_result = service.execute(session, bad);
  CHECK(bad_result->status == svc::Status::kError);
  CHECK(!bad_result->error.empty());

  const svc::ServiceStats stats = service.stats();
  CHECK_EQ(stats.dist.workers, 2u);
  CHECK_EQ(stats.dist.alive, 2u);
  CHECK(stats.dist.queries >= 4);  // count + ids + hist1 + bad
  CHECK(stats.dist.scatters >= 2 * stats.dist.queries);
  CHECK_EQ(stats.dist_local_fallbacks, 0u);
  CHECK_EQ(stats.dist.per_worker.size(), 2u);
  CHECK(stats.dist.per_worker[0].requests > 0);
  CHECK(stats.dist.per_worker[1].requests > 0);

  service.close_session(session);
  service.set_distributor(nullptr);
  CHECK(service.distributor() == nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  // Re-exec'ed worker mode: `test_dist --worker <dataset> <socket>` runs a
  // real worker process (what start_fleet spawns).
  if (argc == 4 && std::string_view(argv[1]) == "--worker")
    return qdv::dist::run_worker(argv[2], argv[3]);

  test_wire_round_trip();
  test_wire_version_mismatch();
  test_partition_rows();
  test_manifest_reassign_and_text();

  // One shared dataset (and one direct single-process engine as the ground
  // truth) for every process-spawning leg.
  const std::filesystem::path dir = fuzz::write_random_dataset(
      "dist_diff", /*timesteps=*/2, /*rows=*/500, /*seed=*/0xd157,
      /*index_bins=*/24);
  const qdv::core::Engine direct = qdv::core::Engine::open(dir.string());

  test_backoff_delay();
  test_differential_vs_single_process(dir, direct);
  test_fuzz_differential(dir, direct);
  test_forged_id_partials_refused(dir, direct);
  test_retry_backoff_sleeper(dir, direct);
  test_worker_kill_reshard(dir, direct);
  test_heartbeat_death_detection(dir, direct);
  test_service_distributed_path(dir, direct);
  return qdv::test::finish("test_dist");
}
