// Concurrency stress for svc::QueryService (and the TSan target): N client
// threads hammer one service with a seeded mix of coalescible (hot-pool)
// and distinct queries. Every response must be bit-identical to a serial
// re-execution through a fresh Engine, and — with an unlimited budget, so
// nothing seen can be evicted — every duplicate of an already-seen key must
// be served without re-execution: the executed count equals the distinct
// key count and the dedup rate equals the generated duplicate fraction.
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/selection.hpp"
#include "sim/wakefield.hpp"
#include "svc/query_service.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;

constexpr std::size_t kClients = 8;
constexpr std::size_t kRequestsPerClient = 50;

const std::filesystem::path& dataset_dir() {
  static const std::filesystem::path dir = [] {
    const std::filesystem::path d = qdv::test::scratch_dir("service_stress");
    sim::WakefieldConfig cfg = sim::WakefieldConfig::preset_2d(600, /*seed=*/31);
    cfg.num_timesteps = 6;
    io::IndexConfig index_config;
    index_config.nbins = 64;
    CHECK(sim::generate_dataset(cfg, d, index_config) > 0);
    return d;
  }();
  return dir;
}

std::uint64_t next(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

svc::Request make_request(std::uint64_t& state, bool hot) {
  svc::Request r;
  r.timestep = next(state) % 6;
  const char* vars[] = {"px", "x", "y"};
  const std::string var = vars[next(state) % 3];
  // Hot thresholds come from a coarse grid (few distinct spellings); cold
  // ones from a fine grid, so cross-thread collisions are rare.
  const double frac =
      hot ? static_cast<double>(next(state) % 4) / 4.0
          : static_cast<double>(next(state) % 1000003) / 1000003.0;
  r.query = var + " > " + format_double(-1.0e10 + frac * 2.0e11);
  switch (next(state) % 5) {
    case 0:
      r.kind = svc::RequestKind::kCount;
      break;
    case 1:
      r.kind = svc::RequestKind::kIds;
      break;
    case 2:
      r.kind = svc::RequestKind::kHistogram1D;
      r.var_x = "px";
      r.nxbins = 32;
      break;
    case 3:
      r.kind = svc::RequestKind::kHistogram2D;
      r.var_x = "x";
      r.var_y = "px";
      r.nxbins = 16;
      r.nybins = 16;
      break;
    default:
      r.kind = svc::RequestKind::kSummary;
      r.var_x = "x";
      break;
  }
  r.priority = static_cast<svc::Priority>(next(state) % svc::kNumPriorities);
  return r;
}

/// The i-th request of client @p c — deterministic, 50% from the hot pool.
svc::Request request_for(std::size_t c, std::size_t i) {
  std::uint64_t state = 0x9e3779b97f4a7c15ull * (c + 1) + i * 2654435761ull + 1;
  const bool hot = i % 2 == 0;
  if (hot) {
    // Hot requests draw from a small shared pool: re-seed off the pool slot
    // only, so every client spells slot k identically.
    std::uint64_t slot_state = 77 + next(state) % 8;
    return make_request(slot_state, /*hot=*/true);
  }
  return make_request(state, /*hot=*/false);
}

void check_result_matches_serial(const core::Engine& reference,
                                 const svc::Request& req,
                                 const svc::Result& got) {
  CHECK_EQ(got.status, svc::Status::kOk);
  if (got.status != svc::Status::kOk) return;
  const core::Selection sel = reference.select(req.query);
  switch (req.kind) {
    case svc::RequestKind::kCount:
      CHECK_EQ(got.count, sel.count(req.timestep));
      break;
    case svc::RequestKind::kIds:
      CHECK(got.ids == sel.ids(req.timestep));
      break;
    case svc::RequestKind::kHistogram1D: {
      const Histogram1D h = sel.histogram1d(req.timestep, req.var_x, req.nxbins);
      CHECK(got.hist1d.counts == h.counts);
      CHECK(got.hist1d.bins == h.bins);
      break;
    }
    case svc::RequestKind::kHistogram2D: {
      const Histogram2D h = sel.histogram2d(req.timestep, req.var_x, req.var_y,
                                            req.nxbins, req.nybins);
      CHECK(got.hist2d.counts == h.counts);
      break;
    }
    case svc::RequestKind::kSummary: {
      const core::SummaryStats s = sel.summary(req.timestep, req.var_x);
      CHECK_EQ(got.summary.count, s.count);
      CHECK_EQ(got.summary.mean, s.mean);
      CHECK_EQ(got.summary.stddev, s.stddev);
      break;
    }
    case svc::RequestKind::kZoom1D:
    case svc::RequestKind::kZoom2D:
      // The stress mix never generates zoom requests; test_pyramid and the
      // qdvbench zoom workload own that coverage.
      CHECK(false);
      break;
  }
}

void test_hammer_mixed_duplicates() {
  svc::QueryService service{core::Engine::open(dataset_dir())};
  std::vector<std::vector<svc::ResultPtr>> results(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&service, &results, c] {
      const auto session =
          service.open_session("stress-" + std::to_string(c));
      results[c].reserve(kRequestsPerClient);
      for (std::size_t i = 0; i < kRequestsPerClient; ++i)
        results[c].push_back(service.execute(session, request_for(c, i)));
      service.close_session(session);
    });
  }
  for (std::thread& t : threads) t.join();
  service.drain();

  // Zero mismatches vs serial execution through a fresh engine.
  const core::Engine reference = core::Engine::open(dataset_dir());
  for (std::size_t c = 0; c < kClients; ++c)
    for (std::size_t i = 0; i < kRequestsPerClient; ++i)
      check_result_matches_serial(reference, request_for(c, i), *results[c][i]);

  const svc::ServiceStats stats = service.stats();
  const std::uint64_t total = kClients * kRequestsPerClient;
  CHECK_EQ(stats.submitted, total);
  CHECK_EQ(stats.completed, total);
  CHECK_EQ(stats.failed, 0u);
  CHECK_EQ(stats.rejected_queue + stats.rejected_budget, 0u);
  CHECK_EQ(stats.executed + stats.coalesce_hits + stats.result_cache_hits, total);
  // The floor is derived, not a magic threshold: with an unlimited budget
  // (nothing cached is ever evicted, every payload here is far below the
  // cacheable-size cap) each distinct key executes exactly once and every
  // duplicate attaches in flight or hits the result cache. Distinct-by-text
  // over-counts keys that canonicalize together, so the rate bound below
  // is a true floor either way.
  std::unordered_set<std::string> keys;
  for (std::size_t c = 0; c < kClients; ++c)
    for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
      const svc::Request r = request_for(c, i);
      std::string key = std::to_string(static_cast<int>(r.kind));
      for (const std::string& part :
           {std::to_string(r.timestep), r.var_x, r.var_y,
            std::to_string(r.nxbins), std::to_string(r.nybins), r.query}) {
        key += '|';
        key += part;
      }
      keys.insert(std::move(key));
    }
  const std::size_t distinct = keys.size();
  const double dup_floor = 1.0 - static_cast<double>(distinct) / total;
  std::fprintf(stderr,
               "stress: %llu executed / %zu distinct, %llu coalesced, "
               "%llu cached (dedup rate %.1f%%, generated dup %.1f%%), "
               "p99 %.3f ms\n",
               static_cast<unsigned long long>(stats.executed), distinct,
               static_cast<unsigned long long>(stats.coalesce_hits),
               static_cast<unsigned long long>(stats.result_cache_hits),
               100.0 * stats.coalesce_rate(), 100.0 * dup_floor,
               stats.p99_seconds * 1e3);
  CHECK(stats.executed <= distinct);
  CHECK(stats.coalesce_rate() >= dup_floor - 1e-9);
  CHECK(stats.p50_seconds <= stats.p99_seconds);
  CHECK(stats.latency_samples == total);
}

void test_hammer_distinct_queries() {
  // All-distinct stream: nothing to coalesce, everything must still be
  // correct and the queue must fully drain.
  svc::ServiceConfig config;
  config.cache_results = false;
  svc::QueryService service{core::Engine::open(dataset_dir()), config};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&service, c] {
      const auto session = service.open_session();
      for (std::size_t i = 0; i < 20; ++i) {
        svc::Request r;
        r.kind = svc::RequestKind::kCount;
        r.timestep = i % 6;
        r.query = "px > " + std::to_string(1 + c * 1000 + i) + "e6";
        const svc::ResultPtr result = service.execute(session, r);
        CHECK_EQ(result->status, svc::Status::kOk);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  service.drain();
  const svc::ServiceStats stats = service.stats();
  CHECK_EQ(stats.completed, kClients * 20u);
  CHECK_EQ(stats.coalesce_hits, 0u);
  CHECK_EQ(stats.queue_depth, 0u);
  CHECK_EQ(stats.inflight, 0u);
}

}  // namespace

int main() {
  test_hammer_mixed_duplicates();
  test_hammer_distinct_queries();
  return qdv::test::finish("test_service_stress");
}
