// Engine + Selection: semantic equivalence of canonicalized plans against
// scan evaluation, parse round-trips on a real table, cache hit/miss/evict
// accounting, selection reuse across session views, and the engine-shared
// parallel paths.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/selection.hpp"
#include "core/session.hpp"
#include "parallel/par_ops.hpp"
#include "sim/wakefield.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;

/// True when the suite runs under a byte budget (QDV_MEMORY_BUDGET, set by
/// the test_engine_budgeted ctest variant). Eviction pressure makes exact
/// hit/miss/entry counts nondeterministic, so the strict accounting checks
/// are skipped — every correctness check still runs, which is the point:
/// all query paths must produce identical answers out-of-core.
bool budgeted() { return std::getenv("QDV_MEMORY_BUDGET") != nullptr; }

const std::filesystem::path& dataset_dir() {
  static const std::filesystem::path dir = [] {
    const std::filesystem::path d = qdv::test::scratch_dir("engine");
    sim::WakefieldConfig cfg = sim::WakefieldConfig::preset_2d(300, /*seed=*/13);
    io::IndexConfig index_config;
    index_config.nbins = 64;
    CHECK(sim::generate_dataset(cfg, d, index_config) > 0);
    return d;
  }();
  return dir;
}

/// Queries exercising fusion, De Morgan, nesting, and mixed variables.
const std::vector<const char*>& corpus() {
  static const std::vector<const char*> texts = {
      "px > 8.872e10",
      "px > 1e10 && px < 9e10",
      "px > 1e10 && px <= 9e10 && y > 0",
      "!(px > 1e10 && y > 0)",
      "!(px <= 1e9 || xrel >= 0.9)",
      "y > 0 && y < 1e-5 && y > -1",
      "(px > 8.872e10 && y > 0) || (px > 8.872e10 && y <= 0)",
      "!(!(px > 1e10)) && x >= 0",
      "px == 0",
      "px > 5e10 && px < 1e10",  // contradiction
  };
  return texts;
}

void test_selection_matches_scan() {
  const core::Engine engine = core::Engine::open(dataset_dir());
  const io::TimestepTable& table = engine.dataset().table(37);
  for (const char* text : corpus()) {
    const core::Selection sel = engine.select(text);
    const BitVector via_scan = test::scan_oracle(table, *parse_query(text));
    CHECK(sel.bits(37)->to_positions() == via_scan.to_positions());
    CHECK_EQ(sel.count(37), via_scan.count());
  }
}

void test_nan_constants() {
  // `y > nan` matches no row, so `!(y > nan)` matches every row — through
  // the index path and through a scan of the canonical form alike (the
  // scan of the raw tree always agreed; canonicalization used to flip the
  // comparison to `y <= nan`, which matches none).
  const core::Engine engine = core::Engine::open(dataset_dir());
  const io::TimestepTable& table = engine.dataset().table(37);
  const std::uint64_t rows = table.num_rows();
  CHECK_EQ(engine.select("!(y > nan)").count(37), rows);
  CHECK_EQ(engine.select("y > nan").count(37), 0u);
  const QueryPtr canonical = core::canonicalize(parse_query("!(y > nan)"));
  CHECK_EQ(test::scan_oracle(table, *canonical).count(), rows);
  CHECK_EQ(test::run_plan(table, canonical, EvalMode::kScan).count(), rows);
  CHECK_EQ(test::run_plan(table, canonical, EvalMode::kIndex).count(), rows);
  // A NaN bound fuses to an empty interval, not away.
  CHECK_EQ(engine.select("y < 1 && y > nan").count(37), 0u);
  // Finite constants are unchanged.
  CHECK_EQ(engine.select("!(y > 0)").count(37),
           test::scan_oracle(table, *parse_query("!(y > 0)")).count());
  CHECK(engine.select("!(y > 0)").count(37) > 0);
}

void test_parse_round_trip_semantics() {
  // parse_query(q->to_string()) selects exactly the same records as q, for
  // both the raw and the canonicalized tree.
  const core::Engine engine = core::Engine::open(dataset_dir());
  const io::TimestepTable& table = engine.dataset().table(37);
  for (const char* text : corpus()) {
    const QueryPtr q = parse_query(text);
    const QueryPtr reparsed = parse_query(q->to_string());
    CHECK(test::scan_oracle(table, *q) == test::scan_oracle(table, *reparsed));
    const QueryPtr canonical = core::canonicalize(q);
    const QueryPtr canonical_reparsed = parse_query(canonical->to_string());
    CHECK(test::scan_oracle(table, *canonical) ==
          test::scan_oracle(table, *canonical_reparsed));
  }
}

void test_cache_accounting() {
  core::Engine engine = core::Engine::open(dataset_dir());
  const core::Selection sel = engine.select("px > 8.872e10 && y > 0");
  CHECK_EQ(engine.stats().hits, 0u);
  CHECK_EQ(engine.stats().misses, 0u);  // planning alone evaluates nothing

  const std::uint64_t cold = sel.count(37);
  const core::EngineStats after_cold = engine.stats();
  CHECK_EQ(sel.count(37), cold);  // warm: same answer, evictions or not
  const core::Selection refined = sel.refine("x >= 0");
  (void)refined.count(37);
  (void)sel.count(20);  // a different timestep is a different cache entry

  if (!budgeted()) {
    CHECK_EQ(after_cold.hits, 0u);
    CHECK(after_cold.misses >= 3);  // root + two leaves
    CHECK(after_cold.entries >= 3);
    CHECK(after_cold.bytes > 0);

    core::Engine strict = core::Engine::open(dataset_dir());
    const core::Selection s2 = strict.select("px > 8.872e10 && y > 0");
    (void)s2.count(37);
    const core::EngineStats c2 = strict.stats();
    (void)s2.count(37);  // warm: answered from the cache
    const core::EngineStats w2 = strict.stats();
    CHECK_EQ(w2.hits, c2.hits + 1);
    CHECK_EQ(w2.misses, c2.misses);

    // Refinement shares the leaf bitvectors it inherits.
    (void)s2.refine("x >= 0").count(37);
    const core::EngineStats r2 = strict.stats();
    CHECK(r2.hits >= w2.hits + 2);  // px and y leaves reused

    (void)s2.count(20);
    CHECK_EQ(strict.stats().misses, r2.misses + 3);
  }

  engine.clear_cache();
  CHECK_EQ(engine.stats().entries, 0u);
  CHECK_EQ(engine.stats().bytes, 0u);
}

void test_cache_eviction() {
  core::Engine engine = core::Engine::open(dataset_dir());
  // Room for everything (the budgeted ctest variant starts at 32 KiB).
  engine.set_memory_budget(std::uint64_t{1} << 30);
  const char* texts[] = {"px > 1e10", "y > 0", "x > 0"};
  for (const char* text : texts) (void)engine.select(text).count(37);
  const core::EngineStats full = engine.stats();
  CHECK(full.entries >= 3);

  // Shrinking evicts least recently used first: re-touch the two newest
  // leaves, take away one byte of room, and both must still be hits.
  (void)engine.select("y > 0").count(37);
  (void)engine.select("x > 0").count(37);
  engine.set_memory_budget(full.resident_bytes - 1);
  const core::EngineStats touched = engine.stats();
  (void)engine.select("y > 0").count(37);
  (void)engine.select("x > 0").count(37);
  CHECK_EQ(engine.stats().hits, touched.hits + 2);
  CHECK_EQ(engine.stats().misses, touched.misses);

  // A one-byte budget holds only pinned headers: every cached bitvector is
  // evicted at once, and re-evaluating one is a miss.
  engine.set_memory_budget(1);
  const core::EngineStats s = engine.stats();
  CHECK_EQ(s.entries, 0u);
  CHECK(s.evictions >= full.entries);
  (void)engine.select("px > 1e10").count(37);
  CHECK(engine.stats().misses > s.misses);
}

void test_session_views_share_cache() {
  // The acceptance scenario: one focus drives a count, pair histograms, and
  // a parallel-coordinates render — the engine must show cache hits.
  core::ExplorationSession session =
      core::ExplorationSession::open(dataset_dir());
  const std::size_t t = 37;
  session.set_focus("px > 8.872e10");
  const std::uint64_t count = session.focus_count(t);
  CHECK(count > 0);
  const std::vector<std::string> axes = {"x", "y", "px"};
  const auto hists = session.pair_histograms(t, axes, 16, session.focus());
  CHECK_EQ(hists.size(), 2u);
  CHECK_EQ(hists[0].total(), count);
  (void)session.render_parallel_coordinates(t, axes);
  if (!budgeted()) {
    const core::EngineStats stats = session.engine().stats();
    CHECK(stats.hits >= 1);
    CHECK_EQ(stats.misses, 1u);  // the single focus leaf, evaluated once
  }

  // Selection handles agree with the session facade.
  const core::Selection sel = session.engine().select("px > 8.872e10");
  CHECK(sel.ids(t) == session.selected_ids(t));
  const core::SummaryStats summary = sel.summary(t, "px");
  CHECK_EQ(summary.count, count);
  CHECK(summary.min > 8.872e10);
}

void test_all_selection() {
  const core::Engine engine = core::Engine::open(dataset_dir());
  const core::Selection all = engine.all();
  CHECK(all.selects_all());
  const io::TimestepTable& table = engine.dataset().table(37);
  CHECK_EQ(all.count(37), table.num_rows());
  CHECK_EQ(all.ids(37).size(), table.num_rows());
  CHECK_EQ(all.bits(37)->count(), table.num_rows());
  CHECK_EQ(all.summary(37, "px").count, table.num_rows());
  CHECK(all.explain().find("<all records>") != std::string::npos);
}

void test_explain_probes_real_indices() {
  const core::Engine engine = core::Engine::open(dataset_dir());
  const core::Selection sel = engine.select("px > 1e10 && px < 9e10");
  const std::string report = sel.explain();
  CHECK(report.find("fused interval") != std::string::npos);
  CHECK(report.find("bitmap-index(px)") != std::string::npos);
}

void test_parallel_paths_share_engine_cache() {
  const core::Engine engine = core::Engine::open(dataset_dir());
  par::VirtualCluster cluster(4);
  par::HistogramWorkload workload;
  workload.pairs = {{"x", "px"}};
  workload.nbins = 32;
  workload.condition = parse_query("px > 1e10");

  const par::HistogramBatch cold = par::parallel_histograms(engine, workload, cluster);
  const par::HistogramBatch cold_tables =
      par::parallel_histograms(engine.dataset(), workload, cluster);
  CHECK_EQ(cold.total_records, cold_tables.total_records);

  const core::EngineStats between = engine.stats();
  const par::HistogramBatch warm = par::parallel_histograms(engine, workload, cluster);
  CHECK_EQ(warm.total_records, cold.total_records);
  if (!budgeted()) {
    const core::EngineStats after = engine.stats();
    CHECK_EQ(after.misses, between.misses);  // warm batch: all timesteps cached
    CHECK(after.hits >= between.hits + engine.num_timesteps());
  }

  // Engine-shared id tracking agrees with the per-table path.
  std::vector<std::uint64_t> ids = engine.select("px > 8.872e10").ids(37);
  if (ids.size() > 50) ids.resize(50);
  const par::TrackBatch a = par::parallel_track(engine, ids, cluster);
  const par::TrackBatch b =
      par::parallel_track(engine.dataset(), ids, EvalMode::kAuto, cluster);
  CHECK_EQ(a.total_hits, b.total_hits);
}

}  // namespace

int main() {
  test_selection_matches_scan();
  test_parse_round_trip_semantics();
  test_nan_constants();
  test_cache_accounting();
  test_cache_eviction();
  test_session_views_share_cache();
  test_all_selection();
  test_explain_probes_real_indices();
  test_parallel_paths_share_engine_cache();
  return qdv::test::finish("test_engine");
}
