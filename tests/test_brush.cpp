// core::Brush differential suite: the incremental delta path must be
// bit-identical to full re-execution, always. Legs: (1) fixed edit
// sequences (refine / invert / combine) verified against an independent
// scan of the tracked composed predicate, (2) delta-vs-full counter
// accounting incl. history-outrun fallback and pinned-snapshot stability,
// plus combine deltas whose operand the engine cache does not hold,
// (3) memory-budget accounting of materialized brush slots, (4) a
// property fuzz over random edit/query interleavings (QDV_FUZZ_ITERS for
// deep runs), (5) four concurrent editor/reader threads (TSan-covered by
// the sanitizer CI job), and (6) a stale-cache probe through
// svc::QueryService — edit-then-requery must never serve the pre-edit
// cached result, and the brush_stale tripwire must stay zero.
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/brush.hpp"
#include "core/selection.hpp"
#include "fuzz_common.hpp"
#include "svc/query_service.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;
namespace fuzz = qdv::test::fuzz;

const std::filesystem::path& dataset_dir() {
  static const std::filesystem::path dir = fuzz::write_random_dataset(
      "brush", /*timesteps=*/3, /*rows=*/600, /*seed=*/0xb0b5u,
      /*index_bins=*/24);
  return dir;
}

/// The brush's bits at @p snap vs a naive scan of @p expected — the
/// independent twin: no planner, no caches, no delta machinery.
void check_matches_scan(core::Brush& brush, const core::Brush::Snapshot& snap,
                        const core::Engine& engine, const QueryPtr& expected) {
  for (std::size_t t = 0; t < engine.num_timesteps(); ++t) {
    const BitVector scanned =
        test::scan_oracle(engine.dataset().table(t), *expected);
    CHECK(brush.bits(snap, t)->to_positions() == scanned.to_positions());
    CHECK_EQ(brush.count(snap, t), scanned.count());
  }
}

void test_fixed_differential() {
  const core::Engine engine = core::Engine::open(dataset_dir());
  auto counters = std::make_shared<core::Brush::Counters>();
  core::Brush brush(engine.select("a > 0"), counters);
  QueryPtr expected = parse_query("a > 0");
  CHECK_EQ(brush.epoch(), 1u);
  check_matches_scan(brush, brush.snapshot(), engine, expected);

  // Refine: epoch bumps, composed tightens, delta == scan.
  std::uint64_t epoch = brush.refine(parse_query("b <= 2"));
  CHECK_EQ(epoch, 2u);
  expected = Query::land(expected, parse_query("b <= 2"));
  check_matches_scan(brush, brush.snapshot(), engine, expected);

  // Invert.
  epoch = brush.invert();
  CHECK_EQ(epoch, 3u);
  expected = Query::lnot(expected);
  check_matches_scan(brush, brush.snapshot(), engine, expected);

  // Combine with a second brush, all three operators.
  core::Brush other(engine.select("c > 100 || b == -10"), counters);
  const QueryPtr other_q = parse_query("c > 100 || b == -10");
  epoch = brush.combine(other, core::Brush::CombineOp::kAnd);
  CHECK_EQ(epoch, 4u);
  expected = Query::land(expected, other_q);
  check_matches_scan(brush, brush.snapshot(), engine, expected);

  epoch = brush.combine(other, core::Brush::CombineOp::kOr);
  expected = Query::lor(expected, other_q);
  check_matches_scan(brush, brush.snapshot(), engine, expected);

  epoch = brush.combine(other, core::Brush::CombineOp::kAndNot);
  expected = Query::land(expected, Query::lnot(other_q));
  CHECK_EQ(epoch, 6u);
  check_matches_scan(brush, brush.snapshot(), engine, expected);

  // Derived quantities agree with the equivalent Selection.
  const core::Selection twin = engine.select(expected);
  core::Brush::Snapshot snap = brush.snapshot();
  CHECK(brush.ids(snap, 1) == twin.ids(1));
  CHECK(brush.histogram1d(snap, 1, "a", 16).counts ==
        twin.histogram1d(1, "a", 16).counts);
  CHECK(brush.histogram2d(snap, 1, "a", "c", 8, 8).counts ==
        twin.histogram2d(1, "a", "c", 8, 8).counts);
  const core::SummaryStats s1 = brush.summary(snap, 2, "b");
  const core::SummaryStats s2 = twin.summary(2, "b");
  CHECK_EQ(s1.count, s2.count);
  CHECK_EQ(s1.mean, s2.mean);

  // Construction guards.
  CHECK_THROWS(core::Brush(engine.all()));       // select-all: no AST form
  CHECK_THROWS(core::Brush(core::Selection{}));  // default: invalid
  CHECK_THROWS(brush.refine(nullptr));
}

void test_delta_vs_full_accounting() {
  const core::Engine engine = core::Engine::open(dataset_dir());
  auto counters = std::make_shared<core::Brush::Counters>();
  core::Brush brush(engine.select("a > -50"), counters);
  QueryPtr expected = parse_query("a > -50");

  // First touch executes the composed plan (full), and a repeat at the
  // same epoch is served from the brush slot (neither counter moves).
  (void)brush.count(brush.snapshot(), 0);
  CHECK_EQ(counters->full_evals.load(), 1u);
  CHECK_EQ(counters->delta_evals.load(), 0u);
  (void)brush.count(brush.snapshot(), 0);
  CHECK_EQ(counters->full_evals.load(), 1u);
  CHECK_EQ(counters->delta_evals.load(), 0u);

  // One edit then query: answered by the delta path.
  brush.refine(parse_query("b <= 5"));
  expected = Query::land(expected, parse_query("b <= 5"));
  CHECK_EQ(brush.count(brush.snapshot(), 0),
           test::scan_oracle(engine.dataset().table(0), *expected).count());
  CHECK_EQ(counters->full_evals.load(), 1u);
  CHECK(counters->delta_evals.load() >= 1u);

  // A pinned snapshot keeps answering at its own epoch while the brush
  // moves on.
  const core::Brush::Snapshot pinned = brush.snapshot();
  const QueryPtr pinned_expected = expected;
  brush.refine(parse_query("c > 500"));
  expected = Query::land(expected, parse_query("c > 500"));
  check_matches_scan(brush, pinned, engine, pinned_expected);
  check_matches_scan(brush, brush.snapshot(), engine, expected);

  // An edit burst longer than kMaxHistory outruns the delta history; the
  // next evaluation falls back to one full execution and re-seeds.
  const std::uint64_t full_before = counters->full_evals.load();
  for (std::size_t i = 0; i <= core::Brush::kMaxHistory; ++i) {
    const std::string text = "a > " + std::to_string(-40 + static_cast<int>(i % 7));
    brush.refine(parse_query(text));
    expected = Query::land(expected, parse_query(text));
  }
  check_matches_scan(brush, brush.snapshot(), engine, expected);
  CHECK(counters->full_evals.load() > full_before);
  // Re-seeded: one more edit rides the delta path again.
  const std::uint64_t delta_before = counters->delta_evals.load();
  brush.refine(parse_query("b >= -8"));
  expected = Query::land(expected, parse_query("b >= -8"));
  check_matches_scan(brush, brush.snapshot(), engine, expected);
  CHECK(counters->delta_evals.load() > delta_before);
}

void test_combine_with_uncached_operand() {
  // With the engine's bitvector cache capped at zero entries, the
  // shared_ptr an operand evaluation returns is the operand's only owner —
  // the state a concurrent eviction leaves behind. The delta path must keep
  // that owner alive while it combines.
  const core::Engine engine = core::Engine::open(dataset_dir());
  auto counters = std::make_shared<core::Brush::Counters>();
  core::Brush brush(engine.select("a > 0"), counters);
  const core::Brush other(engine.select("c <= 300"), counters);
  QueryPtr expected = parse_query("a > 0");
  const QueryPtr operand = parse_query("c <= 300");
  for (std::size_t t = 0; t < engine.num_timesteps(); ++t)
    (void)brush.count(brush.snapshot(), t);
  engine.dataset().memory_budget()->set_class_entry_cap(
      io::ResidentClass::kBitVector, 0);

  const std::uint64_t delta_before = counters->delta_evals.load();
  brush.combine(other, core::Brush::CombineOp::kAnd);
  expected = Query::land(expected, operand);
  check_matches_scan(brush, brush.snapshot(), engine, expected);
  brush.combine(other, core::Brush::CombineOp::kOr);
  expected = Query::lor(expected, operand);
  check_matches_scan(brush, brush.snapshot(), engine, expected);
  brush.combine(other, core::Brush::CombineOp::kAndNot);
  expected = Query::land(expected, Query::lnot(operand));
  check_matches_scan(brush, brush.snapshot(), engine, expected);
  CHECK_EQ(counters->delta_evals.load() - delta_before,
           3 * engine.num_timesteps());
}

void test_budget_accounting() {
  const core::Engine engine = core::Engine::open(dataset_dir());
  const auto budget = engine.dataset().memory_budget();
  const std::uint64_t entries_before =
      budget->stats().of(io::ResidentClass::kBrush).entries;
  {
    core::Brush brush(engine.select("a > 0"));
    CHECK_EQ(brush.resident_bytes(), 0u);  // nothing materialized yet
    (void)brush.count(brush.snapshot(), 0);
    (void)brush.count(brush.snapshot(), 1);
    CHECK(brush.resident_bytes() > 0u);
    CHECK(budget->stats().of(io::ResidentClass::kBrush).entries >=
          entries_before + 2);
    // An edit re-materializes; the superseded parent slot is erased, so
    // entries stay bounded by one per touched timestep.
    brush.refine(parse_query("b <= 0"));
    (void)brush.count(brush.snapshot(), 0);
    CHECK_EQ(budget->stats().of(io::ResidentClass::kBrush).entries,
             entries_before + 2);
  }
  // Destruction releases every slot (eviction hooks drain the byte count).
  CHECK_EQ(budget->stats().of(io::ResidentClass::kBrush).entries,
           entries_before);
}

void test_fuzz_edit_sequences() {
  const core::Engine engine = core::Engine::open(dataset_dir());
  const std::size_t timesteps = engine.num_timesteps();
  std::uint64_t state = 0xbadb2u;
  const std::size_t iters = fuzz::iterations();
  for (std::size_t round = 0; round < iters; ++round) {
    QueryPtr expected = fuzz::random_query(state, 1 + fuzz::next(state) % 2);
    core::Selection initial = engine.select(expected);
    if (initial.selects_all()) continue;  // cannot seed a brush
    core::Brush brush(std::move(initial), nullptr);
    core::Brush other(engine.select("b >= 0"), nullptr);
    const QueryPtr other_q = parse_query("b >= 0");
    const std::size_t edits = 1 + fuzz::next(state) % 8;
    for (std::size_t i = 0; i < edits; ++i) {
      switch (fuzz::next(state) % 4) {
        case 0: {
          const QueryPtr extra = fuzz::random_query(state, 1);
          brush.refine(extra);
          expected = Query::land(expected, extra);
          break;
        }
        case 1:
          brush.invert();
          expected = Query::lnot(expected);
          break;
        case 2:
          brush.combine(other, core::Brush::CombineOp::kAndNot);
          expected = Query::land(expected, Query::lnot(other_q));
          break;
        default: {
          // Query mid-burst: shortens the delta chain the next edit sees.
          const std::size_t t = fuzz::next(state) % timesteps;
          const core::Brush::Snapshot snap = brush.snapshot();
          CHECK_EQ(brush.count(snap, t),
                   test::scan_oracle(engine.dataset().table(t), *expected)
                       .count());
          break;
        }
      }
    }
    const std::size_t t = fuzz::next(state) % timesteps;
    const core::Brush::Snapshot snap = brush.snapshot();
    const BitVector scanned =
        test::scan_oracle(engine.dataset().table(t), *expected);
    CHECK(brush.bits(snap, t)->to_positions() == scanned.to_positions());
  }
}

void test_concurrent_editors_and_readers() {
  // Two editors mutate one shared brush while two readers pin snapshots
  // and evaluate them: every answer must match an independent execution of
  // the snapshot's own pinned predicate (epoch consistency), under TSan in
  // the sanitizer job. Counters/slots are exercised but not asserted —
  // interleavings make exact counts nondeterministic.
  const core::Engine engine = core::Engine::open(dataset_dir());
  core::Brush brush(engine.select("a > 0"), nullptr);
  core::Brush other(engine.select("c <= 300"), nullptr);
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int e = 0; e < 2; ++e) {
    threads.emplace_back([&, e] {
      std::uint64_t state = 0x5eed0 + static_cast<std::uint64_t>(e);
      for (int i = 0; i < 40; ++i) {
        switch (fuzz::next(state) % 3) {
          case 0:
            brush.refine(parse_query(
                "b <= " +
                std::to_string(5 - static_cast<int>(fuzz::next(state) % 10))));
            break;
          case 1:
            brush.invert();
            break;
          default:
            brush.combine(other, core::Brush::CombineOp::kAnd);
            break;
        }
      }
      stop.store(true, std::memory_order_release);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      std::uint64_t state = 0xface0 + static_cast<std::uint64_t>(r);
      do {
        const core::Brush::Snapshot snap = brush.snapshot();
        const std::size_t t = fuzz::next(state) % engine.num_timesteps();
        const std::uint64_t via_brush = brush.count(snap, t);
        const std::uint64_t via_plan = engine.select(snap.query).count(t);
        CHECK_EQ(via_brush, via_plan);
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  for (std::thread& t : threads) t.join();

  // Settled: one final full differential against a scan.
  const core::Brush::Snapshot snap = brush.snapshot();
  const BitVector scanned =
      test::scan_oracle(engine.dataset().table(0), *snap.query);
  CHECK(brush.bits(snap, 0)->to_positions() == scanned.to_positions());
}

void test_service_stale_cache_probe() {
  // Query / cache-hit / edit / re-query through svc::QueryService: the
  // epoch-tagged result-cache key must make the post-edit query miss the
  // pre-edit entry (fresh answer, brush_stale_hits == 0 — the tripwire).
  const core::Engine engine = core::Engine::open(dataset_dir());
  svc::QueryService service{core::Engine::open(dataset_dir())};
  const auto session = service.open_session("brush-probe");

  const svc::BrushOutcome created =
      service.brush_create(session, "B", "a > 0");
  CHECK(created.status == svc::Status::kOk);
  CHECK_EQ(created.epoch, 1u);

  svc::Request req;
  req.kind = svc::RequestKind::kCount;
  req.brush = "B";
  req.timestep = 0;
  const std::uint64_t before_edit = engine.select("a > 0").count(0);

  svc::ResultPtr r1 = service.execute(session, req);
  CHECK(r1->status == svc::Status::kOk);
  CHECK_EQ(r1->count, before_edit);
  CHECK_EQ(r1->brush_epoch, 1u);

  // Identical re-submission: served from the result cache, same epoch.
  svc::ResultPtr r2 = service.execute(session, req);
  CHECK_EQ(r2->count, before_edit);
  CHECK_EQ(r2->brush_epoch, 1u);
  CHECK(service.stats().result_cache_hits >= 1u);

  // Edit, then the same request again: the answer must move.
  const svc::BrushOutcome refined =
      service.brush_refine(session, "B", "b <= 0");
  CHECK(refined.status == svc::Status::kOk);
  CHECK_EQ(refined.epoch, 2u);
  svc::ResultPtr r3 = service.execute(session, req);
  CHECK(r3->status == svc::Status::kOk);
  CHECK_EQ(r3->brush_epoch, 2u);
  CHECK_EQ(r3->count, engine.select("a > 0 && b <= 0").count(0));

  const svc::ServiceStats stats = service.stats();
  CHECK_EQ(stats.brush_stale_hits, 0u);
  CHECK_EQ(stats.brush_creates, 1u);
  CHECK_EQ(stats.brush_edits, 1u);
  CHECK(stats.brush_queries >= 3u);
  CHECK(stats.brush_delta_evals >= 1u);
  CHECK_EQ(stats.brush_count, 1u);
  CHECK(stats.brush_bytes > 0u);

  // Brush/query exclusivity and lifecycle errors surface as typed errors,
  // never crashes.
  svc::Request bad = req;
  bad.query = "a > 0";
  CHECK(service.execute(session, bad)->status == svc::Status::kError);
  svc::Request zoom = req;
  zoom.kind = svc::RequestKind::kZoom1D;
  zoom.var_x = "a";
  zoom.view_lo_x = 0.0;
  zoom.view_hi_x = 1.0;
  CHECK(service.execute(session, zoom)->status == svc::Status::kError);
  svc::Request unknown = req;
  unknown.brush = "nope";
  CHECK(service.execute(session, unknown)->status == svc::Status::kError);
  CHECK(service.brush_refine(session, "nope", "a > 0").status ==
        svc::Status::kError);
  CHECK(service.brush_create(session, "B", "a > 1").status ==
        svc::Status::kError);  // duplicate name
  CHECK(service.brush_create(session, "bad name!", "a > 1").status ==
        svc::Status::kError);
  CHECK(service.brush_create(session, "C", "a >").status ==
        svc::Status::kError);  // malformed predicate: typed err

  const svc::BrushOutcome dropped = service.brush_drop(session, "B");
  CHECK(dropped.status == svc::Status::kOk);
  CHECK_EQ(service.stats().brush_count, 0u);
  CHECK_EQ(service.stats().brush_drops, 1u);
  CHECK(service.execute(session, req)->status == svc::Status::kError);

  // Brushes are session-scoped: another session cannot see them.
  const auto session2 = service.open_session("other");
  service.brush_create(session, "S", "a > 0");
  CHECK(service.brush_refine(session2, "S", "b <= 0").status ==
        svc::Status::kError);
  service.close_session(session2);
  service.close_session(session);
}

}  // namespace

int main() {
  test_fixed_differential();
  test_delta_vs_full_accounting();
  test_combine_with_uncached_operand();
  test_budget_accounting();
  test_fuzz_edit_sequences();
  test_concurrent_editors_and_readers();
  test_service_stale_cache_probe();
  if (qdv::test::failures == 0) std::puts("test_brush: all checks passed");
  return qdv::test::failures == 0 ? 0 : 1;
}
