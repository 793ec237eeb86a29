// Property-based differential fuzzer for the query pipeline (random AST /
// dataset machinery in fuzz_common.hpp). Fixed-seed
// random ASTs over a random table must (1) round-trip exactly through
// parse(to_string(q)) — raw and canonicalized — and (2) produce
// bit-identical selections through the planner/index path and a naive
// sequential scan (core::CustomScan), the plan's uncached evaluation under
// every EvalMode running exactly one probe or scan per range step it
// lists, random interval unions included. A second phase replays a random query stream against an
// engine under a randomly shrunk MemoryBudget and checks every answer
// against a sequential scan: answers must stay bit-identical while
// evictions are actually happening. A third phase fuzzes the zoom tier
// (DESIGN.md §14): random viewport/zoom sequences — and four concurrent
// zoom sessions, for the TSan job — where kAuto (pyramid) and kExact must
// agree bit for bit whatever route kAuto picks.
//
// ctest runs a reduced iteration count; set QDV_FUZZ_ITERS for a deep run.
// It also runs the whole suite with QDV_NO_MMAP=1, so every phase covers
// the heap fallback that an mmap failure takes.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/selection.hpp"
#include "fuzz_common.hpp"
#include "io/checksum.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;
namespace fuzz = qdv::test::fuzz;

/// The plan's uncached evaluation of @p q at @p table, under each mode,
/// equals the reference, and calls the table once per step with non-empty
/// intervals: the steps explain() lists are the probes and scans that run.
void check_plan_steps(const io::TimestepTable& table, const QueryPtr& q,
                      const BitVector& want) {
  const core::ExecutionPlan plan = core::plan_query(q, &table);
  std::uint64_t steps = 0;
  for (const core::PredicateStep& step : plan.steps())
    steps += step.intervals.empty() ? 0 : 1;
  const io::RangeStats& ranges = *table.range_stats();
  for (const EvalMode mode : {EvalMode::kAuto, EvalMode::kIndex, EvalMode::kScan}) {
    const std::uint64_t before = ranges.probes.load() + ranges.scans.load();
    CHECK(*plan.evaluate(table, mode) == want);
    CHECK_EQ(ranges.probes.load() + ranges.scans.load() - before, steps);
  }
}

void test_round_trip_and_plan_vs_scan() {
  const std::filesystem::path dir =
      fuzz::write_random_dataset("fuzz_query", /*timesteps=*/1, /*rows=*/500,
                                 /*seed=*/0x5eed, /*index_bins=*/32);
  const core::Engine engine = core::Engine::open(dir);
  const io::TimestepTable& table = engine.dataset().table(0);
  std::uint64_t state = 0xf22dull;
  std::uint64_t union_state = 0xb1d0ull;  // its own stream: q's is unchanged
  const std::size_t iters = fuzz::iterations();
  for (std::size_t i = 0; i < iters; ++i) {
    const QueryPtr q = fuzz::random_query(state, 1 + fuzz::next(state) % 3);

    // Exact text round-trip, raw and canonicalized.
    const std::string text = q->to_string();
    CHECK_EQ(parse_query(text)->to_string(), text);
    const QueryPtr canonical = core::canonicalize(q);
    const std::string canonical_text = canonical->to_string();
    CHECK_EQ(parse_query(canonical_text)->to_string(), canonical_text);
    // Canonicalization is a fixed point.
    CHECK_EQ(core::canonicalize(canonical)->to_string(), canonical_text);

    // Planner/index execution vs a naive sequential scan of the ORIGINAL
    // tree: bit-identical selections.
    const core::Selection planned = engine.select(q);
    const BitVector scanned = test::scan_oracle(table, *q);
    CHECK(planned.bits(0)->to_positions() == scanned.to_positions());
    CHECK_EQ(planned.count(0), scanned.count());

    check_plan_steps(table, q, scanned);
    const QueryPtr u = fuzz::random_union(union_state);
    check_plan_steps(table, u, test::scan_oracle(table, *u));
  }
}

void test_out_of_core_differential() {
  const std::filesystem::path dir = fuzz::write_random_dataset(
      "fuzz_outofcore", /*timesteps=*/3, /*rows=*/400,
      /*seed=*/0xacedu, /*index_bins=*/24);
  // The oracle: a sequential scan through a second dataset handle.
  const io::Dataset reference = io::Dataset::open(dir);

  std::uint64_t state = 0xb1e55ull;
  io::OpenOptions lazy_options;
  lazy_options.budget_bytes = 2048 + fuzz::next(state) % 8192;
  core::Engine lazy{io::Dataset::open(dir, lazy_options)};

  const std::size_t iters = fuzz::iterations();
  for (std::size_t i = 0; i < iters; ++i) {
    const QueryPtr q = fuzz::random_query(state, 1 + fuzz::next(state) % 3);
    for (std::size_t t = 0; t < 3; ++t) {
      const auto expect =
          test::scan_oracle(reference.table(t), *q).to_positions();
      const auto got = lazy.select(q).bits(t)->to_positions();
      CHECK(got == expect);
    }
    // Keep moving the budget mid-stream so evictions interleave
    // with decodes rather than only happening between queries.
    if (i % 5 == 4)
      lazy.set_memory_budget(1024 + fuzz::next(state) % 16384);
  }
  // The whole point: answers stayed identical while the lazy engine was
  // actually evicting columns/segments under budget pressure.
  const core::EngineStats stats = lazy.stats();
  CHECK(stats.io_evictions > 0);
  CHECK(stats.loaded_bytes > stats.resident_bytes);
}

// One random zoom request: random variable and viewport (mostly inside the
// domain, sometimes narrow enough to force the exact fallback, sometimes
// fully outside), random bin count, and — half the time — a random
// predicate whose shape decides servability on its own. The property is
// mode-independence: kAuto (pyramid tier when servable) and kExact must
// agree bit for bit on counts and edges, whatever route kAuto picks.
void check_random_zoom(const core::Engine& engine, std::uint64_t& state,
                       std::size_t timesteps) {
  const auto& vars = fuzz::variables();
  const std::size_t t = fuzz::next(state) % timesteps;
  const std::string& var = vars[fuzz::next(state) % vars.size()];
  const auto [dlo, dhi] = engine.dataset().global_domain(var);
  const double span = (dhi - dlo) * (fuzz::next(state) % 8 == 0
                                         ? 0.002
                                         : 0.1 + 0.9 * fuzz::uniform(state, 0, 1));
  const double lo = fuzz::uniform(state, dlo - 0.2 * (dhi - dlo), dhi);
  const std::size_t nbins = 4 + fuzz::next(state) % 61;
  core::Selection sel = engine.all();
  if (fuzz::next(state) % 2 == 0)
    sel = engine.select(fuzz::random_query(state, 1 + fuzz::next(state) % 2));

  if (fuzz::next(state) % 4 != 0) {
    const core::Zoom1DResult a = sel.zoom_histogram1d(
        t, var, lo, lo + span, nbins, core::ZoomMode::kAuto);
    const core::Zoom1DResult e = sel.zoom_histogram1d(
        t, var, lo, lo + span, nbins, core::ZoomMode::kExact);
    CHECK(a.hist.counts == e.hist.counts);
    CHECK(a.hist.bins.edges() == e.hist.bins.edges());
  } else {
    // 2D zoom over the (a, b) pair pyramid's plane.
    const auto [ylo_d, yhi_d] = engine.dataset().global_domain(vars[1]);
    const double ylo = fuzz::uniform(state, ylo_d, yhi_d);
    const double yspan = (yhi_d - ylo_d) * (0.1 + 0.8 * fuzz::uniform(state, 0, 1));
    const core::Zoom2DResult a = sel.zoom_histogram2d(
        t, vars[0], vars[1], lo, lo + span, ylo, ylo + yspan, nbins, nbins,
        core::ZoomMode::kAuto);
    const core::Zoom2DResult e = sel.zoom_histogram2d(
        t, vars[0], vars[1], lo, lo + span, ylo, ylo + yspan, nbins, nbins,
        core::ZoomMode::kExact);
    CHECK(a.hist.counts == e.hist.counts);
    CHECK(a.hist.xbins.edges() == e.hist.xbins.edges());
    CHECK(a.hist.ybins.edges() == e.hist.ybins.edges());
  }
}

void test_zoom_differential() {
  const std::filesystem::path dir = fuzz::write_random_dataset(
      "fuzz_zoom", /*timesteps=*/2, /*rows=*/600,
      /*seed=*/0x200fu, /*index_bins=*/32);
  const core::Engine engine = core::Engine::open(dir);
  std::uint64_t state = 0x51deull;
  const std::size_t iters = fuzz::iterations();
  for (std::size_t i = 0; i < iters; ++i)
    check_random_zoom(engine, state, 2);
  // The leg must have exercised both routes, not just the fallback.
  const core::EngineStats stats = engine.stats();
  CHECK(stats.pyramid_served > 0);
  CHECK(stats.pyramid_fallback > 0);
}

// Concurrent zoom sessions against one shared engine: the lazily-loaded
// pyramid levels, the zoom stats counters, and the bitvector cache are all
// shared mutable state — this leg exists for the TSan job as much as for
// the differential property itself.
void test_zoom_concurrent() {
  const std::filesystem::path dir = fuzz::write_random_dataset(
      "fuzz_zoom_mt", /*timesteps=*/2, /*rows=*/500,
      /*seed=*/0xc0ffu, /*index_bins=*/24);
  const core::Engine engine = core::Engine::open(dir);
  const std::size_t iters = std::max<std::size_t>(fuzz::iterations() / 4, 10);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < 4; ++w)
    threads.emplace_back([&engine, w, iters] {
      std::uint64_t state = 0x7007ull + w * 0x9e3779b97f4a7c15ull;
      for (std::size_t i = 0; i < iters; ++i)
        check_random_zoom(engine, state, 2);
    });
  for (std::thread& th : threads) th.join();
  CHECK(engine.stats().pyramid_served > 0);
}

// Flip 1-4 random bytes of @p file in place (the sidecar stays pristine,
// so the damage is detectable).
void flip_bytes(const std::filesystem::path& file, std::uint64_t& state) {
  const std::uintmax_t size = std::filesystem::file_size(file);
  if (size == 0) return;
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  const std::size_t flips = 1 + fuzz::next(state) % 4;
  for (std::size_t i = 0; i < flips; ++i) {
    const std::uint64_t pos = fuzz::next(state) % size;
    f.seekg(static_cast<std::streamoff>(pos));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^
                             static_cast<char>(1 + fuzz::next(state) % 255));
    f.seekp(static_cast<std::streamoff>(pos));
    f.write(&byte, 1);
  }
  CHECK(f.good());
}

// Corruption leg (DESIGN.md §15): each iteration copies a pristine dataset,
// flips a few bytes of one random .bmi / .pyr / .f64 artifact, and replays
// random queries and zooms against a fresh engine.
// The property: every answer is bit-identical to the pristine scan/exact
// reference (degradation chose a clean path) or fails with the typed
// io::IntegrityError (the damage was ground truth) — never a crash, never
// silently wrong bits.
void test_corruption_differential() {
  const std::filesystem::path pristine = fuzz::write_random_dataset(
      "fuzz_corrupt_src", /*timesteps=*/1, /*rows=*/400,
      /*seed=*/0xdead5eedull, /*index_bins=*/24);
  const core::Engine reference = core::Engine::open(pristine);
  const io::TimestepTable& ref_table = reference.dataset().table(0);

  std::vector<std::filesystem::path> victims;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(pristine)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".bmi" || ext == ".pyr" || ext == ".f64")
      victims.push_back(std::filesystem::relative(entry.path(), pristine));
  }
  CHECK(victims.size() >= 9);  // 3 .bmi + 3 .f64 + 3+1 .pyr per timestep

  std::uint64_t state = 0xc0dedbadull;
  const std::size_t iters = std::max<std::size_t>(fuzz::iterations(200), 200);
  std::size_t matched = 0;
  std::size_t typed_errors = 0;
  std::uint64_t demotions = 0;
  const std::filesystem::path work =
      qdv::test::scratch_dir("fuzz_corrupt_work") / "ds";
  for (std::size_t i = 0; i < iters; ++i) {
    std::filesystem::remove_all(work);
    std::filesystem::copy(pristine, work,
                          std::filesystem::copy_options::recursive);
    flip_bytes(work / victims[fuzz::next(state) % victims.size()], state);

    try {
      const core::Engine engine = core::Engine::open(work);
      for (int qn = 0; qn < 3; ++qn) {
        const QueryPtr q = fuzz::random_query(state, 1 + fuzz::next(state) % 2);
        try {
          const auto got = engine.select(q).bits(0)->to_positions();
          CHECK(got == test::scan_oracle(ref_table, *q).to_positions());
          ++matched;
        } catch (const io::IntegrityError&) {
          ++typed_errors;
        }
      }
      // One zoom: kAuto and kExact on the SAME damaged store must stay
      // mode-independent — a quarantined pyramid is absent for both, so
      // they re-resolve to identical geometry. (Comparing against the
      // pristine engine would be wrong: pyramid availability legitimately
      // changes viewport snapping.)
      const auto& vars = fuzz::variables();
      const std::string& var = vars[fuzz::next(state) % vars.size()];
      const auto [dlo, dhi] = reference.dataset().global_domain(var);
      const double lo = fuzz::uniform(state, dlo, dhi);
      const double span = (dhi - dlo) * (0.1 + 0.8 * fuzz::uniform(state, 0, 1));
      const std::size_t nbins = 8 + fuzz::next(state) % 25;
      try {
        const core::Zoom1DResult got = engine.all().zoom_histogram1d(
            0, var, lo, lo + span, nbins, core::ZoomMode::kAuto);
        const core::Zoom1DResult want = engine.all().zoom_histogram1d(
            0, var, lo, lo + span, nbins, core::ZoomMode::kExact);
        CHECK(got.hist.counts == want.hist.counts);
        CHECK(got.hist.bins.edges() == want.hist.bins.edges());
        ++matched;
      } catch (const io::IntegrityError&) {
        ++typed_errors;
      }
      demotions += engine.stats().integrity_demotions;
    } catch (const io::IntegrityError&) {
      ++typed_errors;  // damage surfacing outside a guarded query or zoom
    }
  }
  // The leg must have seen all three outcomes: clean degraded answers,
  // typed ground-truth failures, and actual quarantines.
  CHECK(matched > 0);
  CHECK(typed_errors > 0);
  CHECK(demotions > 0);
  std::printf("corruption: %zu matched, %zu typed errors, %llu demotions\n",
              matched, typed_errors,
              static_cast<unsigned long long>(demotions));
}

}  // namespace

int main() {
  test_round_trip_and_plan_vs_scan();
  test_out_of_core_differential();
  test_zoom_differential();
  test_zoom_concurrent();
  test_corruption_differential();
  return qdv::test::finish("test_fuzz_query");
}
