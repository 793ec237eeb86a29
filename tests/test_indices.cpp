// The equality-encoded index against a brute-force reference: a probe of
// the saved `.bmi` image must give the exact answer for every query shape,
// including values outside the binned range, and its pinned segments alone
// must bracket that answer; the id index must match a sequential scan. The
// on-disk decoders must reject forged entry counts before allocating for
// them. The served interval-union probe must be bit-identical to a scan on
// every table shape that steers it (NaN and out-of-domain rows, a ragged
// last group, value-ordered and random-order columns, both sides of its OR
// rule), and the segments it pins are counted exactly: a probe reads only
// the segments its plan names. The range-step choice between that probe
// and a column scan is bit-identical either way, pins nothing when it
// scans, never loads the column for an index-only answer, and its work
// counts repeat exactly. Cold probes from four threads at once agree with
// the scan, and meet a corrupted segment with exactly one quarantine.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bitmap/bitmap_index.hpp"
#include "bitmap/index_segments.hpp"
#include "bitmap/kernels.hpp"
#include "core/engine.hpp"
#include "core/plan.hpp"
#include "core/selection.hpp"
#include "io/dataset.hpp"
#include "kernel_refs.hpp"
#include "sim/wakefield.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;

std::vector<double> make_values(std::size_t n, std::uint64_t seed) {
  std::vector<double> values(n);
  std::uint64_t state = seed;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (double& v : values)
    v = static_cast<double>(next() >> 11) * 0x1.0p-53 * 120.0 - 10.0;
  return values;
}

std::vector<std::uint32_t> brute_force(std::span<const double> values,
                                       const Interval& iv) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t r = 0; r < values.size(); ++r)
    if (iv.contains(values[r])) out.push_back(r);
  return out;
}

/// A SegmentedBitmapIndex over the `.bmi` image of BitmapIndex::build, the
/// form in which every served query reads an index.
SegmentedBitmapIndex open_saved(std::span<const double> values, const Bins& bins) {
  std::stringstream stream;
  BitmapIndex::build(values, bins).save(stream);
  const auto image = std::make_shared<const std::string>(stream.str());
  return SegmentedBitmapIndex::open(
      std::as_bytes(std::span(image->data(), image->size())), image);
}

void check_index(const SegmentedBitmapIndex& index,
                 std::span<const double> values, const Interval& iv,
                 const char* label) {
  const std::span<const Interval> ivs(&iv, 1);
  const SegmentedBitmapIndex::Probe probe = index.pin(ivs);
  const BitVector answer = probe.run(ivs, values);
  const std::vector<std::uint32_t> expect = brute_force(values, iv);
  if (answer.to_positions() != expect) {
    std::fprintf(stderr, "%s mismatch: lo=%g hi=%g got %zu expect %zu\n", label,
                 iv.lo, iv.hi, answer.to_positions().size(), expect.size());
    ++qdv::test::failures;
  }
  // The index alone must bracket the exact answer. Against a NaN column
  // every candidate fails its check, so the probe returns only the rows
  // the bins make certain; every exact row is one of those or a candidate.
  const std::vector<double> nan(values.size(),
                                std::numeric_limits<double>::quiet_NaN());
  const BitVector hits = probe.run(ivs, nan);
  std::vector<BitVector> copies;
  for (const kern::WahView& c : probe.candidates)
    copies.push_back(kern::ref::copy_of(c));
  std::vector<const BitVector*> candidates;
  for (const BitVector& c : copies) candidates.push_back(&c);
  const BitVector maybe =
      hits | kern::ref::or_many_pairwise(candidates, values.size());
  CHECK((hits & ~answer).count() == 0);  // no false certain hits
  CHECK((answer & ~maybe).count() == 0);
}

void test_value_indices() {
  const std::vector<double> values = make_values(5000, 99);
  // Bins deliberately narrower than the data range: rows fall outside.
  for (const std::size_t nbins : {1u, 2u, 3u, 7u, 64u}) {
    const SegmentedBitmapIndex index =
        open_saved(values, make_uniform_bins(0.0, 100.0, nbins));
    CHECK(!index.outside_empty());
    const std::vector<Interval> queries = {
        Interval::greater_than(50.0),  Interval::greater_than(-100.0),
        Interval::greater_than(99.99), Interval::less_than(0.5),
        Interval::at_least(25.0),      Interval::at_most(75.0),
        Interval::between(10.0, 20.0), Interval::between(-5.0, 110.0),
        Interval::between(33.3, 33.4), Interval::greater_than(200.0),
        Interval::between(50.0, 50.0),
    };
    for (const Interval& iv : queries) check_index(index, values, iv, "equality");
  }
}

void test_precision_binning_index_only() {
  // An inclusive threshold on a bin edge of a precision-binned index: no
  // segment the probe checks holds a row, so the answer is index-only and
  // the column is never read. The strict form keeps one candidate bin:
  // values exactly equal to the edge must be excluded.
  const std::vector<double> values = make_values(2000, 7);
  const SegmentedBitmapIndex index =
      open_saved(values, make_precision_bins(-10.0, 110.0, 2, 1u << 14));
  const std::vector<Interval> inclusive = {Interval::at_least(70.0)};
  CHECK(index.plan(inclusive).may_be_index_only);
  CHECK(!index.pin(inclusive).needs_column());
  const std::vector<Interval> strict = {Interval::greater_than(70.0)};
  const SegmentedBitmapIndex::Probe probe = index.pin(strict);
  CHECK(probe.needs_column());
  std::uint64_t candidates = 0;
  for (const kern::WahView& c : probe.candidates)
    candidates += kern::count_words(c);
  CHECK(candidates <= values.size() / 10);  // one bin of twelve
  check_index(index, values, inclusive.front(), "precision");
  check_index(index, values, strict.front(), "precision-strict");
}

void test_id_index() {
  std::vector<std::uint64_t> ids;
  std::uint64_t state = 5;
  for (std::size_t i = 0; i < 4000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    ids.push_back(state >> 20);
  }
  const IdIndex index = IdIndex::build(ids);
  std::vector<std::uint64_t> search = {ids[0], ids[100], ids[3999], 42, ids[100]};
  const std::vector<std::uint32_t> rows = index.lookup_rows(search);
  // Reference: sequential scan.
  std::vector<std::uint64_t> sorted(search);
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint32_t> expect;
  for (std::uint32_t r = 0; r < ids.size(); ++r)
    if (std::binary_search(sorted.begin(), sorted.end(), ids[r]))
      expect.push_back(r);
  CHECK(rows == expect);
  CHECK_EQ(index.lookup_row(42), -1);
  CHECK_EQ(index.lookup_row(ids[100]), 100);

  std::stringstream stream;
  index.save(stream);
  const std::string image = stream.str();
  const IdIndex loaded =
      IdIndex::load(std::as_bytes(std::span(image.data(), image.size())));
  CHECK(loaded.lookup_rows(search) == expect);
}

/// Serialized image of @p save with the u64 at @p offset replaced by
/// @p count — a forged on-disk entry count.
template <typename Save>
std::string forged_image(Save save, std::size_t offset, std::uint64_t count) {
  std::stringstream stream;
  save(stream);
  std::string image = stream.str();
  std::memcpy(image.data() + offset, &count, sizeof(count));
  return image;
}

/// True when decoding @p image throws std::runtime_error (a typed decode
/// failure, not std::bad_alloc).
template <typename Decode>
bool rejects(const std::string& image, Decode decode) {
  try {
    decode(std::as_bytes(std::span(image.data(), image.size())));
  } catch (const std::runtime_error&) {
    return true;
  } catch (...) {
  }
  return false;
}

void test_forged_counts_are_bounded() {
  const std::vector<double> values = make_values(3000, 21);
  const BitmapIndex index =
      BitmapIndex::build(values, make_uniform_bins(0.0, 100.0, 32));
  std::vector<std::uint64_t> ids(1000);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = 7 * i + 3;
  const IdIndex id_index = IdIndex::build(ids);

  const auto open_bmi = [](std::span<const std::byte> bytes) {
    (void)SegmentedBitmapIndex::open(bytes, nullptr);
  };
  const auto load_idi = [](std::span<const std::byte> bytes) {
    (void)IdIndex::load(bytes);
  };
  const auto save_bmi = [&](std::ostream& out) { index.save(out); };
  const auto save_idi = [&](std::ostream& out) { id_index.save(out); };

  // A count no allocator can satisfy: typed error, not std::bad_alloc.
  // .bmi layout: nrows | nedges | edges | nbitmaps ...; .idi: n | ...
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  CHECK(rejects(forged_image(save_bmi, 8, kHuge), open_bmi));
  CHECK(rejects(forged_image(save_idi, 0, kHuge), load_idi));
  const std::size_t nbitmaps_at = 16 + index.bins().edges().size() * 8;
  CHECK(rejects(forged_image(save_bmi, nbitmaps_at, kHuge), open_bmi));
  // A record word count whose byte size wraps around (4 * 2^62 == 2^64).
  CHECK(rejects(forged_image(save_bmi, nbitmaps_at + 16, kHuge << 22),
                open_bmi));

  // A count that would fit in memory but not in the image: rejected before
  // anything is committed (1-1.5 GiB if the decoder allocated first).
  constexpr std::uint64_t kLarge = std::uint64_t{1} << 27;
  const std::uint64_t rss_before = test::peak_rss_kib();
  CHECK(rejects(forged_image(save_bmi, 8, kLarge), open_bmi));
  CHECK(rejects(forged_image(save_idi, 0, kLarge), load_idi));
  CHECK(test::peak_rss_kib() - rss_before <= 64u << 10);
}

// ------------------------------------------------------ union probe legs ---

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One timestep directory the io layer opens: meta.txt plus a `.f64` column
/// and a `.bmi` index per variable, every index binned uniformly over
/// [lo, hi] (rows outside it, and NaN rows, land in the outside bitmap).
std::filesystem::path write_table(
    const std::string& name,
    const std::vector<std::pair<std::string, std::vector<double>>>& columns,
    double lo, double hi, std::size_t nbins) {
  const std::filesystem::path dir = test::scratch_dir(name);
  std::ofstream meta(dir / "meta.txt");
  meta.precision(17);
  meta << "rows " << columns.front().second.size() << "\n";
  for (const auto& [var, values] : columns) {
    meta << "domain " << var << ' ' << lo << ' ' << hi << "\n";
    std::ofstream col(dir / (var + ".f64"), std::ios::binary);
    col.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(double)));
    std::ofstream bmi(dir / (var + ".bmi"), std::ios::binary);
    BitmapIndex::build(values, make_uniform_bins(lo, hi, nbins)).save(bmi);
  }
  return dir;
}

/// An Or chain of one leaf per interval on @p var (an Interval leaf, so
/// open/closed ends and infinite bounds pass through untouched).
QueryPtr union_query(const std::string& var, const std::vector<Interval>& ivs) {
  QueryPtr q = Query::interval(var, ivs.front());
  for (std::size_t i = 1; i < ivs.size(); ++i)
    q = Query::lor(std::move(q), Query::interval(var, ivs[i]));
  return q;
}

/// The range step under every mode, and the plan of the union and of its
/// canonical form, all equal the reference scan, bit for bit. Returns
/// whether the probe ORed the complement side.
bool check_union(const io::TimestepTable& table, const std::string& var,
                 const std::vector<Interval>& ivs) {
  const QueryPtr q = union_query(var, ivs);
  const BitVector want = test::scan_oracle(table, *q);
  const BitVector got = table.range(var, ivs, EvalMode::kIndex);
  if (!(got == want)) {
    std::fprintf(stderr, "union probe mismatch on %s: %s (got %llu want %llu)\n",
                 var.c_str(), q->to_string().c_str(),
                 static_cast<unsigned long long>(got.count()),
                 static_cast<unsigned long long>(want.count()));
    ++test::failures;
  }
  CHECK(table.range(var, ivs, EvalMode::kScan) == want);
  CHECK(test::run_plan(table, q) == want);
  CHECK(test::run_plan(table, core::canonicalize(q), EvalMode::kIndex) == want);
  std::vector<Interval> live;
  for (const Interval& iv : ivs)
    if (!iv.empty()) live.push_back(iv);
  return !live.empty() && table.value_index(var)->pin(live).complement;
}

/// The columns of the 520,001-row table: three accumulator windows, and a
/// ragged last group (520,001 = 31 * 16,774 + 7). "r" is in random order
/// with NaN rows and rows outside the binned domain [0, 100]; "s" holds the
/// same kind of values in ascending order, so its bins are long one-fills
/// that cross windows.
constexpr std::size_t kRows = 520001;
std::vector<std::pair<std::string, std::vector<double>>> union_columns() {
  std::vector<double> r = make_values(kRows, 0x5eed);
  for (std::size_t i = 0; i < kRows; i += 97)
    r[i] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> s = make_values(kRows, 0xbeef);
  std::sort(s.begin(), s.end());
  return {{"r", std::move(r)}, {"s", std::move(s)}};
}

void test_union_probe_matches_scan() {
  const std::filesystem::path dir =
      write_table("indices_union", union_columns(), 0.0, 100.0, 64);
  const io::TimestepTable table(dir, std::make_shared<io::MemoryBudget>(),
                                std::make_shared<io::IntegrityStats>(),
                                std::make_shared<io::RangeStats>());
  CHECK(!table.value_index("r")->outside_empty());
  CHECK(!table.value_index("s")->outside_empty());

  const double e = table.value_index("r")->bins().edges()[5];  // a bin edge
  const std::vector<std::vector<Interval>> unions = {
      {Interval::between(40.0, 41.0)},                      // narrow
      {Interval::between(2.0, 98.0)},                       // wide
      {Interval::at_most(30.0), Interval::greater_than(33.0)},  // the gesture
      {Interval::less_than(e), Interval::at_least(e)},      // adjacent at an edge
      {Interval::at_most(e), Interval::greater_than(e)},    // adjacent, other ends
      {Interval::between(10.0, 60.0), Interval::between(50.0, 90.0)},  // overlap
      {Interval{20.0, 70.0, true, true}, Interval{70.0, 70.0, false, false}},
      {Interval::between(5.0, 5.0), Interval::greater_than(kInf)},  // all empty
      {Interval::between(5.0, 5.0), Interval::between(30.0, 31.5)},  // one empty
      {Interval::everything()},
      {Interval{-kInf, kInf, false, false}},
      {Interval::less_than(-5.0), Interval::greater_than(105.0)},  // outside only
      {Interval::at_least(e), Interval::at_most(-kInf), Interval::less_than(1.0)},
      {Interval::greater_than(0.0), Interval::less_than(100.0),
       Interval::between(-3.0, 0.0)},
  };
  bool saw_inside = false, saw_complement = false;
  for (const std::string var : {"r", "s"})
    for (const std::vector<Interval>& ivs : unions)
      (check_union(table, var, ivs) ? saw_complement : saw_inside) = true;
  CHECK(saw_inside);
  CHECK(saw_complement);
  // The rule itself: a narrow slice ORs its few full bins, a wide one the
  // few bins around it and inverts.
  const SegmentedBitmapIndex& idx = *table.value_index("r");
  CHECK(!idx.pin(std::vector<Interval>{Interval::between(40.0, 45.0)}).complement);
  CHECK(idx.pin(std::vector<Interval>{Interval::between(2.0, 98.0)}).complement);
}

void test_union_probe_small_tables() {
  // Row counts below, at and just past one 31-bit group, and an all-NaN
  // column: the tail mask and the empty-candidate paths.
  for (const std::size_t rows : {1u, 30u, 31u, 32u, 63u, 1000u}) {
    std::vector<double> v = make_values(rows, 40 + rows);
    std::vector<double> nan(rows, std::numeric_limits<double>::quiet_NaN());
    const std::filesystem::path dir = write_table(
        "indices_small_" + std::to_string(rows), {{"v", v}, {"n", nan}}, 0.0,
        100.0, 8);
    const io::TimestepTable table(dir, std::make_shared<io::MemoryBudget>(),
                                  std::make_shared<io::IntegrityStats>(),
                                  std::make_shared<io::RangeStats>());
    for (const std::string var : {"v", "n"}) {
      check_union(table, var, {Interval::between(10.0, 60.0)});
      check_union(table, var, {Interval::at_most(12.5), Interval::greater_than(15.0)});
      check_union(table, var, {Interval::everything()});
      check_union(table, var, {Interval::greater_than(-kInf)});
    }
  }
}

/// Segments pinned (RangeStats::probe_segments) by one query straight
/// against the table, bypassing the bitvector cache.
std::uint64_t fetches(const io::TimestepTable& table, const std::string& text) {
  const std::atomic<std::uint64_t>& pinned = table.range_stats()->probe_segments;
  const std::uint64_t before = pinned.load();
  (void)test::run_plan(table, parse_query(text));
  return pinned.load() - before;
}

void test_probe_fetch_counts() {
  const std::filesystem::path dir = test::scratch_dir("indices_fetch");
  io::IndexConfig index_config;
  index_config.nbins = 1024;
  index_config.build_pyramids = false;
  CHECK(sim::generate_dataset(sim::WakefieldConfig::preset_bench(20000, 1),
                              dir, index_config) > 0);
  const io::Dataset ds = io::Dataset::open(dir);
  const io::TimestepTable& table = ds.table(0);
  const SegmentedBitmapIndex& y = *table.value_index("y");
  CHECK_EQ(y.bins().num_bins(), 1024u);
  const std::uint64_t outside = y.outside_empty() ? 0 : 1;

  // `y > e` with e the edge that opens bin 5: bins 0-4 and the partial bin
  // 5 (the outside segment too, when it has rows) are the whole
  // complement side, and bin 5 is the only candidate. Reading the other
  // ~1,018 full bins instead would be the inside side.
  const std::string above = "y > " + format_double(y.bins().edges()[5]);
  const std::uint64_t first = fetches(table, above);
  CHECK(first <= 8);
  CHECK_EQ(first, 6 + outside);
  CHECK_EQ(fetches(table, above), first);  // repeat runs: same work

  // The brushing gesture `(y <= a || y > b)` reads the gap: the bins from
  // the one holding a to the one holding b, plus the outside segment.
  const Bins::Locator locate = y.bins().locator();
  const auto [lo, hi] = table.domain("y");
  const double a = lo + 0.40 * (hi - lo);
  const double b = lo + 0.43 * (hi - lo);
  const std::string gesture =
      "(y <= " + format_double(a) + " || y > " + format_double(b) + ")";
  const std::uint64_t gap =
      static_cast<std::uint64_t>(locate(b) - locate(a) + 1) + outside;
  CHECK_EQ(fetches(table, gesture), gap);
  CHECK_EQ(fetches(table, gesture), gap);
  CHECK(gap < 64);
}

/// The range-step choice (DESIGN.md Section 3) on the 520,001-row table
/// binned as the generator bins (1024 bins), plus "u": random order inside
/// [0, 60], so the bins above 60 are empty and the outside bitmap is too.
/// Every leg answers bit-identically to kScan. The intervals sit far from
/// the crossover of every ISA level's constants.
void test_range_choice() {
  auto columns = union_columns();
  std::vector<double> u = make_values(kRows, 0x1dea);
  for (double& v : u) v = (v + 10.0) / 2.0;  // [0, 60)
  columns.emplace_back("u", std::move(u));
  const std::filesystem::path dir =
      write_table("indices_choice", columns, 0.0, 100.0, 1024);
  const auto budget = std::make_shared<io::MemoryBudget>();
  const io::TimestepTable table(dir, budget, std::make_shared<io::IntegrityStats>(),
                                std::make_shared<io::RangeStats>());
  const auto column_lookups = [&] {
    const io::ResidentClassStats c =
        budget->stats().of(io::ResidentClass::kColumn);
    return c.hits + c.misses;
  };
  /// Runs one union under @p mode; returns the segments it pinned and
  /// whether it read the column.
  struct Run {
    std::uint64_t fetches = 0;
    bool column = false;
    BitVector bits;
  };
  const auto run = [&](const std::string& var, const std::vector<Interval>& ivs,
                       EvalMode mode) {
    Run out;
    const std::uint64_t seg0 = table.range_stats()->probe_segments.load();
    const std::uint64_t col0 = column_lookups();
    out.bits = table.range(var, ivs, mode);
    out.fetches = table.range_stats()->probe_segments.load() - seg0;
    out.column = column_lookups() != col0;
    return out;
  };
  const auto scan = [&](const std::string& var, const std::vector<Interval>& ivs) {
    return test::scan_oracle(table, *union_query(var, ivs));
  };
  /// Whether the step under kAuto probed (RangeStats::probes).
  const auto probes = [&](const std::string& var, const std::vector<Interval>& ivs) {
    const std::uint64_t before = table.range_stats()->probes.load();
    (void)table.range(var, ivs, EvalMode::kAuto);
    return table.range_stats()->probes.load() != before;
  };

  // A wide interval on the random-order column: the probe would read about
  // a word per row, so the step scans and fetches no segment.
  const std::vector<Interval> wide = {Interval::between(25.3, 75.7)};
  CHECK(!probes("r", wide));
  const Run w = run("r", wide, EvalMode::kAuto);
  CHECK_EQ(w.fetches, 0u);
  CHECK(w.column);
  CHECK(w.bits == scan("r", wide));
  // kIndex always probes, and fetches what the probe reads.
  const Run wi = run("r", wide, EvalMode::kIndex);
  CHECK(wi.fetches > 500);
  CHECK(wi.bits == w.bits);

  // A narrow interval probes, with the fetches kIndex makes.
  const std::vector<Interval> narrow = {Interval::between(40.3, 41.3)};
  CHECK(probes("r", narrow));
  const Run n = run("r", narrow, EvalMode::kAuto);
  CHECK(n.fetches > 0);
  CHECK_EQ(n.fetches, run("r", narrow, EvalMode::kIndex).fetches);
  CHECK(n.bits == scan("r", narrow));

  // Edge-aligned on a column with no outside rows: index-only, so it
  // probes however many words it reads, and never loads the column.
  const std::vector<double>& edges = table.value_index("u")->bins().edges();
  CHECK(table.value_index("u")->outside_empty());
  const std::vector<Interval> aligned = {Interval::between(edges[100], edges[500])};
  const SegmentedBitmapIndex::ProbePlan plan =
      table.value_index("u")->plan(aligned);
  CHECK(!kern::probe_is_cheaper(plan.words, kRows));
  CHECK(probes("u", aligned));
  const Run a = run("u", aligned, EvalMode::kAuto);
  CHECK(!a.column);
  // A partial bin past 60 is empty: pinned, the probe is index-only too.
  const std::vector<Interval> empty_edge = {Interval{edges[100], 75.3, false, true}};
  CHECK(table.value_index("u")->plan(empty_edge).may_be_index_only);
  CHECK(probes("u", empty_edge));
  const Run e = run("u", empty_edge, EvalMode::kAuto);
  CHECK(!e.column);
  // Every answer above is the scan's, bit for bit.
  CHECK(a.bits == scan("u", aligned));
  CHECK(e.bits == scan("u", empty_edge));
  // And every path agrees on the value-ordered column too.
  for (const std::vector<Interval>& ivs : {wide, narrow})
    for (const EvalMode mode : {EvalMode::kAuto, EvalMode::kIndex})
      CHECK(table.range("s", ivs, mode) == scan("s", ivs));
}

/// Work counts of the range-step choice through the engine: a fixed query
/// set (a narrow value-ordered conjunct that probes, a wide random-order
/// one that scans, and a same-variable Or that probes) gives exact counts.
void test_range_work_counts() {
  const std::filesystem::path dir = test::scratch_dir("indices_counts");
  io::IndexConfig index_config;
  index_config.nbins = 1024;
  index_config.build_pyramids = false;
  CHECK(sim::generate_dataset(sim::WakefieldConfig::preset_bench(20000, 1),
                              dir, index_config) > 0);
  const core::Engine engine = core::Engine::open(dir);
  const io::TimestepTable& table = engine.dataset().table(0);
  const auto [xlo, xhi] = table.domain("x");
  const auto [ylo, yhi] = table.domain("y");
  const auto at = [](double lo, double hi, double f) { return lo + f * (hi - lo); };
  const Interval x_narrow = Interval::between(at(xlo, xhi, 0.40), at(xlo, xhi, 0.42));
  const Interval y_wide = Interval::between(at(ylo, yhi, 0.2), at(ylo, yhi, 0.7));
  const std::vector<Interval> y_gap = {Interval::at_most(at(ylo, yhi, 0.40)),
                                       Interval::greater_than(at(ylo, yhi, 0.43))};
  const auto text = [](const std::string& var, const Interval& iv) {
    return Query::interval(var, iv)->to_string();
  };
  const std::string texts[] = {
      text("x", x_narrow) + " && " + text("y", y_wide),
      "(" + text("y", y_gap[0]) + " || " + text("y", y_gap[1]) + ")",
  };
  const core::EngineStats before = engine.stats();
  for (const std::string& text : texts) (void)engine.select(text).count(0);
  const core::EngineStats after = engine.stats();
  const auto words = [&](const std::string& var, std::vector<Interval> ivs) {
    return table.value_index(var)->plan(ivs).words;
  };
  // The segments a pin reads, from the plan alone: its OR side, the bins
  // partly inside, and a non-empty outside bitmap.
  const auto segments = [&](const std::string& var, std::vector<Interval> ivs) {
    const SegmentedBitmapIndex& idx = *table.value_index(var);
    const SegmentedBitmapIndex::ProbePlan plan = idx.plan(ivs);
    std::uint64_t n = idx.outside_empty() ? 0 : 1;
    for (const std::uint8_t status : plan.status)
      n += ((status == 2) != plan.complement) || status == 1;
    return n;
  };
  CHECK_EQ(after.range_probes - before.range_probes, 2u);
  CHECK_EQ(after.range_scans - before.range_scans, 1u);
  CHECK_EQ(after.probe_words - before.probe_words,
           words("x", {x_narrow}) + words("y", y_gap));
  CHECK_EQ(after.scan_rows - before.scan_rows, table.num_rows());
  CHECK_EQ(after.probe_segments - before.probe_segments,
           segments("x", {x_narrow}) + segments("y", y_gap));
}

/// Cold probes from four threads at once on a freshly opened 1,024-bin
/// table: each segment's first touch is checked once while the other
/// threads wait for it or read segments already checked. Unions over the
/// value-ordered x and the random-order y, under kIndex and kAuto, each
/// equal kScan. On a copy with one corrupted y segment, the threads that
/// meet it quarantine the index exactly once and their steps scan.
void test_concurrent_cold_probes() {
  const std::filesystem::path dir = test::scratch_dir("indices_cold");
  io::IndexConfig index_config;
  index_config.nbins = 1024;
  index_config.build_pyramids = false;
  CHECK(sim::generate_dataset(sim::WakefieldConfig::preset_bench(20000, 1),
                              dir, index_config) > 0);
  std::vector<QueryPtr> queries;
  std::size_t victim = 0;  // a y bin inside the narrow y union
  {
    const io::Dataset ds = io::Dataset::open(dir);
    const io::TimestepTable& table = ds.table(0);
    for (const std::string var : {"x", "y"}) {
      const auto [lo, hi] = table.domain(var);
      const auto at = [&](double f) { return lo + f * (hi - lo); };
      queries.push_back(union_query(var, {Interval::between(at(0.40), at(0.41))}));
      queries.push_back(union_query(
          var, {Interval::at_most(at(0.40)), Interval::greater_than(at(0.43))}));
      queries.push_back(union_query(
          var, {Interval::less_than(at(0.1)), Interval::between(at(0.3), at(0.32)),
                Interval::at_least(at(0.95))}));
      if (var == "y")
        victim = static_cast<std::size_t>(
            table.value_index("y")->bins().locator()(at(0.405)));
    }
  }
  // Every query on four threads, each starting at another one, against a
  // fresh open of @p ds_dir; returns the integrity demotions it counted.
  const auto run = [&](const std::filesystem::path& ds_dir,
                       const std::vector<EvalMode>& modes) {
    const io::Dataset ds = io::Dataset::open(ds_dir);
    const io::TimestepTable& table = ds.table(0);
    // The scans read columns only, so the indices stay cold.
    std::vector<BitVector> want;
    for (const QueryPtr& q : queries) want.push_back(test::scan_oracle(table, *q));
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t)
      threads.emplace_back([&, t] {
        for (std::size_t k = 0; k < queries.size(); ++k) {
          const std::size_t i = (k + 2 * t) % queries.size();
          for (const EvalMode mode : modes)
            if (test::run_plan(table, queries[i], mode) != want[i]) ++mismatches;
        }
      });
    for (std::thread& t : threads) t.join();
    CHECK_EQ(mismatches.load(), 0);
    return ds.integrity_stats()->demotions.load();
  };
  CHECK_EQ(run(dir, {EvalMode::kIndex, EvalMode::kAuto}), 0u);

  const std::filesystem::path damaged = test::scratch_dir("indices_cold_bad") / "ds";
  std::filesystem::copy(dir, damaged, std::filesystem::copy_options::recursive);
  const std::filesystem::path bmi = damaged / io::step_dir_name(0) / "y.bmi";
  {
    const io::Dataset ds = io::Dataset::open(dir);
    const SegmentedBitmapIndex& y = *ds.table(0).value_index("y");
    CHECK(y.segment_words(victim) > 0);
    const auto at = static_cast<std::streamoff>(y.segment_offset(victim) +
                                                BitVector::kRecordHeaderBytes);
    std::fstream f(bmi, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.seekg(at);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(at);
    f.write(&byte, 1);
    CHECK(f.good());
  }
  CHECK_EQ(run(damaged, {EvalMode::kAuto}), 1u);
}

}  // namespace

int main() {
  test_value_indices();
  test_precision_binning_index_only();
  test_forged_counts_are_bounded();
  test_id_index();
  test_union_probe_matches_scan();
  test_union_probe_small_tables();
  test_probe_fetch_counts();
  test_range_choice();
  test_range_work_counts();
  test_concurrent_cold_probes();
  return qdv::test::finish("test_indices");
}
