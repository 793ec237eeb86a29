// Index encodings against a brute-force reference: equality, range, and
// interval encodings must produce identical exact answers for every query
// shape, including values outside the binned range; the id index must match
// a sequential scan. The on-disk decoders must reject forged entry counts
// before allocating for them. The served interval-union probe must be
// bit-identical to a scan on every table shape that steers it (NaN and
// out-of-domain rows, a ragged last group, value-ordered and random-order
// columns, both sides of its OR rule), and its segment fetches are counted
// exactly: a probe reads only the segments its plan names.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitmap/bitmap_index.hpp"
#include "bitmap/index_segments.hpp"
#include "bitmap/interval_index.hpp"
#include "bitmap/range_index.hpp"
#include "core/plan.hpp"
#include "io/dataset.hpp"
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

template <typename Index>
void check_index(const Index& index, std::span<const double> values,
                 const Interval& iv, const char* label) {
  const BitVector answer = index.evaluate(iv, values);
  const std::vector<std::uint32_t> expect = brute_force(values, iv);
  if (answer.to_positions() != expect) {
    std::fprintf(stderr, "%s mismatch: lo=%g hi=%g got %zu expect %zu\n", label,
                 iv.lo, iv.hi, answer.to_positions().size(), expect.size());
    ++qdv::test::failures;
  }
  // The approximate answer must bracket the exact one.
  const auto approx = index.evaluate_approx(iv);
  CHECK((approx.hits & ~answer).count() == 0);  // no false certain hits
  CHECK((answer & ~(approx.hits | approx.candidates)).count() == 0);
}

void test_value_indices() {
  const std::vector<double> values = make_values(5000, 99);
  // Bins deliberately narrower than the data range: rows fall outside.
  for (const std::size_t nbins : {1u, 2u, 3u, 7u, 64u}) {
    const Bins bins = make_uniform_bins(0.0, 100.0, nbins);
    const BitmapIndex eq = BitmapIndex::build(values, bins);
    const RangeEncodedIndex range = RangeEncodedIndex::build(values, bins);
    const IntervalEncodedIndex interval = IntervalEncodedIndex::build(values, bins);
    const std::vector<Interval> queries = {
        Interval::greater_than(50.0),  Interval::greater_than(-100.0),
        Interval::greater_than(99.99), Interval::less_than(0.5),
        Interval::at_least(25.0),      Interval::at_most(75.0),
        Interval::between(10.0, 20.0), Interval::between(-5.0, 110.0),
        Interval::between(33.3, 33.4), Interval::greater_than(200.0),
        Interval::between(50.0, 50.0),
    };
    for (const Interval& iv : queries) {
      check_index(eq, values, iv, "equality");
      check_index(range, values, iv, "range");
      check_index(interval, values, iv, "interval");
    }
  }
}

void test_precision_binning_index_only() {
  // An inclusive threshold on a bin edge of a precision-binned index: the
  // candidate set must be empty (index-only answer). The strict form keeps
  // one candidate bin: values exactly equal to the edge must be excluded.
  const std::vector<double> values = make_values(2000, 7);
  const BitmapIndex index =
      BitmapIndex::build(values, make_precision_bins(-10.0, 110.0, 2, 1u << 14));
  const auto inclusive = index.evaluate_approx(Interval::at_least(70.0));
  CHECK_EQ(inclusive.candidates.count(), 0u);
  const auto strict = index.evaluate_approx(Interval::greater_than(70.0));
  CHECK(strict.candidates.count() <= values.size() / 10);  // one bin of twelve
  check_index(index, values, Interval::at_least(70.0), "precision");
  check_index(index, values, Interval::greater_than(70.0), "precision-strict");
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

/// Probe, kIndex and canonical-form answers all equal the scan, bit for
/// bit. Returns whether the probe ORed the complement side.
bool check_union(const io::TimestepTable& table, const std::string& var,
                 const std::vector<Interval>& ivs) {
  const QueryPtr q = union_query(var, ivs);
  const BitVector want = table.query(*q, EvalMode::kScan);
  const BitVector got = table.query(*q, EvalMode::kIndex);
  if (!(got == want)) {
    std::fprintf(stderr, "union probe mismatch on %s: %s (got %llu want %llu)\n",
                 var.c_str(), q->to_string().c_str(),
                 static_cast<unsigned long long>(got.count()),
                 static_cast<unsigned long long>(want.count()));
    ++test::failures;
  }
  CHECK(table.query(*q) == want);
  CHECK(table.query(*core::canonicalize(q), EvalMode::kIndex) == want);
  std::vector<Interval> live;
  for (const Interval& iv : ivs)
    if (!iv.empty()) live.push_back(iv);
  return !live.empty() && table.value_index(var)->pin(live).complement;
}

void test_union_probe_matches_scan() {
  // 520,001 rows: three accumulator windows, and a ragged last group
  // (520,001 = 31 * 16,774 + 7). "r" is in random order with NaN rows and
  // rows outside the binned domain; "s" holds the same kind of values in
  // ascending order, so its bins are long one-fills that cross windows.
  constexpr std::size_t kRows = 520001;
  std::vector<double> r = make_values(kRows, 0x5eed);
  for (std::size_t i = 0; i < kRows; i += 97)
    r[i] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> s = make_values(kRows, 0xbeef);
  std::sort(s.begin(), s.end());
  const std::filesystem::path dir =
      write_table("indices_union", {{"r", r}, {"s", s}}, 0.0, 100.0, 64);
  const io::TimestepTable table(dir, std::make_shared<io::MemoryBudget>(),
                                std::make_shared<io::IntegrityStats>());
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
                                  std::make_shared<io::IntegrityStats>());
    for (const std::string var : {"v", "n"}) {
      check_union(table, var, {Interval::between(10.0, 60.0)});
      check_union(table, var, {Interval::at_most(12.5), Interval::greater_than(15.0)});
      check_union(table, var, {Interval::everything()});
      check_union(table, var, {Interval::greater_than(-kInf)});
    }
  }
}

/// Segment fetches (the budget's kIndexSegment hits plus misses) of one
/// query straight against the table, bypassing the bitvector cache.
std::uint64_t fetches(const io::TimestepTable& table,
                      const io::MemoryBudget& budget, const std::string& text) {
  const auto count = [&] {
    const io::ResidentClassStats c =
        budget.stats().of(io::ResidentClass::kIndexSegment);
    return c.hits + c.misses;
  };
  const std::uint64_t before = count();
  (void)table.query(*core::canonicalize(parse_query(text)));
  return count() - before;
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
  const io::MemoryBudget& budget = *ds.memory_budget();
  const SegmentedBitmapIndex& y = *table.value_index("y");
  CHECK_EQ(y.bins().num_bins(), 1024u);
  const std::uint64_t outside = y.outside_empty() ? 0 : 1;

  // `y > e` with e the edge that opens bin 5: bins 0-4 and the partial bin
  // 5 (the outside segment too, when it has rows) are the whole
  // complement side, and bin 5 is the only candidate. Reading the other
  // ~1,018 full bins instead would be the inside side.
  const std::string above = "y > " + format_double(y.bins().edges()[5]);
  const std::uint64_t first = fetches(table, budget, above);
  CHECK(first <= 8);
  CHECK_EQ(first, 6 + outside);
  CHECK_EQ(fetches(table, budget, above), first);  // repeat runs: same work

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
  CHECK_EQ(fetches(table, budget, gesture), gap);
  CHECK_EQ(fetches(table, budget, gesture), gap);
  CHECK(gap < 64);
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
  return qdv::test::finish("test_indices");
}
