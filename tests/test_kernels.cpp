// Differential tests for the block-oriented execution kernels (DESIGN.md
// Section 10): every kernel is pitted against its scalar reference across
// adversarial shapes — fills crossing the 30-bit fill-counter boundary,
// mixed-length operands, empty/all-ones vectors, selectivities from 1e-5
// to 1.0 — and results must be bit-identical.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <vector>

#include "bitmap/bins.hpp"
#include "bitmap/histogram.hpp"
#include "bitmap/kernels.hpp"
#include "bitmap/simd.hpp"
#include "kernel_refs.hpp"
#include "test_common.hpp"

namespace {

using qdv::Bins;
using qdv::BitVector;
using qdv::Interval;

/// Deterministic xorshift run generator; max_run controls the shape (short
/// runs = literal-heavy, long runs = fill-heavy).
BitVector make_runs(std::uint64_t nbits, std::uint64_t seed, std::uint64_t max_run) {
  BitVector v;
  std::uint64_t state = seed;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  bool value = next() & 1;
  std::uint64_t pos = 0;
  while (pos < nbits) {
    const std::uint64_t run = std::min(nbits - pos, 1 + next() % max_run);
    v.append_run(value, run);
    value = !value;
    pos += run;
  }
  return v;
}

/// Sparse vector at the given selectivity (fraction of set bits).
BitVector make_sparse(std::uint64_t nbits, double selectivity, std::uint64_t seed) {
  BitVector v;
  std::uint64_t state = seed | 1;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const auto threshold =
      static_cast<std::uint64_t>(selectivity * 18446744073709551615.0);
  for (std::uint64_t i = 0; i < nbits; ++i) v.append_bit(next() <= threshold);
  return v;
}

/// Scalar reference: positions via the element-at-a-time for_each_set.
std::vector<std::uint64_t> ref_positions(const BitVector& v) {
  std::vector<std::uint64_t> out;
  v.for_each_set([&](std::uint64_t pos) { out.push_back(pos); });
  return out;
}

/// One- and zero-fills alternating with runs of exactly @p literal_groups
/// mixed literal groups: odd and even run lengths reach the fused-pair loop
/// of for_each_set_blocked both with and without a leftover single group.
BitVector fills_between_literals(std::size_t literal_groups, std::uint64_t seed) {
  BitVector v;
  std::uint64_t state = seed;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int rep = 0; rep < 4; ++rep) {
    v.append_run(rep % 2 == 0, 31 * 40);
    for (std::size_t b = 0; b < literal_groups * 31; ++b) v.append_bit(next() & 1);
  }
  v.append_run(true, 17);  // partial tail group
  return v;
}

/// The adversarial shape zoo shared by the walk and OR tests.
std::vector<BitVector> shape_zoo() {
  std::vector<BitVector> shapes;
  shapes.emplace_back();                        // empty
  shapes.push_back(BitVector::zeros(1));        // single zero
  shapes.push_back(BitVector::ones(1));         // single one
  shapes.push_back(BitVector::zeros(100000));   // long zero fill
  shapes.push_back(BitVector::ones(100000));    // long one fill
  shapes.push_back(make_runs(31, 7, 5));        // exactly one group
  shapes.push_back(make_runs(62, 11, 9));       // exactly two groups
  shapes.push_back(make_runs(63, 13, 64));      // tail of 1 bit
  shapes.push_back(make_runs(12345, 17, 3));    // literal-heavy, odd tail
  shapes.push_back(make_runs(50000, 19, 4000)); // fill/literal interleave
  shapes.push_back(make_sparse(40000, 1e-5, 23));
  shapes.push_back(make_sparse(40000, 1e-3, 29));
  shapes.push_back(make_sparse(40000, 0.1, 31));
  shapes.push_back(make_sparse(40000, 0.5, 37));
  shapes.push_back(make_sparse(40000, 1.0, 41));
  // Long literal runs: just below / at / above 16384 bits of consecutive
  // literals (256 64-bit words).
  shapes.push_back(make_runs(16383, 43, 2));
  shapes.push_back(make_runs(16384, 47, 2));
  shapes.push_back(make_runs(16384 + 65, 53, 2));
  // Fills of 33 groups (1023 bits) and one bit shorter, off group alignment.
  {
    BitVector v = make_runs(310, 59, 2);
    v.append_run(true, 1023);
    v.append_run(false, 1022);
    v.append_run(true, 17);
    shapes.push_back(std::move(v));
  }
  for (std::size_t groups = 1; groups <= 3; ++groups)
    shapes.push_back(fills_between_literals(groups, 61 + groups));
  return shapes;
}

void test_blocked_matches_for_each_set() {
  for (const BitVector& v : shape_zoo()) {
    const std::vector<std::uint64_t> expect = ref_positions(v);
    std::vector<std::uint64_t> got;
    qdv::kern::for_each_set_blocked(v, [&](std::uint64_t pos) {
      got.push_back(pos);
    });
    CHECK(got == expect);
    CHECK_EQ(v.count(), expect.size());
    // to_positions rides the same walk.
    const std::vector<std::uint32_t> pos32 = v.to_positions();
    CHECK_EQ(pos32.size(), expect.size());
    for (std::size_t i = 0; i < pos32.size(); ++i)
      CHECK_EQ(static_cast<std::uint64_t>(pos32[i]), expect[i]);
  }
}

void test_blocked_windows() {
  for (const BitVector& v : shape_zoo()) {
    const std::vector<std::uint64_t> all = ref_positions(v);
    const std::uint64_t n = v.size();
    const std::uint64_t windows[][2] = {
        {0, n},           {0, n / 2},       {n / 2, n},     {n / 3, 2 * n / 3},
        {0, 0},           {n, n},           {1, 2},         {31, 62},
        {30, 33},         {n > 5 ? n - 5 : 0, n},           {7, 8},
        // Inside the first / second group of a fused pair, and past fills.
        {35, 118},        {5, 40},          {n / 2 + 17, n > 40 ? n - 40 : n},
    };
    for (const auto& w : windows) {
      const std::uint64_t begin = w[0], end = w[1];
      std::vector<std::uint64_t> expect;
      for (const std::uint64_t p : all)
        if (p >= begin && p < end) expect.push_back(p);
      std::vector<std::uint64_t> got;
      qdv::kern::for_each_set_blocked(v, begin, end, [&](std::uint64_t pos) {
        got.push_back(pos);
      });
      CHECK(got == expect);
    }
  }
}

void test_giant_fills_cross_counter_boundary() {
  // A fill longer than the 30-bit group counter (kCountMask groups) must be
  // split across words; the kernels must still see one logical run.
  constexpr std::uint64_t kCounterGroups = 0x3FFFFFFFull;
  constexpr std::uint64_t kGiant = kCounterGroups * 31 + 200;  // crosses it
  {
    BitVector v;
    v.append_run(false, kGiant);
    v.append_run(true, 95);
    v.append_run(false, 40);
    CHECK_EQ(v.count(), 95u);
    std::uint64_t seen = 0, first = 0;
    qdv::kern::for_each_set_blocked(v, [&](std::uint64_t pos) {
      if (seen == 0) first = pos;
      ++seen;
    });
    CHECK_EQ(seen, 95u);
    CHECK_EQ(first, kGiant);
    // Windowed decode deep inside the giant fill.
    std::uint64_t in_window = 0;
    qdv::kern::for_each_set_blocked(v, kGiant - 10, kGiant + 5,
                                    [&](std::uint64_t) { ++in_window; });
    CHECK_EQ(in_window, 5u);
  }
  {
    BitVector v;
    v.append_run(true, kGiant);
    CHECK_EQ(v.count(), kGiant);
    // The walk reports the fill as row ranges — at most one per fill word —
    // and only the 14-bit active tail as a literal group: iterating bits
    // would take forever.
    std::uint64_t ones = 0;
    std::size_t ones_calls = 0, group_calls = 0;
    qdv::kern::walk_content<true>(
        v, 0, v.size(),
        [&](std::uint64_t lo, std::uint64_t hi) {
          ++ones_calls;
          ones += hi - lo;
        },
        [&](const std::uint32_t* groups, std::size_t ng, std::uint64_t) {
          ++group_calls;
          CHECK_EQ(ng, 1u);
          ones += static_cast<std::uint64_t>(std::popcount(groups[0]));
        });
    CHECK_EQ(ones, kGiant);
    CHECK(ones_calls <= 2);
    CHECK_EQ(group_calls, 1u);
  }
}

/// The interval probe against the pairwise reference: its OR side (plain
/// and inverted) is the OR of its operands, and each candidate row joins
/// exactly when its value lies in one of the intervals. Operands of mixed
/// lengths and shapes, plus row counts past one accumulator window with
/// fills crossing the window edge.
void test_probe_intervals_vs_reference() {
  const std::vector<BitVector> shapes = shape_zoo();
  std::vector<std::vector<const BitVector*>> sets;
  const std::size_t picks[][5] = {
      {3, 4, 0, 2, 9}, {10, 11, 12, 13, 14}, {1, 5, 6, 7, 8},
      {9, 15, 16, 17, 18}, {19, 20, 21, 18, 12},
  };
  for (const auto& pick : picks) {
    std::vector<const BitVector*> ops;
    for (const std::size_t i : pick) ops.push_back(&shapes[i]);
    sets.push_back(std::move(ops));
  }
  std::vector<BitVector> big;
  big.push_back(make_sparse(600000, 0.01, 71));
  big.push_back(make_sparse(600000, 0.3, 73));
  {
    BitVector v;  // one-fill across the 253,952-row window edge
    v.append_run(false, 250000);
    v.append_run(true, 10000);
    v.append_run(false, 1);
    v.append_run(true, 300001);
    big.push_back(std::move(v));
  }
  big.push_back(BitVector::ones(600000));
  sets.push_back({&big[0], &big[1], &big[2], &big[3]});
  sets.push_back({&big[2], &big[0], &big[1]});

  const std::vector<Interval> ivs = {Interval::between(10.0, 20.0),
                                     Interval{50.0, 60.0, true, false}};
  for (const std::vector<const BitVector*>& ops : sets) {
    std::uint64_t longest = 0;
    for (const BitVector* v : ops) longest = std::max(longest, v->size());
    for (const std::uint64_t nbits : {longest, longest + 777}) {
      std::vector<double> values(nbits);
      for (std::uint64_t r = 0; r < nbits; ++r) values[r] = double(r % 97);
      // The whole set as the OR side, plain and inverted.
      std::vector<qdv::kern::WahView> views;
      for (const BitVector* v : ops) views.emplace_back(*v);
      const BitVector all = qdv::kern::ref::or_many_pairwise(ops, nbits);
      CHECK(qdv::kern::probe_intervals(views, false, {}, ivs, {}, nbits) == all);
      CHECK(qdv::kern::probe_intervals(views, true, {}, ivs, {}, nbits) == ~all);
      // The first two as the OR side, the rest as candidates.
      const std::span<const qdv::kern::WahView> or_side(views.data(), 2);
      const std::span<const qdv::kern::WahView> cands(views.data() + 2,
                                                      views.size() - 2);
      std::vector<std::uint32_t> rows;
      for (std::size_t i = 2; i < ops.size(); ++i)
        ops[i]->for_each_set([&](std::uint64_t r) {
          if (r < nbits && (ivs[0].contains(values[r]) || ivs[1].contains(values[r])))
            rows.push_back(static_cast<std::uint32_t>(r));
        });
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
      const BitVector survivors = BitVector::from_positions(rows, nbits);
      const BitVector base = qdv::kern::ref::or_many_pairwise(
          std::span<const BitVector* const>(ops.data(), 2), nbits);
      CHECK(qdv::kern::probe_intervals(or_side, false, cands, ivs, values,
                                       nbits) == (base | survivors));
      CHECK(qdv::kern::probe_intervals(or_side, true, cands, ivs, values,
                                       nbits) == (~base | survivors));
    }
  }
  // Nothing to read: all zeros, or all ones for an empty complement side.
  CHECK(qdv::kern::probe_intervals({}, false, {}, ivs, {}, 100) ==
        BitVector::zeros(100));
  CHECK(qdv::kern::probe_intervals({}, true, {}, ivs, {}, 100) ==
        BitVector::ones(100));
}

void test_locator_matches_locate() {
  std::uint64_t state = 99;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<Bins> bin_sets;
  bin_sets.push_back(qdv::make_uniform_bins(-3.5, 12.25, 64));
  bin_sets.push_back(qdv::make_uniform_bins(0.0, 1.0, 1024));
  bin_sets.push_back(qdv::make_precision_bins(-1.0, 1.0, 2, 4096));
  {
    std::vector<double> values;
    for (int i = 0; i < 5000; ++i)
      values.push_back(std::pow(static_cast<double>(next() % 1000) / 100.0, 2.0));
    bin_sets.push_back(qdv::make_quantile_bins(values, 32));  // non-uniform
    // NaN rows must not shape quantile edges (they can never land in a
    // bin): edges built from a NaN-polluted copy match the clean ones.
    std::vector<double> polluted = values;
    for (std::size_t i = 0; i < polluted.size(); i += 97)
      polluted[i] = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> clean;
    for (std::size_t i = 0; i < values.size(); ++i)
      if (i % 97 != 0) clean.push_back(values[i]);
    CHECK(qdv::make_quantile_bins(polluted, 32) ==
          qdv::make_quantile_bins(clean, 32));
  }
  for (const Bins& bins : bin_sets) {
    const Bins::Locator locator = bins.locator();
    std::vector<double> probes;
    for (const double e : bins.edges()) {
      probes.push_back(e);
      probes.push_back(std::nextafter(e, -1e300));
      probes.push_back(std::nextafter(e, 1e300));
    }
    probes.push_back(bins.lo() - 1.0);
    probes.push_back(bins.hi() + 1.0);
    probes.push_back(std::numeric_limits<double>::quiet_NaN());
    probes.push_back(std::numeric_limits<double>::infinity());
    probes.push_back(-std::numeric_limits<double>::infinity());
    const double span = bins.hi() - bins.lo();
    for (int i = 0; i < 10000; ++i)
      probes.push_back(bins.lo() +
                       span * (static_cast<double>(next() % 1000003) / 1000003.0));
    for (const double v : probes) CHECK_EQ(locator(v), bins.locate(v));
  }
}

void test_gather_hist_nan_rows() {
  // NaN/±inf rows in the value columns: the block-gather kernels, the
  // sharded tally, and the scalar locate reference must agree exactly —
  // NaN never lands in a bin, ±inf only when the bin range reaches it.
  constexpr std::uint64_t kRows = 20011;
  std::uint64_t state = 1234;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<double> xs(kRows), ys(kRows);
  for (std::uint64_t i = 0; i < kRows; ++i) {
    xs[i] = static_cast<double>(next() % 2000) / 10.0 - 50.0;
    ys[i] = static_cast<double>(next() % 997) / 100.0;
    switch (next() % 23) {
      case 0: xs[i] = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: xs[i] = std::numeric_limits<double>::infinity(); break;
      case 2: xs[i] = -std::numeric_limits<double>::infinity(); break;
      case 3: ys[i] = std::numeric_limits<double>::quiet_NaN(); break;
      default: break;
    }
  }
  const Bins xbins = qdv::make_uniform_bins(-50.0, 150.0, 48);
  std::vector<double> quantile_input(ys.begin(), ys.begin() + 5000);
  const Bins ybins = qdv::make_quantile_bins(quantile_input, 16);  // non-uniform
  const Bins::Locator xloc = xbins.locator();
  const Bins::Locator yloc = ybins.locator();

  for (const BitVector& rows :
       {make_sparse(kRows, 0.3, 5), make_sparse(kRows, 1e-3, 9),
        BitVector::ones(kRows), make_runs(kRows, 77, 3000)}) {
    // Scalar reference: element-at-a-time decode + Bins::locate.
    std::vector<std::uint64_t> ref1(xbins.num_bins(), 0);
    std::vector<std::uint64_t> ref2(xbins.num_bins() * ybins.num_bins(), 0);
    rows.for_each_set([&](std::uint64_t row) {
      const std::ptrdiff_t bx = xbins.locate(xs[row]);
      const std::ptrdiff_t by = ybins.locate(ys[row]);
      if (bx >= 0) ++ref1[static_cast<std::size_t>(bx)];
      if (bx >= 0 && by >= 0)
        ++ref2[static_cast<std::size_t>(bx) * ybins.num_bins() +
               static_cast<std::size_t>(by)];
    });
    std::uint64_t nan_dropped = 0;
    rows.for_each_set([&](std::uint64_t row) {
      if (std::isnan(xs[row])) ++nan_dropped;
    });
    if (rows.count() > 1000) CHECK(nan_dropped > 0);  // fixtures bite
    // Whole-vector gather (covers the sparse scalar-decode fallback too).
    std::vector<std::uint64_t> got1(ref1.size(), 0);
    qdv::kern::gather_hist1d(rows, 0, kRows, xs.data(), xloc, got1.data());
    CHECK(got1 == ref1);
    std::vector<std::uint64_t> got2(ref2.size(), 0);
    qdv::kern::gather_hist2d(rows, 0, kRows, xs.data(), ys.data(), xloc, yloc,
                             ybins.num_bins(), got2.data());
    CHECK(got2 == ref2);
    // Sharded path: per-shard windows, merged partials.
    for (const std::size_t nshards : {2u, 7u}) {
      std::vector<std::uint64_t> sharded(ref1.size(), 0);
      qdv::kern::sharded_tally(
          kRows, sharded.size(), sharded.data(),
          [&](std::uint64_t begin, std::uint64_t end, std::uint64_t* counts) {
            qdv::kern::gather_hist1d(rows, begin, end, xs.data(), xloc, counts);
          },
          nshards);
      CHECK(sharded == ref1);
    }
  }
}

void test_sharded_tally_matches_direct() {
  // Synthetic per-row tally: bucket = row % ncounts, weighted by a second
  // pass over a bitvector gather to exercise the windowed cursor per shard.
  constexpr std::uint64_t kRows = 100003;
  constexpr std::size_t kCounts = 97;
  const BitVector rows = make_sparse(kRows, 0.2, 4242);
  std::vector<std::uint64_t> direct(kCounts, 0);
  rows.for_each_set([&](std::uint64_t row) { ++direct[row % kCounts]; });
  for (const std::size_t nshards : {1u, 2u, 3u, 8u, 31u}) {
    std::vector<std::uint64_t> sharded(kCounts, 0);
    qdv::kern::sharded_tally(
        kRows, kCounts, sharded.data(),
        [&](std::uint64_t begin, std::uint64_t end, std::uint64_t* counts) {
          qdv::kern::for_each_set_blocked(rows, begin, end, [&](std::uint64_t r) {
            ++counts[r % kCounts];
          });
        },
        nshards);
    CHECK(sharded == direct);
  }
  // The auto-sharding overload must agree too.
  std::vector<std::uint64_t> autos(kCounts, 0);
  qdv::kern::sharded_tally(
      kRows, rows.count(), kCounts, autos.data(),
      [&](std::uint64_t begin, std::uint64_t end, std::uint64_t* counts) {
        qdv::kern::for_each_set_blocked(rows, begin, end, [&](std::uint64_t r) {
          ++counts[r % kCounts];
        });
      });
  CHECK(autos == direct);
}

void test_gather_tally_shards_by_set_rows() {
  // The shard gate weighs a gather by its set rows, not the table's: on a
  // table big enough to shard, a selection under eight rows per bin stays
  // on one shard, while a dense one fans out. The gather kernel counts its
  // dispatch once per shard.
  constexpr std::uint64_t kRows = std::uint64_t{1} << 17;
  const std::vector<double> xs(kRows, 0.5);
  const Bins bins = qdv::make_uniform_bins(0.0, 1.0, 64);
  const BitVector sparse = make_sparse(kRows, 0.001, 5);
  const BitVector dense = make_sparse(kRows, 0.5, 6);
  CHECK(sparse.count() > 0 && sparse.count() < 8 * 64);
  for (const BitVector* rows : {&sparse, &dense}) {
    qdv::simd::reset_dispatch_counts();
    const qdv::Histogram1D h = qdv::tally1d(xs, bins, rows);
    const qdv::simd::DispatchCounts counts = qdv::simd::dispatch_counts();
    const std::uint64_t shards = counts.hist1d.scalar + counts.hist1d.vector;
    CHECK_EQ(h.total(), rows->count());
    CHECK(rows == &sparse ? shards == 1 : shards > 1);
  }
}

// ------------------------------------------------------------------------
// SIMD dispatch layer: every compiled-and-supported ISA level must be
// bit-identical to the scalar level on adversarial fixtures.
// ------------------------------------------------------------------------

namespace simd = qdv::simd;

std::vector<simd::Isa> supported_levels() {
  std::vector<simd::Isa> levels = {simd::Isa::kScalar};
  if (simd::supported(simd::Isa::kAvx2)) levels.push_back(simd::Isa::kAvx2);
  if (simd::supported(simd::Isa::kAvx512)) levels.push_back(simd::Isa::kAvx512);
  return levels;
}

void test_simd_force_env_override() {
  // Must run before anything calls simd::force(): the ctest variants run
  // this binary under QDV_FORCE_ISA=<level>, and the first active() call
  // has to resolve to that level clamped to what the host supports.
  simd::Isa expect =
      simd::parse_isa(std::getenv("QDV_FORCE_ISA"), simd::best_supported());
  while (expect != simd::Isa::kScalar && !simd::supported(expect))
    expect = static_cast<simd::Isa>(static_cast<int>(expect) - 1);
  CHECK_EQ(static_cast<int>(simd::active()), static_cast<int>(expect));
  CHECK_EQ(static_cast<int>(simd::ops().isa), static_cast<int>(expect));
  CHECK(simd::supported(simd::active()));
}

void test_simd_position_kernels_differential() {
  const simd::Ops& scalar = simd::ops_for(simd::Isa::kScalar);
  std::uint64_t state = 777;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  // Group fixtures: bit 31 set on some words must be ignored (fill flag
  // position is not payload).
  std::vector<std::vector<std::uint32_t>> group_sets;
  group_sets.push_back({});
  group_sets.push_back({0});
  group_sets.push_back({0x7FFFFFFFu});
  group_sets.push_back({0xFFFFFFFFu, 0x80000001u, 0x40000000u});
  {
    std::vector<std::uint32_t> random;
    for (int i = 0; i < 301; ++i)
      random.push_back(static_cast<std::uint32_t>(next()));
    group_sets.push_back(std::move(random));
  }
  const std::uint64_t bases[] = {0, 31, 64, 1000003};  // unaligned starts
  for (const simd::Isa level : supported_levels()) {
    const simd::Ops& ops = simd::ops_for(level);
    for (const auto& groups : group_sets) {
      for (const std::uint64_t base : bases) {
        std::vector<std::uint32_t> a(groups.size() * 31 + simd::kPositionSlack);
        std::vector<std::uint32_t> b(a.size());
        const std::size_t na = scalar.positions_from_groups(
            groups.data(), groups.size(), base, a.data());
        const std::size_t nb =
            ops.positions_from_groups(groups.data(), groups.size(), base, b.data());
        CHECK_EQ(na, nb);
        for (std::size_t i = 0; i < na; ++i) CHECK_EQ(a[i], b[i]);
      }
    }
  }
}

void test_simd_hist_kernels_differential() {
  constexpr std::size_t kN = 4099;  // ragged vs every vector width
  std::uint64_t state = 31337;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const Bins ubins = qdv::make_uniform_bins(-10.0, 10.0, 37);
  std::vector<double> sample;
  for (int i = 0; i < 3000; ++i)
    sample.push_back(std::pow(static_cast<double>(next() % 997) / 100.0, 1.5));
  const Bins qbins = qdv::make_quantile_bins(sample, 21);  // non-uniform
  for (const Bins* bins : {&ubins, &qbins}) {
    const Bins::Locator loc = bins->locator();
    const simd::LocatorView view = loc.view();
    // Values: randoms spanning past the bin range, exact edges and one-ulp
    // neighbours, NaN and ±inf sprinkled in.
    std::vector<double> xs(kN), ys(kN);
    const double lo = bins->lo(), hi = bins->hi();
    for (std::size_t i = 0; i < kN; ++i) {
      xs[i] = lo + (hi - lo) * 1.2 *
                  (static_cast<double>(next() % 1000003) / 1000003.0) -
              0.1 * (hi - lo);
      ys[i] = lo + (hi - lo) * (static_cast<double>(next() % 997) / 997.0);
      const std::uint64_t r = next() % 29;
      if (r < bins->edges().size())
        xs[i] = bins->edges()[r];
      else if (r == 24)
        xs[i] = std::numeric_limits<double>::quiet_NaN();
      else if (r == 25)
        xs[i] = std::numeric_limits<double>::infinity();
      else if (r == 26)
        xs[i] = -std::numeric_limits<double>::infinity();
      else if (r == 27)
        xs[i] = std::nextafter(bins->edges()[next() % bins->edges().size()],
                               -1e300);
      else if (r == 28)
        xs[i] = std::nextafter(bins->edges()[next() % bins->edges().size()],
                               1e300);
      if (next() % 31 == 0) ys[i] = std::numeric_limits<double>::quiet_NaN();
    }
    // Row sets: ragged lengths (vs 4/8/16-lane widths), unaligned starts,
    // and strided/duplicate-free shuffles.
    std::vector<std::uint32_t> all_rows(kN);
    for (std::size_t i = 0; i < kN; ++i)
      all_rows[i] = static_cast<std::uint32_t>(i);
    const std::size_t lengths[] = {0, 1, 3, 7, 8, 15, 16, 17, 33, 1023, kN};
    const std::size_t offsets[] = {0, 1, 5};
    const std::size_t ny = bins->num_bins();
    const simd::Ops& scalar = simd::ops_for(simd::Isa::kScalar);
    for (const simd::Isa level : supported_levels()) {
      const simd::Ops& ops = simd::ops_for(level);
      for (const std::size_t len : lengths) {
        for (const std::size_t off : offsets) {
          if (off + len > kN) continue;
          const std::uint32_t* rows = all_rows.data() + off;
          std::vector<std::uint64_t> a(ny, 0), b(ny, 0);
          scalar.hist1d_rows(rows, len, xs.data(), view, a.data());
          ops.hist1d_rows(rows, len, xs.data(), view, b.data());
          CHECK(a == b);
          std::vector<std::uint64_t> a2(ny * ny, 0), b2(ny * ny, 0);
          scalar.hist2d_rows(rows, len, xs.data(), ys.data(), view, view, ny,
                             a2.data());
          ops.hist2d_rows(rows, len, xs.data(), ys.data(), view, view, ny,
                          b2.data());
          CHECK(a2 == b2);
          std::vector<std::uint64_t> a3(ny, 0), b3(ny, 0);
          scalar.hist1d_dense(xs.data() + off, len, view, a3.data());
          ops.hist1d_dense(xs.data() + off, len, view, b3.data());
          CHECK(a3 == b3);
          std::vector<std::uint64_t> a4(ny * ny, 0), b4(ny * ny, 0);
          scalar.hist2d_dense(xs.data() + off, ys.data() + off, len, view,
                              view, ny, a4.data());
          ops.hist2d_dense(xs.data() + off, ys.data() + off, len, view, view,
                           ny, b4.data());
          CHECK(a4 == b4);
        }
      }
    }
  }
}

void test_simd_forced_levels_end_to_end() {
  // Force each supported level in turn and re-run the public kernels over
  // the shape zoo: to_positions, gather_hist1d/2d (whole-vector and
  // windowed) must be bit-identical across levels.
  const simd::Isa initial = simd::active();
  constexpr std::uint64_t kRows = 40000;
  std::uint64_t state = 4242;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<double> xs(kRows), ys(kRows);
  for (std::uint64_t i = 0; i < kRows; ++i) {
    xs[i] = static_cast<double>(next() % 4000) / 10.0 - 100.0;
    ys[i] = static_cast<double>(next() % 1009) / 50.0;
    if (next() % 41 == 0) xs[i] = std::numeric_limits<double>::quiet_NaN();
    if (next() % 43 == 0) ys[i] = std::numeric_limits<double>::infinity();
  }
  const Bins xbins = qdv::make_uniform_bins(-100.0, 300.0, 64);
  std::vector<double> sample(ys.begin(), ys.begin() + 4000);
  const Bins ybins = qdv::make_quantile_bins(sample, 24);
  const Bins::Locator xloc = xbins.locator();
  const Bins::Locator yloc = ybins.locator();
  const std::uint64_t windows[][2] = {
      {0, kRows}, {0, kRows / 2}, {kRows / 3, 2 * kRows / 3}, {31, 12345}};
  for (const BitVector& v : shape_zoo()) {
    // Per-shape scalar baselines, then each vector level against them.
    simd::force(simd::Isa::kScalar);
    const std::vector<std::uint32_t> base_pos = v.to_positions();
    std::vector<std::vector<std::uint64_t>> base1, base2;
    const std::uint64_t n = std::min<std::uint64_t>(v.size(), kRows);
    for (const auto& w : windows) {
      std::vector<std::uint64_t> h1(xbins.num_bins(), 0);
      std::vector<std::uint64_t> h2(xbins.num_bins() * ybins.num_bins(), 0);
      qdv::kern::gather_hist1d(v, std::min(w[0], n), std::min(w[1], n),
                               xs.data(), xloc, h1.data());
      qdv::kern::gather_hist2d(v, std::min(w[0], n), std::min(w[1], n),
                               xs.data(), ys.data(), xloc, yloc,
                               ybins.num_bins(), h2.data());
      base1.push_back(std::move(h1));
      base2.push_back(std::move(h2));
    }
    for (const simd::Isa level : supported_levels()) {
      CHECK_EQ(static_cast<int>(simd::force(level)), static_cast<int>(level));
      CHECK(v.to_positions() == base_pos);
      for (std::size_t wi = 0; wi < std::size(windows); ++wi) {
        std::vector<std::uint64_t> h1(xbins.num_bins(), 0);
        std::vector<std::uint64_t> h2(xbins.num_bins() * ybins.num_bins(), 0);
        qdv::kern::gather_hist1d(v, std::min(windows[wi][0], n),
                                 std::min(windows[wi][1], n), xs.data(), xloc,
                                 h1.data());
        qdv::kern::gather_hist2d(v, std::min(windows[wi][0], n),
                                 std::min(windows[wi][1], n), xs.data(),
                                 ys.data(), xloc, yloc, ybins.num_bins(),
                                 h2.data());
        CHECK(h1 == base1[wi]);
        CHECK(h2 == base2[wi]);
      }
    }
  }
  // Dispatch counters: forced-scalar runs count as scalar, vector levels as
  // vector.
  simd::reset_dispatch_counts();
  simd::force(simd::Isa::kScalar);
  BitVector probe = make_sparse(5000, 0.2, 7);
  (void)probe.to_positions();
  CHECK(simd::dispatch_counts().positions.scalar > 0);
  CHECK_EQ(simd::dispatch_counts().positions.vector, 0u);
  const simd::Isa best = simd::best_supported();
  if (best != simd::Isa::kScalar) {
    simd::force(best);
    (void)probe.to_positions();
    CHECK(simd::dispatch_counts().positions.vector > 0);
  }
  simd::force(initial);
}

/// The interval scan at every level against the row-at-a-time reference:
/// NaN values and NaN bounds, infinite values and bounds, open and closed
/// ends, and unions of 1-3 overlapping, adjacent or empty intervals, over
/// row counts around the 31-row group and the 64-row word, and a ragged
/// 520,001-row column that spans three accumulator windows.
void test_simd_scan_intervals_differential() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t state = 4242;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const auto column = [&](std::size_t n) {
    const double specials[] = {nan, kInf, -kInf, 0.0, -0.0, 5.0, 10.0, 2.5};
    std::vector<double> v(n);
    for (double& x : v)
      x = next() % 5 == 0 ? specials[next() % 8]
                          : static_cast<double>(next() % 2400) / 100.0 - 2.0;
    return v;
  };
  const std::vector<std::vector<Interval>> unions = {
      {Interval::between(5.0, 10.0)},
      {Interval{5.0, 10.0, true, false}},
      {Interval{5.0, 5.0, false, false}},                 // one point
      {Interval{5.0, 5.0, true, true}},                   // empty
      {Interval::less_than(3.0)},
      {Interval::at_least(15.0)},
      {Interval::everything()},                           // finite values
      {Interval{-kInf, kInf, false, false}},              // and the infinities
      {Interval{kInf, kInf, false, false}},
      {Interval{nan, 10.0, false, false}},                // NaN bounds
      {Interval{0.0, nan, false, true}},
      {Interval::between(2.0, 8.0), Interval{5.0, 12.0, false, false}},
      {Interval::between(2.0, 5.0), Interval{5.0, 9.0, false, false}},
      {Interval::at_most(0.0), Interval::greater_than(0.0)},
      {Interval::between(2.0, 5.0), Interval{7.0, 7.0, true, true},
       Interval{9.0, 9.0, false, false}},
      {Interval::less_than(-1.0), Interval::between(4.0, 6.0),
       Interval{20.0, kInf, true, false}},
  };
  std::vector<std::vector<double>> columns;
  for (const std::size_t n : {0u, 1u, 30u, 31u, 32u, 63u, 64u, 65u, 520001u})
    columns.push_back(column(n));
  const simd::Isa initial = simd::active();
  for (const std::vector<double>& values : columns) {
    for (const std::vector<Interval>& ivs : unions) {
      const BitVector want = qdv::kern::ref::scan_intervals_rows(values, ivs);
      for (const simd::Isa level : supported_levels()) {
        simd::force(level);
        const BitVector got = qdv::kern::scan_intervals(values, ivs);
        if (!(got == want)) {
          std::fprintf(stderr, "scan_intervals mismatch: isa=%s rows=%zu\n",
                       simd::isa_name(level), values.size());
          ++qdv::test::failures;
        }
      }
    }
  }
  simd::force(initial);
}

void test_avx2_hist_counters_follow_the_route() {
  // The histogram dispatch counters record whether any vector kernel ran.
  // The AVX2 table keeps the scalar hist1d bodies, so an AVX2 hist1d gather
  // that runs only the dense kernel (an all-ones selection of whole groups)
  // counts as scalar, and one that extracts a dense random selection with
  // the AVX2 position kernel counts as vector. hist2d keeps its AVX2
  // kernels and counts as vector either way.
  if (!simd::supported(simd::Isa::kAvx2)) return;
  const simd::Isa initial = simd::active();
  simd::force(simd::Isa::kAvx2);
  constexpr std::uint64_t kRows = 31 * 160;
  const std::vector<double> xs(kRows, 0.5);
  const Bins bins = qdv::make_uniform_bins(0.0, 1.0, 16);
  const Bins::Locator loc = bins.locator();
  const BitVector all = BitVector::ones(kRows);
  const BitVector dense = make_sparse(kRows, 0.5, 11);
  for (const BitVector* sel : {&all, &dense}) {
    const bool extracts = sel == &dense;
    std::vector<std::uint64_t> h1(16, 0), h2(16 * 16, 0);
    simd::reset_dispatch_counts();
    qdv::kern::gather_hist1d(*sel, 0, kRows, xs.data(), loc, h1.data());
    qdv::kern::gather_hist2d(*sel, 0, kRows, xs.data(), xs.data(), loc, loc,
                             16, h2.data());
    const simd::DispatchCounts counts = simd::dispatch_counts();
    CHECK_EQ(counts.hist1d.scalar, extracts ? 0u : 1u);
    CHECK_EQ(counts.hist1d.vector, extracts ? 1u : 0u);
    CHECK_EQ(counts.hist2d.scalar, 0u);
    CHECK_EQ(counts.hist2d.vector, 1u);
    CHECK_EQ(h1[8], sel->count());
    CHECK_EQ(h2[8 * 16 + 8], sel->count());
  }
  simd::force(initial);
}

}  // namespace

int main() {
  test_simd_force_env_override();
  test_blocked_matches_for_each_set();
  test_blocked_windows();
  test_giant_fills_cross_counter_boundary();
  test_probe_intervals_vs_reference();
  test_locator_matches_locate();
  test_gather_hist_nan_rows();
  test_sharded_tally_matches_direct();
  test_gather_tally_shards_by_set_rows();
  test_simd_position_kernels_differential();
  test_simd_hist_kernels_differential();
  test_simd_forced_levels_end_to_end();
  test_avx2_hist_counters_follow_the_route();
  test_simd_scan_intervals_differential();
  return qdv::test::finish("test_kernels");
}
