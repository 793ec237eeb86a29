// Histogram pyramids (agg::Pyramid, DESIGN.md §14): every pyramid-served
// count must equal the exact kernel path bit for bit. The suite checks the
// refinement invariants (parent == sum of children, root == unconditioned
// total), differential slices at every level over uniform and non-uniform
// leaf bins, NaN/±inf handling through build and save/open round-trips,
// empty selections, boundary-straddling viewports, and the dataset-level
// kAuto-vs-kExact twin contract including planner visibility.
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <vector>

#include "agg/pyramid.hpp"
#include "core/engine.hpp"
#include "core/selection.hpp"
#include "io/dataset.hpp"
#include "sim/wakefield.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;

// Deterministic xorshift values in [lo, hi), with a sprinkling of NaN and
// ±inf when poison is set (the build must drop them, like the kernels do).
std::vector<double> make_values(std::size_t n, double lo, double hi,
                                bool poison, std::uint64_t seed) {
  std::vector<double> v;
  v.reserve(n);
  std::uint64_t s = seed * 6364136223846793005ull + 1442695040888963407ull;
  const auto next = [&] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (poison && next() % 17 == 0) {
      switch (next() % 3) {
        case 0: v.push_back(std::numeric_limits<double>::quiet_NaN()); break;
        case 1: v.push_back(std::numeric_limits<double>::infinity()); break;
        default: v.push_back(-std::numeric_limits<double>::infinity()); break;
      }
      continue;
    }
    // Overshoot the domain a little so some finite values are dropped too.
    const double f = static_cast<double>(next() % 10000) / 10000.0;
    v.push_back(lo - 0.1 * (hi - lo) + 1.2 * (hi - lo) * f);
  }
  return v;
}

// Scalar reference: tally with Bins::locate semantics (the differential
// baseline every histogram kernel is tested against).
std::vector<std::uint64_t> leaf_tally(const std::vector<double>& values,
                                      const Bins& leaf) {
  std::vector<std::uint64_t> counts(leaf.num_bins(), 0);
  for (double v : values) {
    const std::ptrdiff_t bin = leaf.locate(v);
    if (bin >= 0) ++counts[static_cast<std::size_t>(bin)];
  }
  return counts;
}

// Aggregate a leaf tally up to `level` by summing sibling groups.
std::vector<std::uint64_t> coarsen(const std::vector<std::uint64_t>& leaf,
                                   std::size_t leaf_log2, std::size_t level) {
  const std::size_t group = std::size_t{1} << (leaf_log2 - level);
  std::vector<std::uint64_t> out(std::size_t{1} << level, 0);
  for (std::size_t i = 0; i < leaf.size(); ++i) out[i / group] += leaf[i];
  return out;
}

void check_pyramid1d(const agg::Pyramid& pyr, const std::vector<double>& values,
                     const Bins& leaf) {
  const std::size_t L = pyr.leaf_log2();
  const std::vector<std::uint64_t> ref = leaf_tally(values, leaf);
  std::uint64_t total = 0;
  for (std::uint64_t c : ref) total += c;

  // Root == unconditioned in-domain total; every level == coarsened leaf
  // tally; parent == sum of its two children.
  CHECK_EQ(pyr.rows(), values.size());
  CHECK_EQ(pyr.level(0)->at(0), total);
  for (std::size_t l = 0; l <= L; ++l) {
    const auto lv = pyr.level(l);
    CHECK(*lv == coarsen(ref, L, l));
    if (l == 0) continue;
    const auto parent = pyr.level(l - 1);
    for (std::size_t j = 0; j < parent->size(); ++j)
      CHECK_EQ(parent->at(j), lv->at(2 * j) + lv->at(2 * j + 1));
  }

  // Full-window slices at every level match the coarsened reference, and
  // the served edges are the strided leaf-edge subset.
  for (std::size_t l = 0; l <= L; ++l) {
    const agg::SlicePlan plan{l, 0, pyr.bins_at(l)};
    CHECK(pyr.servable1d(plan, nullptr));
    CHECK(pyr.slice_counts1d(plan, nullptr) == coarsen(ref, L, l));
    const std::vector<double> edges = pyr.slice_edges(0, plan);
    CHECK_EQ(edges.size(), pyr.bins_at(l) + 1);
    for (std::size_t j = 0; j < edges.size(); ++j)
      CHECK_EQ(edges[j], leaf.edges()[j << (L - l)]);
  }

  // Partial windows (including ones straddling coarse-node boundaries)
  // against the reference at several levels.
  for (std::size_t l = 1; l <= L; ++l) {
    const std::size_t n = pyr.bins_at(l);
    const agg::SlicePlan plan{l, 1, n - 1};  // drops first and last bin
    const std::vector<std::uint64_t> got = pyr.slice_counts1d(plan, nullptr);
    const std::vector<std::uint64_t> all = coarsen(ref, L, l);
    CHECK_EQ(got.size(), n - 2);
    for (std::size_t j = 0; j < got.size(); ++j) CHECK_EQ(got[j], all[j + 1]);
  }

  // Conditions with endpoints on leaf edges are servable at any level and
  // match a filtered reference tally; an endpoint strictly inside a leaf
  // bin is not servable (the descent cannot terminate).
  const std::vector<double>& le = leaf.edges();
  const Interval aligned{le[1], le[le.size() - 2], false, true};  // [e1, e_k)
  const agg::SlicePlan root{0, 0, 1};
  CHECK(pyr.servable1d(root, &aligned));
  std::uint64_t want = 0;
  for (double v : values) {
    const std::ptrdiff_t bin = leaf.locate(v);
    if (bin >= 0 && aligned.contains(v)) ++want;
  }
  CHECK_EQ(pyr.slice_counts1d(root, &aligned)[0], want);
  const double inside = 0.5 * (le[0] + le[1]);  // strictly inside leaf bin 0
  const Interval unaligned{inside, le[le.size() - 2], false, true};
  CHECK(!pyr.servable1d(root, &unaligned));
}

void test_uniform_1d() {
  const Bins leaf = make_uniform_bins(-3.0, 5.0, 64);
  const std::vector<double> values = make_values(5000, -3.0, 5.0, false, 1);
  check_pyramid1d(agg::Pyramid::build1d(values, leaf), values, leaf);
}

void test_nonuniform_1d() {
  // Non-uniform leaf edges: quantile bins of a skewed sample, forced to a
  // power-of-two count.
  const std::vector<double> sample = make_values(4000, 0.0, 1.0, false, 7);
  std::vector<double> skewed;
  for (double v : sample) skewed.push_back(v * v * v);
  const Bins leaf = make_quantile_bins(skewed, 32);
  if (leaf.num_bins() != 32) {
    // Quantile binning may merge duplicate edges; this sample keeps 32.
    CHECK_EQ(leaf.num_bins(), 32u);
    return;
  }
  check_pyramid1d(agg::Pyramid::build1d(skewed, leaf), skewed, leaf);
}

void test_poisoned_build_and_roundtrip() {
  const Bins leaf = make_uniform_bins(-1.0, 1.0, 128);
  const std::vector<double> values = make_values(6000, -1.0, 1.0, true, 3);
  const agg::Pyramid built = agg::Pyramid::build1d(values, leaf);
  check_pyramid1d(built, values, leaf);

  // save/open round-trip (null budget): identical levels, edges, rows.
  const auto dir = test::scratch_dir("pyramid_roundtrip");
  built.save(dir / "v.pyr");
  const auto opened = agg::Pyramid::open(dir / "v.pyr");
  CHECK_EQ(opened->ndims(), 1u);
  CHECK_EQ(opened->rows(), built.rows());
  CHECK(opened->leaf_edges(0) == built.leaf_edges(0));
  for (std::size_t l = 0; l <= built.leaf_log2(); ++l)
    CHECK(*opened->level(l) == *built.level(l));
  check_pyramid1d(*opened, values, leaf);

  // And through a memory budget: same answers, pyramid bytes charged.
  const auto budget =
      std::make_shared<io::MemoryBudget>(io::MemoryBudget::kUnlimited);
  const auto budgeted = agg::Pyramid::open(dir / "v.pyr", budget, "t/v");
  check_pyramid1d(*budgeted, values, leaf);
  CHECK(budget->stats().of(io::ResidentClass::kPyramid).bytes > 0);

  CHECK_THROWS(agg::Pyramid::open(dir / "missing.pyr"));

  // A forged header (leaf_log2 = 27 with a matching edge count) sizes 1 GiB
  // of edges the file does not hold: open() must fail on the file size
  // before allocating them.
  {
    std::fstream f(dir / "v.pyr",
                   std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t leaf_log2 = 27;
    const std::uint64_t nedges = (std::uint64_t{1} << leaf_log2) + 1;
    f.seekp(12);  // magic (8) | ndims (4) | leaf_log2 (4) | rows (8) | nedges
    f.write(reinterpret_cast<const char*>(&leaf_log2), sizeof(leaf_log2));
    f.seekp(24);
    f.write(reinterpret_cast<const char*>(&nedges), sizeof(nedges));
    CHECK(f.good());
  }
  const std::uint64_t rss_before = test::peak_rss_kib();
  CHECK_THROWS(agg::Pyramid::open(dir / "v.pyr"));
  CHECK(test::peak_rss_kib() - rss_before <= 64u << 10);
}

void test_pyramid_2d() {
  const Bins bx = make_uniform_bins(0.0, 4.0, 16);
  const Bins by = make_uniform_bins(-2.0, 2.0, 16);
  const std::vector<double> vx = make_values(5000, 0.0, 4.0, true, 11);
  const std::vector<double> vy = make_values(5000, -2.0, 2.0, true, 12);
  const agg::Pyramid pyr = agg::Pyramid::build2d(vx, vy, bx, by);
  const std::size_t L = pyr.leaf_log2();
  CHECK_EQ(pyr.ndims(), 2u);
  CHECK_EQ(L, 4u);

  // Reference leaf grid with joint drop semantics: a row lands only when
  // both coordinates are in-domain.
  std::vector<std::uint64_t> ref(16 * 16, 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < vx.size(); ++i) {
    const std::ptrdiff_t jx = bx.locate(vx[i]);
    const std::ptrdiff_t jy = by.locate(vy[i]);
    if (jx < 0 || jy < 0) continue;
    ++ref[static_cast<std::size_t>(jx) * 16 + static_cast<std::size_t>(jy)];
    ++total;
  }
  CHECK_EQ(pyr.level(0)->at(0), total);

  // Every level equals the reference coarsened on both axes, and each
  // parent equals the sum of its four children.
  for (std::size_t l = 0; l <= L; ++l) {
    const std::size_t n = pyr.bins_at(l);
    const std::size_t group = std::size_t{1} << (L - l);
    const auto lv = pyr.level(l);
    std::vector<std::uint64_t> want(n * n, 0);
    for (std::size_t j0 = 0; j0 < 16; ++j0)
      for (std::size_t j1 = 0; j1 < 16; ++j1)
        want[(j0 / group) * n + j1 / group] += ref[j0 * 16 + j1];
    CHECK(*lv == want);
    if (l == 0) continue;
    const auto parent = pyr.level(l - 1);
    for (std::size_t j0 = 0; j0 + 1 < n; j0 += 2)
      for (std::size_t j1 = 0; j1 + 1 < n; j1 += 2)
        CHECK_EQ(parent->at((j0 / 2) * (n / 2) + j1 / 2),
                 lv->at(j0 * n + j1) + lv->at(j0 * n + j1 + 1) +
                     lv->at((j0 + 1) * n + j1) + lv->at((j0 + 1) * n + j1 + 1));
  }

  // Conditioned full-window slice: both conditions aligned to leaf edges.
  const Interval cx{bx.edges()[2], bx.edges()[14], false, true};
  const Interval cy{by.edges()[4], by.edges()[12], false, true};
  const agg::SlicePlan full{L, 0, 16};
  CHECK(pyr.servable2d(full, full, &cx, &cy));
  const std::vector<std::uint64_t> got =
      pyr.slice_counts2d(full, full, &cx, &cy);
  for (std::size_t j0 = 0; j0 < 16; ++j0)
    for (std::size_t j1 = 0; j1 < 16; ++j1) {
      const bool in = j0 >= 2 && j0 < 14 && j1 >= 4 && j1 < 12;
      CHECK_EQ(got[j0 * 16 + j1], in ? ref[j0 * 16 + j1] : 0u);
    }
}

void test_plan_slice_snapping() {
  const Bins leaf = make_uniform_bins(0.0, 1.0, 64);  // leaf_log2 = 6
  const std::vector<double> values = make_values(1000, 0.0, 1.0, false, 5);
  const agg::Pyramid pyr = agg::Pyramid::build1d(values, leaf);

  // A viewport straddling coarse-node boundaries must snap outward: the
  // snapped window covers the viewport and carries >= nbins bins.
  const auto plan = pyr.plan_slice(0, 0.26, 0.74, 8);
  CHECK(plan.has_value());
  const std::vector<double> edges = pyr.slice_edges(0, *plan);
  CHECK(plan->bins() >= 8);
  CHECK(edges.front() <= 0.26 && edges.back() >= 0.74);

  // Coarsest-covering-level rule: a half-domain viewport at nbins=2 snaps
  // to level 2 (the first level where the snapped window carries 2 bins),
  // not the leaf; at nbins=1 the root's single bin already covers it.
  const auto root = pyr.plan_slice(0, 0.0, 0.5, 1);
  CHECK(root.has_value());
  CHECK_EQ(root->level, 0u);
  const auto coarse = pyr.plan_slice(0, 0.0, 0.5, 2);
  CHECK(coarse.has_value());
  CHECK_EQ(coarse->level, 2u);
  CHECK_EQ(coarse->bins(), 2u);

  // Too narrow for nbins even at the leaf: exact fallback (nullopt).
  CHECK(!pyr.plan_slice(0, 0.50, 0.51, 32).has_value());

  // Entirely outside the domain: empty plan, not an error.
  const auto outside = pyr.plan_slice(0, 2.0, 3.0, 4);
  CHECK(outside.has_value());
  CHECK_EQ(outside->bins(), 0u);
}

// ---- dataset level: kAuto vs kExact twins through Engine/Selection ----

const std::filesystem::path& dataset_dir() {
  static const std::filesystem::path dir = [] {
    const std::filesystem::path d = test::scratch_dir("pyramid_ds");
    sim::WakefieldConfig cfg = sim::WakefieldConfig::preset_bench(3000, 2, 2);
    io::IndexConfig index_config;
    index_config.nbins = 64;  // 1D pyramids at 64 leaf bins
    index_config.pyramid_pair_bins = 32;
    sim::generate_dataset(cfg, d, index_config);
    return d;
  }();
  return dir;
}

void check_zoom1d_twin(const core::Selection& sel, std::size_t t,
                       const std::string& var, double lo, double hi,
                       std::size_t nbins, bool expect_pyramid) {
  const core::Zoom1DResult a =
      sel.zoom_histogram1d(t, var, lo, hi, nbins, core::ZoomMode::kAuto);
  const core::Zoom1DResult e =
      sel.zoom_histogram1d(t, var, lo, hi, nbins, core::ZoomMode::kExact);
  CHECK_EQ(a.pyramid, expect_pyramid);
  CHECK(!e.pyramid);
  CHECK(a.hist.counts == e.hist.counts);
  CHECK(a.hist.bins.edges() == e.hist.bins.edges());
}

void test_dataset_zoom1d() {
  const core::Engine engine = core::Engine::open(dataset_dir());
  const auto& table = engine.dataset().table(0);
  const auto pyr = table.pyramid1d("px");
  CHECK(pyr != nullptr);
  const std::vector<double>& le = pyr->leaf_edges(0);
  const double lo = le.front(), hi = le.back();

  const core::Selection all = engine.all();
  // Wide viewports (served), including ones straddling node boundaries.
  check_zoom1d_twin(all, 0, "px", lo, hi, 16, true);
  check_zoom1d_twin(all, 0, "px", lo + 0.13 * (hi - lo), lo + 0.77 * (hi - lo),
                    8, true);
  // Narrow viewport below the leaf resolution: exact fallback.
  check_zoom1d_twin(all, 0, "px", lo + 0.40 * (hi - lo),
                    lo + 0.41 * (hi - lo), 32, false);
  // Viewport outside the domain: both modes agree on emptiness.
  const core::Zoom1DResult empty_a =
      all.zoom_histogram1d(0, "px", hi + 1.0, hi + 2.0, 8);
  const core::Zoom1DResult empty_e = all.zoom_histogram1d(
      0, "px", hi + 1.0, hi + 2.0, 8, core::ZoomMode::kExact);
  CHECK(empty_a.hist.counts == empty_e.hist.counts);
  CHECK_EQ(empty_a.hist.total(), 0u);

  // A condition aligned to the pyramid's own leaf edges is servable; the
  // empty selection (contradiction on the same variable) stays exact-equal.
  const core::Selection cond = engine.select(
      "px >= " + format_double(le[8]) + " && px < " + format_double(le[40]));
  check_zoom1d_twin(cond, 0, "px", lo, hi, 16, true);
  const core::Selection none =
      engine.select("px > " + format_double(le.back() + 1.0));
  CHECK_EQ(none.count(0), 0u);
  const core::Zoom1DResult na =
      none.zoom_histogram1d(0, "px", lo, hi, 16, core::ZoomMode::kAuto);
  const core::Zoom1DResult ne =
      none.zoom_histogram1d(0, "px", lo, hi, 16, core::ZoomMode::kExact);
  CHECK(na.hist.counts == ne.hist.counts);
  CHECK_EQ(na.hist.total(), 0u);

  // An unservable predicate shape (disjunction) must fall back — exactly.
  const core::Selection orsel = engine.select(
      "px < " + format_double(le[8]) + " || px >= " + format_double(le[40]));
  check_zoom1d_twin(orsel, 0, "px", lo, hi, 16, false);

  // Bad viewport throws; the plan probe returns nullopt instead.
  CHECK_THROWS(all.zoom_histogram1d(0, "px", hi, lo, 16));
  CHECK(!all.zoom_plan1d(0, "px", hi, lo, 16).has_value());

  // Served requests are visible in the engine's zoom-tier stats.
  const core::EngineStats stats = engine.stats();
  CHECK(stats.pyramid_served > 0);
  CHECK(stats.pyramid_fallback > 0);
}

void test_dataset_zoom2d() {
  const core::Engine engine = core::Engine::open(dataset_dir());
  const auto& table = engine.dataset().table(1);
  const auto pair = table.pyramid2d("x", "px");
  CHECK(pair != nullptr);
  const std::vector<double>& xe = pair->leaf_edges(0);
  const std::vector<double>& ye = pair->leaf_edges(1);

  const core::Selection all = engine.all();
  const core::Zoom2DResult a = all.zoom_histogram2d(
      1, "x", "px", xe.front(), xe.back(), ye.front(), ye.back(), 8, 8);
  const core::Zoom2DResult e =
      all.zoom_histogram2d(1, "x", "px", xe.front(), xe.back(), ye.front(),
                           ye.back(), 8, 8, core::ZoomMode::kExact);
  CHECK(a.pyramid);
  CHECK(a.hist.counts == e.hist.counts);
  CHECK(a.hist.xbins.edges() == e.hist.xbins.edges());
  CHECK(a.hist.ybins.edges() == e.hist.ybins.edges());
  CHECK_EQ(a.hist.total(), e.hist.total());

  // 1D zoom on x conditioned on px routes through the pair pyramid when
  // the condition aligns with the pair's own px edges.
  const core::Selection cond = engine.select(
      "px >= " + format_double(ye[4]) + " && px < " + format_double(ye[20]));
  const auto plan = cond.zoom_plan1d(1, "x", xe.front(), xe.back(), 8);
  CHECK(plan.has_value());
  CHECK(plan->pair);
  check_zoom1d_twin(cond, 1, "x", xe.front(), xe.back(), 8, true);
}

void test_plan_explain_visibility() {
  const core::Engine engine = core::Engine::open(dataset_dir());
  const core::Selection sel = engine.select("px > 1e9 && y > 0");
  const core::ExecutionPlan& plan = sel.plan();
  CHECK(plan.marginal_intervals().has_value());
  CHECK(!plan.zoom_steps().empty());
  bool pyramid_routed = false;
  for (const core::PredicateStep& s : plan.zoom_steps())
    pyramid_routed |= s.access == core::AccessPath::kPyramid;
  CHECK(pyramid_routed);
  const std::string text = plan.explain();
  CHECK(text.find("pyramid") != std::string::npos);

  // Disjunctions have no marginal shape: no zoom routing, and explain says
  // the zoom tier is unavailable for this query.
  const core::Selection orsel = engine.select("px > 1e9 || y > 0");
  CHECK(!orsel.plan().marginal_intervals().has_value());
  CHECK(orsel.plan().zoom_steps().empty());
}

}  // namespace

int main() {
  test_uniform_1d();
  test_nonuniform_1d();
  test_poisoned_build_and_roundtrip();
  test_pyramid_2d();
  test_plan_slice_snapping();
  test_dataset_zoom1d();
  test_dataset_zoom2d();
  test_plan_explain_visibility();
  return qdv::test::finish("test_pyramid");
}
