// Histogram engine: the index-backed two-step conditional evaluation must
// agree bin-for-bin with the sequential-scan baseline; adaptive binning
// preserves totals and flattens occupancy; the session's render pair
// histograms agree with a per-row Bins::locate tally.
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/custom_scan.hpp"
#include "core/session.hpp"
#include "io/dataset.hpp"
#include "sim/wakefield.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;

const std::filesystem::path& dataset_dir() {
  static const std::filesystem::path dir = [] {
    const std::filesystem::path d = qdv::test::scratch_dir("histogram");
    sim::WakefieldConfig cfg = sim::WakefieldConfig::preset_bench(2000, 2, 3);
    io::IndexConfig index_config;
    index_config.nbins = 128;
    sim::generate_dataset(cfg, d, index_config);
    return d;
  }();
  return dir;
}

void test_unconditional_matches_scan() {
  const io::Dataset ds = io::Dataset::open(dataset_dir());
  const io::TimestepTable& table = ds.table(0);
  const HistogramEngine engine = table.engine();
  const core::CustomScan custom(table);
  const Histogram2D fast = engine.histogram2d("x", "px", 32, 32);
  const Histogram2D slow = custom.histogram2d("x", "px", 32, 32);
  CHECK(fast.counts == slow.counts);
  CHECK_EQ(fast.total(), table.num_rows());
  CHECK(fast.nonempty_bins() > 0);
  CHECK(fast.max_count() > 0);
}

void test_conditional_matches_scan() {
  const io::Dataset ds = io::Dataset::open(dataset_dir());
  const io::TimestepTable& table = ds.table(1);
  const HistogramEngine engine = table.engine();
  const core::CustomScan custom(table);
  for (const char* text : {"px > 1e10", "px > 1e10 && y > 0", "xrel < 0.5"}) {
    const QueryPtr cond = parse_query(text);
    const BitVector rows = test::run_plan(table, cond);
    const Histogram2D fast = engine.histogram2d("x", "px", 24, 24, &rows);
    const Histogram2D slow = custom.histogram2d("x", "px", 24, 24, cond.get());
    CHECK(fast.counts == slow.counts);
    CHECK_EQ(fast.total(), test::scan_oracle(table, *cond).count());
  }
}

void test_scan_mode_engine() {
  // A condition evaluated in forced-scan mode must histogram like the
  // indexed mode's.
  const io::Dataset ds = io::Dataset::open(dataset_dir());
  const io::TimestepTable& table = ds.table(0);
  const QueryPtr cond = parse_query("px > 5e9");
  const BitVector indexed = test::run_plan(table, cond, EvalMode::kAuto);
  const BitVector scanned = test::run_plan(table, cond, EvalMode::kScan);
  CHECK(table.engine().histogram2d("x", "px", 16, 16, &indexed).counts ==
        table.engine().histogram2d("x", "px", 16, 16, &scanned).counts);
}

void test_adaptive_binning() {
  const io::Dataset ds = io::Dataset::open(dataset_dir());
  const io::TimestepTable& table = ds.table(0);
  const HistogramEngine engine = table.engine();
  const Histogram1D uniform = engine.histogram1d("px", 16);
  const Histogram1D adaptive =
      engine.histogram1d("px", 16, nullptr, BinningMode::kAdaptive);
  CHECK_EQ(uniform.total(), adaptive.total());
  // Equal-weight bins flatten the occupancy of the skewed momentum column.
  CHECK(adaptive.max_count() < uniform.max_count());
  const Histogram2D adaptive2d =
      engine.histogram2d("x", "px", 16, 16, nullptr, BinningMode::kAdaptive);
  CHECK_EQ(adaptive2d.total(), table.num_rows());
}

void test_density() {
  Histogram2D h;
  h.xbins = make_uniform_bins(0.0, 2.0, 2);   // width 1
  h.ybins = make_uniform_bins(0.0, 4.0, 2);   // width 2
  h.counts.assign(4, 0);
  h.at(0, 0) = 10;
  CHECK_EQ(h.density(0, 0), 5.0);  // 10 / (1 * 2)
  CHECK_EQ(h.density(1, 1), 0.0);
  CHECK_EQ(h.nonempty_bins(), 1u);
}

/// Scalar reference twin of a render pair histogram: Bins::locate per row,
/// over every row or only the set rows of @p rows.
std::vector<std::uint64_t> locate_tally(std::span<const double> xs,
                                        std::span<const double> ys,
                                        const Bins& xbins, const Bins& ybins,
                                        const BitVector* rows) {
  std::vector<std::uint64_t> counts(xbins.num_bins() * ybins.num_bins(), 0);
  const auto add = [&](std::uint64_t row) {
    const std::ptrdiff_t bx = xbins.locate(xs[row]);
    const std::ptrdiff_t by = ybins.locate(ys[row]);
    if (bx >= 0 && by >= 0)
      ++counts[static_cast<std::size_t>(bx) * ybins.num_bins() +
               static_cast<std::size_t>(by)];
  };
  if (rows != nullptr) {
    rows->for_each_set(add);
  } else {
    for (std::uint64_t row = 0; row < xs.size(); ++row) add(row);
  }
  return counts;
}

void test_pair_histograms_match_locate() {
  // The render histograms of focus+context parallel coordinates: every
  // count must match a per-row locate over the same global-domain bins, for
  // a focus and for all rows, with uniform and with adaptive bins.
  core::ExplorationSession session =
      core::ExplorationSession::open(dataset_dir());
  const std::size_t t = 1;
  const std::size_t nbins = 24;
  const std::vector<std::string> axes = {"x", "y", "px", "xrel"};
  const io::TimestepTable& table = session.dataset().table(t);
  session.set_focus("px > 1e10 && y > 0");
  CHECK(session.focus_count(t) > 0);
  CHECK(session.focus_count(t) < table.num_rows());
  for (const BinningMode binning : {BinningMode::kUniform, BinningMode::kAdaptive}) {
    for (const bool focus : {true, false}) {
      const std::vector<Histogram2D> hists =
          focus ? session.pair_histograms(t, axes, nbins, session.focus(), binning)
                : session.pair_histograms(t, axes, nbins, binning);
      CHECK_EQ(hists.size(), axes.size() - 1);
      const std::shared_ptr<const BitVector> rows =
          focus ? session.focus().bits(t) : nullptr;
      std::vector<Bins> bins;
      for (const std::string& name : axes) {
        const auto [lo, hi] = session.global_domain(name);
        bins.push_back(binning == BinningMode::kUniform
                           ? make_uniform_bins(lo, hi > lo ? hi : lo + 1.0, nbins)
                           : make_bins(lo, hi, table.column(name), nbins, binning));
      }
      for (std::size_t p = 0; p < hists.size(); ++p) {
        CHECK(hists[p].xbins == bins[p]);
        CHECK(hists[p].ybins == bins[p + 1]);
        CHECK(hists[p].counts == locate_tally(table.column(axes[p]),
                                              table.column(axes[p + 1]),
                                              bins[p], bins[p + 1], rows.get()));
      }
      CHECK_EQ(hists[0].total(), focus ? session.focus_count(t) : table.num_rows());
    }
  }
}

}  // namespace

int main() {
  test_unconditional_matches_scan();
  test_conditional_matches_scan();
  test_scan_mode_engine();
  test_adaptive_binning();
  test_density();
  test_pair_histograms_match_locate();
  return qdv::test::finish("test_histogram");
}
