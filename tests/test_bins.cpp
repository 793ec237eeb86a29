// Binning strategies: uniform locate arithmetic, quantile bins, precision
// bins (round constants land exactly on edges), and equal-weight merging.
#include <limits>
#include <vector>

#include "bitmap/bins.hpp"
#include "bitmap/histogram.hpp"
#include "test_common.hpp"

namespace {

using namespace qdv;

void test_uniform() {
  const Bins bins = make_uniform_bins(0.0, 10.0, 10);
  CHECK_EQ(bins.num_bins(), 10u);
  CHECK(bins.is_uniform());
  CHECK_EQ(bins.locate(-0.001), -1);
  CHECK_EQ(bins.locate(0.0), 0);
  CHECK_EQ(bins.locate(0.999), 0);
  CHECK_EQ(bins.locate(1.0), 1);
  CHECK_EQ(bins.locate(9.5), 9);
  CHECK_EQ(bins.locate(10.0), 9);  // last bin is closed
  CHECK_EQ(bins.locate(10.001), -1);
}

void test_quantile() {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i < 900 ? i * 0.001 : i * 1.0);
  const Bins bins = make_quantile_bins(values, 10);
  CHECK(bins.num_bins() >= 2);
  CHECK(bins.num_bins() <= 10);
  // Roughly equal occupancy in each quantile bin.
  std::vector<std::size_t> counts(bins.num_bins(), 0);
  for (const double v : values) {
    const std::ptrdiff_t b = bins.locate(v);
    CHECK(b >= 0);
    if (b >= 0) ++counts[static_cast<std::size_t>(b)];
  }
  for (const std::size_t c : counts) CHECK(c >= 50);
}

void test_precision() {
  // 2 significant digits over [0, 1.15e11]: edges on multiples of 1e10, so
  // the bench's 7e10 threshold needs no candidate check.
  const Bins bins = make_precision_bins(0.0, 1.15e11, 2, 1u << 14);
  bool has_7e10 = false;
  for (const double e : bins.edges())
    if (e == 7e10) has_7e10 = true;
  CHECK(has_7e10);
  CHECK(bins.edges().front() <= 0.0);
  CHECK(bins.edges().back() >= 1.15e11);
  // Coarsening respects max_bins.
  const Bins coarse = make_precision_bins(0.0, 1.15e11, 3, 64);
  CHECK(coarse.num_bins() <= 64);
}

void test_equal_weight() {
  Histogram1D fine;
  fine.bins = make_uniform_bins(0.0, 1.0, 100);
  fine.counts.assign(100, 0);
  // 90% of the mass in [0.2, 0.3).
  for (std::size_t i = 20; i < 30; ++i) fine.counts[i] = 900;
  for (std::size_t i = 0; i < 100; ++i) fine.counts[i] += 10;
  const Bins bins = make_equal_weight_bins(fine, 6);
  CHECK(bins.num_bins() >= 2);
  CHECK(bins.num_bins() <= 6);
  // Most edges concentrate inside the dense band.
  std::size_t inside = 0;
  for (const double e : bins.edges())
    if (e >= 0.2 && e <= 0.31) ++inside;
  CHECK(inside >= 3);
}

void test_invalid() {
  CHECK_THROWS(make_uniform_bins(1.0, 1.0, 4));
  CHECK_THROWS(make_uniform_bins(0.0, 1.0, 0));
  CHECK_THROWS(Bins({1.0}));
  CHECK_THROWS(Bins({2.0, 1.0}));
  // An nbins + 1 edge array that cannot exist is rejected up front, before
  // nbins + 1 wraps to an empty allocation the edge loop would overrun.
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  CHECK_THROWS(make_uniform_bins(0.0, 1.0, huge));
  const std::vector<double> values = {1.0, 2.0, 3.0};
  CHECK_THROWS(make_quantile_bins(values, huge));
  Histogram1D fine;
  fine.bins = make_uniform_bins(0.0, 1.0, 4);
  fine.counts.assign(4, 1);
  CHECK_THROWS(make_equal_weight_bins(fine, huge));
}

}  // namespace

int main() {
  test_uniform();
  test_quantile();
  test_precision();
  test_equal_weight();
  test_invalid();
  return qdv::test::finish("test_bins");
}
