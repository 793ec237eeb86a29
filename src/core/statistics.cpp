#include "core/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <span>

#include "bitmap/kernels.hpp"

namespace qdv::core {

namespace {

/// Accumulator shared by the query-driven and bitvector-driven entry points.
class StatsAccumulator {
 public:
  explicit StatsAccumulator(std::span<const double> values) : values_(values) {
    s_.min = std::numeric_limits<double>::infinity();
    s_.max = -std::numeric_limits<double>::infinity();
  }

  void operator()(std::uint64_t row) {
    const double v = values_[row];
    ++s_.count;
    s_.min = std::min(s_.min, v);
    s_.max = std::max(s_.max, v);
    sum_ += v;
    sum2_ += v * v;
  }

  SummaryStats finish() {
    if (s_.count == 0) {
      s_.min = s_.max = 0.0;
      return s_;
    }
    const double n = static_cast<double>(s_.count);
    s_.mean = sum_ / n;
    s_.stddev = std::sqrt(std::max(0.0, sum2_ / n - s_.mean * s_.mean));
    return s_;
  }

 private:
  std::span<const double> values_;
  SummaryStats s_;
  double sum_ = 0.0;
  double sum2_ = 0.0;
};

}  // namespace

SummaryStats conditional_stats(const io::TimestepTable& table,
                               const std::string& variable,
                               const Query* condition, EvalMode mode) {
  const std::span<const double> values = table.column(variable);
  StatsAccumulator accumulate(values);
  if (condition == nullptr) {
    for (std::uint64_t row = 0; row < values.size(); ++row) accumulate(row);
  } else {
    // Block gather: same ascending row order as the scalar
    // for_each_set, so the floating-point sums are bit-identical.
    kern::for_each_set_blocked(table.query(*condition, mode),
                               std::ref(accumulate));
  }
  return accumulate.finish();
}

SummaryStats conditional_stats(const io::TimestepTable& table,
                               const std::string& variable,
                               const BitVector& rows) {
  StatsAccumulator accumulate(table.column(variable));
  kern::for_each_set_blocked(rows, std::ref(accumulate));
  return accumulate.finish();
}

}  // namespace qdv::core
