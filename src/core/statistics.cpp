#include "core/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "bitmap/kernels.hpp"

namespace qdv::core {

SummaryStats conditional_stats(const io::TimestepTable& table,
                               const std::string& variable,
                               const BitVector* rows) {
  const std::span<const double> values = table.column(variable);
  SummaryStats s;
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
  double sum = 0.0, sum2 = 0.0;
  const auto visit = [&](std::uint64_t row) {
    const double v = values[row];
    ++s.count;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
    sum2 += v * v;
  };
  if (rows == nullptr) {
    for (std::uint64_t row = 0; row < values.size(); ++row) visit(row);
  } else {
    // Block gather: same ascending row order as the loop above, so the
    // floating-point sums are bit-identical.
    kern::for_each_set_blocked(*rows, visit);
  }
  if (s.count == 0) {
    s.min = s.max = 0.0;
    return s;
  }
  const double n = static_cast<double>(s.count);
  s.mean = sum / n;
  s.stddev = std::sqrt(std::max(0.0, sum2 / n - s.mean * s.mean));
  return s;
}

}  // namespace qdv::core
