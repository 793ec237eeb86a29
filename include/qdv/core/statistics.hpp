// Conditional summary statistics of one variable over an evaluated row
// set — the second step of the same two-step path as the histograms.
//
// Free functions over a borrowed table: the caller keeps the TimestepTable
// alive for the duration of the call; results are plain values. Safe to
// call concurrently (the table's accessors synchronize internally).
#pragma once

#include <cstdint>
#include <string>

#include "io/timestep_table.hpp"

namespace qdv::core {

struct SummaryStats {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
};

/// Statistics of @p variable over every row, or only the set rows of
/// @p rows when given (an evaluated condition, e.g. a Selection's cached
/// bitvector).
SummaryStats conditional_stats(const io::TimestepTable& table,
                               const std::string& variable,
                               const BitVector* rows = nullptr);

}  // namespace qdv::core
