// The paper's "Custom" baseline: sequential scans with nested count arrays
// and O(N log S) identifier search, used as the comparison point for the
// index-backed engine in the figure benchmarks, and — being a row-at-a-time
// predicate over the raw AST that shares no kernel, plan or bitmap
// operator with the engine — the tests' reference answer for a query.
//
// CustomScan borrows the table it is constructed over (the caller keeps it
// alive); it holds no mutable state, so one instance may be used from
// several threads concurrently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bitmap/histogram.hpp"
#include "core/query.hpp"
#include "io/timestep_table.hpp"

namespace qdv::core {

class CustomScan {
 public:
  explicit CustomScan(const io::TimestepTable& table) : table_(&table) {}

  /// Sequential-scan 2D histogram; the condition (when given) is evaluated
  /// per record against the raw columns, never through an index.
  Histogram2D histogram2d(const std::string& x, const std::string& y,
                          std::size_t nxbins, std::size_t nybins,
                          const Query* condition = nullptr) const;

  /// Rows matching @p q, the raw AST (not canonicalized): each record is
  /// tested one at a time against the raw columns, never through an index.
  BitVector select(const Query& q) const;

  /// Rows whose identifier is in @p search: a full scan with a binary
  /// search per record (O(N log S)).
  std::vector<std::uint32_t> find_ids(
      const std::vector<std::uint64_t>& search) const;

 private:
  const io::TimestepTable* table_;
};

}  // namespace qdv::core
