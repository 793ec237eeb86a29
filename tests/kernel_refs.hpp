// Element-at-a-time reference twins of the kernel layer (bitmap/kernels.hpp)
// and of BitVector's binary operators, for the differential tests and the
// old/new bench rows. They stay out of
// the library and must never be "optimized": their value is being the
// obvious implementation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bitmap/bitvector.hpp"
#include "bitmap/interval.hpp"
#include "bitmap/kernels.hpp"

namespace qdv::kern::ref {

/// A BitVector copy of the WAH vector @p v reads (a pinned index segment),
/// so the references below can take it.
inline BitVector copy_of(const WahView& v) {
  std::uint64_t groups = 0;
  for (const std::uint32_t w : v.words)
    groups += (w & BitVectorOps::kFillFlag) ? (w & BitVectorOps::kCountMask) : 1;
  BitVector out;
  BitVectorOps::set_words(out, {v.words.begin(), v.words.end()});
  BitVectorOps::set_tail(out, v.tail, v.tail_bits);
  BitVectorOps::set_nbits(out, groups * BitVectorOps::kGroupBits + v.tail_bits);
  return out;
}

/// The OR of many bitvectors as a pairwise tree reduction over operator|:
/// the reference for probe_intervals's OR side, and the old side of the
/// bench rows that time the two-step evaluation (bench_common.hpp).
inline BitVector or_many_pairwise(std::span<const BitVector* const> operands,
                                  std::uint64_t nbits) {
  if (operands.empty()) return BitVector::zeros(nbits);
  if (operands.size() == 1) {
    BitVector out = *operands[0];
    if (out.size() < nbits) out.append_run(false, nbits - out.size());
    return out;
  }
  std::vector<BitVector> level;
  level.reserve((operands.size() + 1) / 2);
  for (std::size_t i = 0; i + 1 < operands.size(); i += 2)
    level.push_back(*operands[i] | *operands[i + 1]);
  if (operands.size() % 2 == 1) level.push_back(*operands.back());
  while (level.size() > 1) {
    std::vector<BitVector> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(level[i] | level[i + 1]);
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  BitVector out = std::move(level.front());
  if (out.size() < nbits) out.append_run(false, nbits - out.size());
  return out;
}

/// Twin of scan_intervals: one Interval::contains test per row, appended
/// as runs of equal bits (the row-at-a-time range scan the vector kernel
/// replaced).
inline BitVector scan_intervals_rows(std::span<const double> values,
                                     std::span<const Interval> ivs) {
  BitVector out;
  std::uint64_t run_start = 0;
  bool run_value = false;
  for (std::uint64_t row = 0; row < values.size(); ++row) {
    bool in = false;
    for (const Interval& iv : ivs) in = in || iv.contains(values[row]);
    if (row == 0) {
      run_value = in;
    } else if (in != run_value) {
      out.append_run(run_value, row - run_start);
      run_start = row;
      run_value = in;
    }
  }
  out.append_run(run_value, values.size() - run_start);
  return out;
}

/// Twin of the binary operators of BitVector: both operands expanded bit
/// by bit (zero-extended to the longer), @p op applied per bit, and the
/// result appended one bit at a time.
template <typename Op>
BitVector combine_bits(const BitVector& a, const BitVector& b, Op op) {
  const std::uint64_t nbits = std::max(a.size(), b.size());
  std::vector<bool> x(nbits), y(nbits);
  a.for_each_set([&](std::uint64_t row) { x[row] = true; });
  b.for_each_set([&](std::uint64_t row) { y[row] = true; });
  BitVector out;
  for (std::uint64_t row = 0; row < nbits; ++row)
    out.append_bit(op(x[row], y[row]));
  return out;
}

}  // namespace qdv::kern::ref
