// Element-at-a-time reference twins of the kernel layer (bitmap/kernels.hpp)
// for the differential tests and the old/new bench rows. They stay out of
// the library and must never be "optimized": their value is being the
// obvious implementation.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bitmap/bitvector.hpp"

namespace qdv::kern::ref {

/// Twin of or_many_kway: the original pairwise tree reduction over
/// operator|.
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

}  // namespace qdv::kern::ref
