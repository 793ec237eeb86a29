// Block-oriented execution kernels over WAH bitvectors (DESIGN.md
// Section 10): the content walk that decodes compressed words in one pass
// (zero fills skipped, one-fills reported as row ranges, literal runs read
// in place), the one-pass interval probe and the vector interval scan that
// answer every served range predicate, and the sharded tally driver for
// intra-timestep parallel histograms.
//
// The differential tests check these against element-at-a-time twins that
// live with the tests (tests/kernel_refs.hpp), never in the library.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "bitmap/bins.hpp"
#include "bitmap/bitvector.hpp"
#include "bitmap/interval.hpp"

namespace qdv::kern {

/// Access shim for the kernel layer: BitVector grants friendship to this
/// struct alone, so every kernel reads the compressed words through one
/// audited surface instead of each being a friend.
struct BitVectorOps {
  static constexpr std::uint32_t kFillFlag = 0x80000000u;
  static constexpr std::uint32_t kFillValueBit = 0x40000000u;
  static constexpr std::uint32_t kCountMask = 0x3FFFFFFFu;
  static constexpr std::uint32_t kLiteralMask = 0x7FFFFFFFu;
  static constexpr std::uint32_t kGroupBits = BitVector::kGroupBits;

  static std::span<const std::uint32_t> words(const BitVector& v) {
    return v.words_;
  }
  static std::uint32_t active(const BitVector& v) { return v.active_; }
  static std::uint32_t active_bits(const BitVector& v) { return v.active_bits_; }
  static void append_fill(BitVector& v, bool value, std::uint64_t groups) {
    v.append_fill(value, groups);
  }
  static void append_group(BitVector& v, std::uint32_t literal) {
    v.append_group(literal);
  }
  static void set_tail(BitVector& v, std::uint32_t active,
                       std::uint32_t active_bits) {
    v.active_ = active;
    v.active_bits_ = active_bits;
  }
  static void set_nbits(BitVector& v, std::uint64_t nbits) { v.nbits_ = nbits; }
  static void set_words(BitVector& v, std::vector<std::uint32_t> words) {
    v.words_ = std::move(words);
  }
};

/// A WAH vector read in place (DESIGN.md Section 9): its compressed words
/// wherever they live — a BitVector, or a segment of a mapped `.bmi` image
/// — plus its zero-padded tail group and the tail's width. Valid while the
/// words are; a BitVector converts to one, so tests and benches pass
/// vectors where a probe reads segments.
struct WahView {
  std::span<const std::uint32_t> words;
  std::uint32_t tail = 0;
  std::uint32_t tail_bits = 0;

  WahView() = default;
  WahView(std::span<const std::uint32_t> w, std::uint32_t t, std::uint32_t bits)
      : words(w), tail(t), tail_bits(bits) {}
  WahView(const BitVector& v)  // implicit on purpose, see above
      : words(BitVectorOps::words(v)),
        tail(BitVectorOps::active(v)),
        tail_bits(BitVectorOps::active_bits(v)) {}
};

/// Single-pass content walk of a WAH vector clipped to rows [begin, end):
/// zero fills are skipped arithmetically (never materialized), one-fill row
/// ranges are reported via on_ones(lo, hi), and maximal runs of literal
/// words are reported via on_groups(words, ngroups, base_row) *directly
/// over the compressed word array* — no intermediate dense-word buffer, so
/// an all-ones multi-billion-bit fill costs O(1) calls. Window-straddling
/// boundary groups are masked into a stack copy so consumers never see
/// out-of-window bits; a windowed walk still steps over the words before
/// `begin` one at a time, so sharded consumers pay O(shards * words)
/// aggregate skip work (sharded_tally caps the shard count). This is the
/// one WAH decoder of the kernel layer: to_positions_blocked, the gather
/// kernels and for_each_set_blocked all ride it.
template <bool kFullWindow, typename OnOnes, typename OnGroups>
void walk_content(const BitVector& v, std::uint64_t begin, std::uint64_t end,
                  OnOnes&& on_ones, OnGroups&& on_groups) {
  begin = std::min(begin, v.size());
  end = std::min(end, v.size());
  if (begin >= end) return;
  constexpr std::uint32_t G = BitVectorOps::kGroupBits;

  const auto emit_groups = [&](const std::uint32_t* groups, std::size_t ng,
                               std::uint64_t start) {
    if constexpr (kFullWindow) {
      // Full-window walk: WAH invariants put no content past size() and the
      // tail group is zero-padded, so no run needs clipping or masking —
      // this keeps the per-run cost of sparse bitmaps at the bare decode.
      on_groups(groups, ng, start);
      return;
    }
    const std::uint64_t stop = start + static_cast<std::uint64_t>(ng) * G;
    if (stop <= begin || start >= end) return;
    std::size_t g0 =
        start < begin ? static_cast<std::size_t>((begin - start) / G) : 0;
    const std::size_t g1 =
        stop > end ? static_cast<std::size_t>((end - start + G - 1) / G) : ng;
    const std::uint64_t first_base = start + static_cast<std::uint64_t>(g0) * G;
    const std::uint64_t last_base =
        start + static_cast<std::uint64_t>(g1 - 1) * G;
    const std::uint32_t drop_lo =
        begin > first_base ? static_cast<std::uint32_t>(begin - first_base) : 0;
    const std::uint32_t keep_hi =
        end < last_base + G ? static_cast<std::uint32_t>(end - last_base) : G;
    if (g0 + 1 == g1 && (drop_lo > 0 || keep_hi < G)) {
      std::uint32_t w = groups[g0] & BitVectorOps::kLiteralMask;
      if (drop_lo > 0) w &= ~0u << drop_lo;
      if (keep_hi < G) w &= (1u << keep_hi) - 1u;
      on_groups(&w, std::size_t{1}, first_base);
      return;
    }
    if (drop_lo > 0) {
      const std::uint32_t w =
          (groups[g0] & BitVectorOps::kLiteralMask) & (~0u << drop_lo);
      on_groups(&w, std::size_t{1}, first_base);
      ++g0;
    }
    const std::size_t mid_end = keep_hi < G ? g1 - 1 : g1;
    if (g0 < mid_end)
      on_groups(groups + g0, mid_end - g0,
                start + static_cast<std::uint64_t>(g0) * G);
    if (keep_hi < G) {
      const std::uint32_t w =
          (groups[g1 - 1] & BitVectorOps::kLiteralMask) & ((1u << keep_hi) - 1u);
      on_groups(&w, std::size_t{1}, last_base);
    }
  };

  const std::span<const std::uint32_t> words = BitVectorOps::words(v);
  const std::size_t nwords = words.size();
  std::uint64_t pos = 0;
  std::size_t i = 0;
  while (i < nwords && pos < end) {
    const std::uint32_t w = words[i];
    if (w & BitVectorOps::kFillFlag) {
      const std::uint64_t run =
          static_cast<std::uint64_t>(w & BitVectorOps::kCountMask) * G;
      if (w & BitVectorOps::kFillValueBit) {
        const std::uint64_t lo = std::max(pos, begin);
        const std::uint64_t hi = std::min(pos + run, end);
        if (lo < hi) on_ones(lo, hi);
      }
      pos += run;
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < nwords && !(words[j] & BitVectorOps::kFillFlag)) ++j;
    emit_groups(words.data() + i, j - i, pos);
    pos += static_cast<std::uint64_t>(j - i) * G;
    i = j;
  }
  if (pos < end && BitVectorOps::active_bits(v) > 0) {
    // The tail is one zero-padded literal group; rows past size() are zero
    // and end <= size(), so the window mask covers all clipping.
    const std::uint32_t tail = BitVectorOps::active(v);
    if (tail != 0) emit_groups(&tail, 1, pos);
  }
}

/// Invoke fn(row) for every set bit of @p v inside [begin, end), ascending,
/// over walk_content: one-fills become straight row loops (no per-bit
/// decode), and literal runs are fused two 31-bit groups at a time into one
/// 62-bit word walked with countr_zero — half the loop trips of a per-group
/// decode, which is what keeps this at parity with a dense-word decoder at
/// high selectivity. Rows stay 64-bit, so vectors past 2^32 rows work. The
/// scalar twin is BitVector::for_each_set.
template <typename Fn>
inline void for_each_set_blocked(const BitVector& v, std::uint64_t begin,
                                 std::uint64_t end, Fn&& fn) {
  constexpr std::uint64_t G = BitVectorOps::kGroupBits;
  const auto each_bit = [&](std::uint64_t bits, std::uint64_t base) {
    while (bits) {
      fn(base + static_cast<std::uint64_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  };
  const auto on_ones = [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t row = lo; row < hi; ++row) fn(row);
  };
  // Literal words have the fill flag (bit 31) clear, so two of them fuse
  // without masking.
  const auto on_groups = [&](const std::uint32_t* groups, std::size_t ng,
                             std::uint64_t base) {
    std::size_t g = 0;
    for (; g + 2 <= ng; g += 2, base += 2 * G)
      each_bit(groups[g] | (std::uint64_t{groups[g + 1]} << G), base);
    if (g < ng) each_bit(groups[g], base);
  };
  if (begin == 0 && end >= v.size())
    walk_content<true>(v, 0, v.size(), on_ones, on_groups);
  else
    walk_content<false>(v, begin, end, on_ones, on_groups);
}

/// Whole-vector variant of the windowed overload above.
template <typename Fn>
inline void for_each_set_blocked(const BitVector& v, Fn&& fn) {
  for_each_set_blocked(v, 0, v.size(), std::forward<Fn>(fn));
}

/// Conditional 1D histogram gather over the set rows of @p v in
/// [begin, end): counts[loc(values[row])]++. Walks the compressed words in
/// a single pass (zero fills skipped arithmetically, one-fills handed to
/// the dense accumulate kernel, literal runs position-extracted in
/// batches) and routes every inner loop through the SIMD dispatch table.
void gather_hist1d(const BitVector& v, std::uint64_t begin, std::uint64_t end,
                   const double* values, const Bins::Locator& loc,
                   std::uint64_t* counts);

/// Conditional 2D histogram gather (row-major counts[bx * ny + by]); same
/// single-pass structure as gather_hist1d.
void gather_hist2d(const BitVector& v, std::uint64_t begin, std::uint64_t end,
                   const double* xs, const double* ys,
                   const Bins::Locator& xloc, const Bins::Locator& yloc,
                   std::size_t ny, std::uint64_t* counts);

/// Set-bit positions of @p v via walk_content (one-runs are bulk appended;
/// strongly compressed bitmaps take a word-at-a-time scalar loop). Backs
/// BitVector::to_positions.
void to_positions_blocked(const BitVector& v, std::vector<std::uint32_t>& out);

/// Set-bit count via a single pass over the compressed words (fills are
/// arithmetic, literals popcount). Backs BitVector::count.
std::uint64_t count_words(const WahView& v);

/// One-pass range probe of an equality-encoded index (DESIGN.md Sections 3
/// and 10): the rows of [0, @p nrows) whose value lies in at least one of
/// @p ivs. ORs the segments of @p or_side into one accumulator of 31-bit
/// groups and, when @p complement, inverts it (the OR side then holds every
/// segment but the bins fully inside the union, so the inverse is exactly
/// those bins). Then the set bits of @p candidates that the accumulator
/// still lacks are checked against @p values in one ascending pass, and
/// survivors are ORed in. The result is recompressed once. Groups are
/// processed in fixed windows with a resumable cursor per segment, so
/// scratch stays bounded for any row count, and a window touches only the
/// groups some segment has content in. @p values must hold @p nrows values
/// unless @p candidates is empty (then it is never read). The operands are
/// views, so a probe reads index segments where they are mapped.
BitVector probe_intervals(std::span<const WahView> or_side, bool complement,
                          std::span<const WahView> candidates,
                          std::span<const Interval> ivs,
                          std::span<const double> values, std::uint64_t nrows);

/// The rows of @p values that lie in at least one of @p ivs, by the active
/// ISA's scan kernel (simd::Ops::scan_intervals): each window of groups is
/// compared in full and recompressed through the same loop as
/// probe_intervals. Bit-identical to a row-at-a-time Interval::contains.
BitVector scan_intervals(std::span<const double> values,
                         std::span<const Interval> ivs);

/// Nanoseconds per compressed word a probe reads, the probe side of the
/// range-step rule: bench_kernels probe_intervals/y/width=5%, ns_per_word
/// (median of three runs; BENCH_kernels.json holds one) — the row whose
/// probe time sits nearest a scan's, where the rule's verdict matters.
/// probe_intervals has no per-ISA body, so one constant serves every
/// level.
inline constexpr double kProbeNsPerWord = 3.5;

/// The range-step cost rule (DESIGN.md Section 3): true when a probe that
/// reads @p probe_words compressed words is estimated no slower than a
/// scan of @p rows rows with the active ISA's scan kernel.
bool probe_is_cheaper(std::uint64_t probe_words, std::uint64_t rows);

/// Shard [0, nrows) across the global thread pool, give each shard a private
/// zeroed count array of @p ncounts cells, and sum the partials into
/// @p counts at the end. fill(shard_begin, shard_end, partial) must only
/// write its partial array. @p work is the number of rows the fill tallies
/// (nrows for a dense pass, the set-bit count for a gather). Falls back to
/// a single direct fill(0, nrows, counts) when the work or the pool is too
/// small to shard.
void sharded_tally(std::uint64_t nrows, std::uint64_t work, std::size_t ncounts,
                   std::uint64_t* counts,
                   const std::function<void(std::uint64_t, std::uint64_t,
                                            std::uint64_t*)>& fill);

/// Test seam: explicit shard-count control (nshards <= 1 runs the direct
/// path).
void sharded_tally(std::uint64_t nrows, std::size_t ncounts,
                   std::uint64_t* counts,
                   const std::function<void(std::uint64_t, std::uint64_t,
                                            std::uint64_t*)>& fill,
                   std::size_t nshards);

}  // namespace qdv::kern
