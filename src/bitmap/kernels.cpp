#include "bitmap/kernels.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "bitmap/simd.hpp"
#include "parallel/thread_pool.hpp"

namespace qdv::kern {

// ------------------------------------------------------------------------
// Position / count / gather kernels
// ------------------------------------------------------------------------

namespace {

/// Row-batch capacity of the gather kernels below (plus position-kernel
/// overstore slack). Sized so per-batch costs (kernel-entry gate checks,
/// flush closures, vector-loop warmup) amortize to noise: at 1024 rows they
/// measured ~15% of gather_hist2d at sel=0.1 (≈1.5 us per batch across 390
/// batches); 8192-row batches cut that by 8x while the buffer (32 KiB)
/// still sits comfortably in L1/L2.
constexpr std::size_t kGatherBatch = 8192;

/// Literal runs at most this long decode inline (scalar ctz) instead of
/// through the dispatch table: the sparse half of the selectivity gate.
/// Low-selectivity bitmaps are isolated literal groups between fills, where
/// an indirect kernel call per one-group run would dominate the handful of
/// set bits; dense regions arrive as long runs and still take the table
/// (at 10% selectivity the mean literal run is already ~25 groups, so runs
/// this short only occur in the regime where scalar decode wins anyway).
constexpr std::size_t kInlineRunGroups = 4;

/// Density half of the selectivity gate: long literal runs can still be
/// nearly empty (at 1% selectivity the typical run is ~12 groups carrying
/// ~0.3 set bits each). The vector position kernels pay fixed work per
/// nonzero group while scalar ctz pays per set bit, so sample the head of
/// the run and require ~1.5 bits per group before taking the vector path.
/// The sampled words are about to be decoded either way, so the popcounts
/// are reads the decode would do anyway.
bool run_is_sparse(const std::uint32_t* groups, std::size_t ng) {
  // Sample up to 16 groups spread evenly across the run. Sampling only the
  // head mis-classifies long runs whose first words happen to be locally
  // dense, and a wrong "dense" verdict sends the whole run down the vector
  // path at densities where the scalar ctz loop wins.
  const std::size_t sample = std::min<std::size_t>(ng, 16);
  const std::size_t stride = ng / sample;
  std::uint32_t bits = 0;
  for (std::size_t g = 0; g < sample; ++g)
    bits += static_cast<std::uint32_t>(
        std::popcount(groups[g * stride] & BitVectorOps::kLiteralMask));
  if (bits * 2 < sample * 3) return true;
  // Short runs are counted exactly (stride 1). The vector kernel's fixed
  // entry cost needs a couple dozen set bits to amortize regardless of
  // density, so a tiny run that squeaked past the density check on a
  // handful of absolute bits still decodes scalar.
  return sample == ng && bits < 24;
}

std::size_t positions_inline(const std::uint32_t* groups, std::size_t ng,
                             std::uint64_t base, std::uint32_t* out) {
  std::size_t n = 0;
  for (std::size_t g = 0; g < ng; ++g) {
    std::uint32_t bits = groups[g] & BitVectorOps::kLiteralMask;
    const auto gbase =
        static_cast<std::uint32_t>(base + BitVectorOps::kGroupBits * g);
    while (bits) {
      out[n++] = gbase + static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
    }
  }
  return n;
}

/// Whole-call compression gate shared by the gather kernels, mirroring the
/// one in to_positions_blocked: a strongly compressed full-range bitmap
/// (more than ~8 groups covered per stored word) is isolated literals
/// between zero fills, and walk_content's run-detection scan plus the
/// per-run density gates cost several ns per emitted run — which at one
/// set bit per run dominates the actual gather work. Decode word-at-a-time
/// instead; one-fills still route through on_ones so an all-ones bitmap
/// (also just a few words) keeps its dense kernel. Returns false when the
/// bitmap is literal-dominated and the caller should take the run walk.
template <typename OnOnes, typename OnLiteral>
bool sparse_full_walk(const BitVector& v, OnOnes&& on_ones,
                      OnLiteral&& on_literal) {
  const std::span<const std::uint32_t> words = BitVectorOps::words(v);
  const std::uint64_t total_groups =
      (v.size() + BitVectorOps::kGroupBits - 1) / BitVectorOps::kGroupBits;
  if (words.size() * 8 >= total_groups) return false;
  std::uint64_t pos = 0;
  for (const std::uint32_t w : words) {
    if (w & BitVectorOps::kFillFlag) {
      const std::uint64_t run =
          static_cast<std::uint64_t>(w & BitVectorOps::kCountMask) *
          BitVectorOps::kGroupBits;
      if (w & BitVectorOps::kFillValueBit)
        on_ones(pos, std::min(pos + run, v.size()));
      pos += run;
    } else {
      on_literal(w, pos);
      pos += BitVectorOps::kGroupBits;
    }
  }
  if (BitVectorOps::active_bits(v) > 0) {
    const std::uint32_t tail = BitVectorOps::active(v);
    if (tail != 0) on_literal(tail, pos);
  }
  return true;
}

}  // namespace

void to_positions_blocked(const BitVector& v, std::vector<std::uint32_t>& out) {
  const simd::Ops& ops = simd::ops();
  // Dispatch counting records whether any vector-table kernel actually ran,
  // not merely which table was active at entry: the density gates below can
  // route an entire call through the scalar decode, and the --stats counters
  // (and the bench's same-code detection) want the route taken, not the
  // route available.
  bool used_vector = false;
  std::size_t n = 0;
  // Geometric growth with the position-kernel slack on top; trimmed at the
  // end once the exact count is known. vector::resize value-initializes the
  // grown region, so the incoming size is kept as a high-water mark (not
  // cleared) and padded by one maximal emit: a reused buffer then never
  // resizes mid-walk, where re-zeroing through the doubling sequence on
  // every call would cost more than the decode at low selectivity.
  const auto ensure = [&](std::uint64_t extra) {
    const std::size_t need =
        n + static_cast<std::size_t>(extra) + simd::kPositionSlack;
    if (out.size() < need) out.resize(std::max(need, out.size() * 2));
  };
  out.resize(out.size() +
             2 * (BitVectorOps::kGroupBits + simd::kPositionSlack));
  // Selectivity gate: a strongly compressed bitmap (few words relative to the
  // groups it covers) is isolated literals between zero fills. For that shape
  // the run-detection scan and per-run emit of walk_content cost more than the
  // handful of set bits are worth, so decode word-at-a-time with scalar ctz.
  // Dense bitmaps (literal-dominated) keep the run walk + vector kernels.
  const std::span<const std::uint32_t> words = BitVectorOps::words(v);
  const std::uint64_t total_groups =
      (v.size() + BitVectorOps::kGroupBits - 1) / BitVectorOps::kGroupBits;
  if (words.size() * 8 < total_groups) {
    // The decode loop runs a store per set bit and a capacity check per
    // word, so both work on raw pointers: `dst` is the write cursor and
    // `lim` the highest address a single literal may start writing at.
    // Re-derived only on the (rare) grow, which keeps the vector's
    // begin/size loads out of the hot loop.
    std::uint32_t* dst = out.data() + n;
    const std::uint32_t* lim = out.data() + out.size() -
                               simd::kPositionSlack - BitVectorOps::kGroupBits;
    const auto grow = [&](std::uint64_t extra) {
      n = static_cast<std::size_t>(dst - out.data());
      ensure(extra);
      dst = out.data() + n;
      lim = out.data() + out.size() - simd::kPositionSlack -
            BitVectorOps::kGroupBits;
    };
    std::uint64_t pos = 0;
    for (const std::uint32_t w : words) {
      if (w & BitVectorOps::kFillFlag) {
        const std::uint64_t run =
            static_cast<std::uint64_t>(w & BitVectorOps::kCountMask) *
            BitVectorOps::kGroupBits;
        if (w & BitVectorOps::kFillValueBit) {
          grow(run);
          auto row = static_cast<std::uint32_t>(pos);
          for (std::uint64_t k = 0; k < run; ++k) *dst++ = row++;
        }
        pos += run;
      } else {
        if (dst > lim) grow(BitVectorOps::kGroupBits);
        std::uint32_t bits = w;
        while (bits) {
          *dst++ = static_cast<std::uint32_t>(pos) +
                   static_cast<std::uint32_t>(std::countr_zero(bits));
          bits &= bits - 1;
        }
        pos += BitVectorOps::kGroupBits;
      }
    }
    if (std::uint32_t bits =
            BitVectorOps::active_bits(v) > 0 ? BitVectorOps::active(v) : 0;
        bits != 0) {
      if (dst > lim) grow(BitVectorOps::kGroupBits);
      while (bits) {
        *dst++ = static_cast<std::uint32_t>(pos) +
                 static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
      }
    }
    out.resize(static_cast<std::size_t>(dst - out.data()));
    simd::count_positions_call(false);
    return;
  }
  walk_content<true>(
      v, 0, v.size(),
      [&](std::uint64_t lo, std::uint64_t hi) {
        ensure(hi - lo);
        auto row = static_cast<std::uint32_t>(lo);
        for (std::uint64_t k = lo; k < hi; ++k) out[n++] = row++;
      },
      [&](const std::uint32_t* groups, std::size_t ng, std::uint64_t base) {
        ensure(static_cast<std::uint64_t>(ng) * BitVectorOps::kGroupBits);
        if (ng <= kInlineRunGroups || run_is_sparse(groups, ng)) {
          n += positions_inline(groups, ng, base, out.data() + n);
        } else {
          used_vector = ops.isa != simd::Isa::kScalar;
          n += ops.positions_from_groups(groups, ng, base, out.data() + n);
        }
      });
  out.resize(n);
  simd::count_positions_call(used_vector);
}

namespace {

/// The body gather_hist1d and gather_hist2d share: one walk of @p v over
/// [begin, end) that batches set rows into rows_kernel(table, rows, n) and
/// hands one-fill row ranges to dense_kernel(lo, hi). The selectivity gates
/// pick per literal run (inline ctz vs the position kernel) and per batch
/// (scalar vs active table). @p vector_hist says whether @p ops' entries
/// for this histogram family are vector kernels. Returns whether any vector
/// kernel ran, position extraction included: under AVX2 (scalar hist1d
/// bodies) a hist1d gather counts as vector exactly when it extracted rows
/// with the AVX2 position kernel.
template <typename RowsKernel, typename DenseKernel>
bool gather_driver(const BitVector& v, std::uint64_t begin, std::uint64_t end,
                   const simd::Ops& ops, bool vector_hist,
                   RowsKernel&& rows_kernel, DenseKernel&& dense_kernel) {
  const bool vector_positions = ops.isa != simd::Isa::kScalar;
  bool used_vector = false;
  std::array<std::uint32_t, kGatherBatch + simd::kPositionSlack> rows;
  std::size_t n = 0;
  // Sparse or tiny batches dispatch to the scalar table directly: the
  // vector kernels would route them to their internal fallback anyway, and
  // the baseline-compiled scalar body is the tuned one (vector-TU copies
  // of it compile under wider target flags).
  const simd::Ops& sco = simd::ops_for(simd::Isa::kScalar);
  const auto flush = [&] {
    if (n > 0) {
      const bool vec =
          n >= simd::kMinVectorRows && !simd::rows_are_sparse(rows.data(), n);
      used_vector |= vec && vector_hist;
      rows_kernel(vec ? ops : sco, rows.data(), n);
      n = 0;
    }
  };
  const auto on_ones = [&](std::uint64_t lo, std::uint64_t hi) {
    flush();
    // One-fill: the rows are contiguous — no index materialization.
    used_vector |= vector_hist;
    dense_kernel(lo, hi);
  };
  const auto on_groups = [&](const std::uint32_t* groups, std::size_t ng,
                             std::uint64_t base) {
    std::size_t g = 0;
    while (g < ng) {
      const std::size_t take =
          std::min(ng - g, (kGatherBatch - n) / BitVectorOps::kGroupBits);
      if (take == 0) {
        flush();
        continue;
      }
      const std::uint64_t b =
          base + static_cast<std::uint64_t>(g) * BitVectorOps::kGroupBits;
      if (take <= kInlineRunGroups || run_is_sparse(groups + g, take)) {
        n += positions_inline(groups + g, take, b, rows.data() + n);
      } else {
        used_vector |= vector_positions;
        n += ops.positions_from_groups(groups + g, take, b, rows.data() + n);
      }
      g += take;
    }
  };
  if (begin == 0 && end >= v.size()) {
    if (!sparse_full_walk(v, on_ones,
                          [&](std::uint32_t w, std::uint64_t base) {
                            if (n + BitVectorOps::kGroupBits > kGatherBatch)
                              flush();
                            n += positions_inline(&w, 1, base, rows.data() + n);
                          }))
      walk_content<true>(v, 0, v.size(), on_ones, on_groups);
  } else {
    walk_content<false>(v, begin, end, on_ones, on_groups);
  }
  flush();
  return used_vector;
}

}  // namespace

void gather_hist1d(const BitVector& v, std::uint64_t begin, std::uint64_t end,
                   const double* values, const Bins::Locator& loc,
                   std::uint64_t* counts) {
  const simd::Ops& ops = simd::ops();
  const simd::LocatorView L = loc.view();
  simd::count_hist1d_call(gather_driver(
      v, begin, end, ops, simd::has_vector_hist1d(ops),
      [&](const simd::Ops& table, const std::uint32_t* rows, std::size_t n) {
        table.hist1d_rows(rows, n, values, L, counts);
      },
      [&](std::uint64_t lo, std::uint64_t hi) {
        ops.hist1d_dense(values + lo, static_cast<std::size_t>(hi - lo), L,
                         counts);
      }));
}

void gather_hist2d(const BitVector& v, std::uint64_t begin, std::uint64_t end,
                   const double* xs, const double* ys,
                   const Bins::Locator& xloc, const Bins::Locator& yloc,
                   std::size_t ny, std::uint64_t* counts) {
  const simd::Ops& ops = simd::ops();
  const simd::LocatorView Lx = xloc.view();
  const simd::LocatorView Ly = yloc.view();
  simd::count_hist2d_call(gather_driver(
      v, begin, end, ops, simd::has_vector_hist2d(ops),
      [&](const simd::Ops& table, const std::uint32_t* rows, std::size_t n) {
        table.hist2d_rows(rows, n, xs, ys, Lx, Ly, ny, counts);
      },
      [&](std::uint64_t lo, std::uint64_t hi) {
        ops.hist2d_dense(xs + lo, ys + lo, static_cast<std::size_t>(hi - lo),
                         Lx, Ly, ny, counts);
      }));
}

std::uint64_t count_words(const WahView& v) {
  std::uint64_t total = 0;
  for (const std::uint32_t w : v.words) {
    if (w & BitVectorOps::kFillFlag) {
      if (w & BitVectorOps::kFillValueBit)
        total += static_cast<std::uint64_t>(w & BitVectorOps::kCountMask) *
                 BitVectorOps::kGroupBits;
    } else {
      total += static_cast<std::uint32_t>(std::popcount(w));
    }
  }
  total += static_cast<std::uint32_t>(std::popcount(v.tail));
  return total;
}

// ------------------------------------------------------------------------
// Interval probe and scan
// ------------------------------------------------------------------------

namespace {

/// Accumulator window of probe_intervals and scan_intervals, in 31-bit
/// groups: 32 KiB of scratch (about 254K rows) whatever the row count.
constexpr std::uint64_t kProbeWindowGroups = 8192;

/// Resumable group walk over one WAH vector, read in place: walk(n, ...)
/// visits the content of the next @p n groups, numbered from 0 in the
/// callbacks, with any fill that crosses the end kept for the next call.
/// Zero fills are skipped arithmetically; past the last word every group
/// reads as zero.
class GroupCursor {
 public:
  explicit GroupCursor(const WahView& v)
      : words_(v.words), tail_(v.tail), tail_pending_(v.tail_bits > 0) {}

  /// on_ones(g0, g1) for each one-fill stretch, on_literal(g, w) for each
  /// literal group (the zero-padded tail group included). Returns the
  /// groups [first, last) that content was reported in (first >= last when
  /// none was).
  template <typename OnOnes, typename OnLiteral>
  std::pair<std::uint64_t, std::uint64_t> walk(std::uint64_t end,
                                               OnOnes&& on_ones,
                                               OnLiteral&& on_literal) {
    std::uint64_t first = end, last = 0;
    // First the rest of a fill that crossed the previous window's end.
    std::uint64_t g = std::min(fill_left_, end);
    if (fill_ones_ && g > 0) {
      on_ones(0, g);
      first = 0;
      last = g;
    }
    fill_left_ -= g;
    // Locals in the hot loop: the callbacks' stores cannot then force the
    // cursor state back to memory on every word.
    const std::uint32_t* const words = words_.data();
    const std::size_t nwords = words_.size();
    std::size_t i = idx_;
    bool ones = false;  // the value of the last fill read
    while (g < end && i < nwords) {
      const std::uint32_t w = words[i++];
      if (w & BitVectorOps::kFillFlag) {
        ones = (w & BitVectorOps::kFillValueBit) != 0;
        const std::uint64_t stop = g + (w & BitVectorOps::kCountMask);
        if (ones) {
          first = std::min(first, g);
          last = std::min(stop, end);
          on_ones(g, last);
        }
        g = stop;  // may overshoot end: the rest is kept below
      } else {
        first = std::min(first, g);
        on_literal(g++, w);
        last = g;
      }
    }
    idx_ = i;
    if (g > end) {
      fill_left_ = g - end;
      fill_ones_ = ones;
    } else if (g < end && i == nwords && tail_pending_) {
      tail_pending_ = false;
      if (tail_ != 0) {
        first = std::min(first, g);
        on_literal(g, tail_);
        last = g + 1;
      }
    }
    return {first, last};
  }

 private:
  std::span<const std::uint32_t> words_;
  std::size_t idx_ = 0;
  std::uint32_t tail_;
  bool tail_pending_;
  std::uint64_t fill_left_ = 0;
  bool fill_ones_ = false;
};

/// Append @p n groups of one value to compressed @p words, extending a
/// trailing fill of the same value (BitVector's append_fill, inline: the
/// recompress loop would otherwise pay a call per group).
void put_fill(std::vector<std::uint32_t>& words, bool ones, std::uint64_t n) {
  const std::uint32_t head =
      BitVectorOps::kFillFlag | (ones ? BitVectorOps::kFillValueBit : 0u);
  if (!words.empty() && (words.back() & ~BitVectorOps::kCountMask) == head) {
    const std::uint64_t have = words.back() & BitVectorOps::kCountMask;
    const std::uint64_t take =
        std::min<std::uint64_t>(n, BitVectorOps::kCountMask - have);
    words.back() = head | static_cast<std::uint32_t>(have + take);
    n -= take;
  }
  while (n > 0) {
    const std::uint64_t take = std::min<std::uint64_t>(n, BitVectorOps::kCountMask);
    words.push_back(head | static_cast<std::uint32_t>(take));
    n -= take;
  }
}

/// The one recompress loop of the window kernels (probe_intervals and
/// scan_intervals): append full groups [0, @p stop) of the window
/// accumulator @p a to @p words — groups outside [lo, hi) as fills of
/// @p background, the rest as fills or literals by content — zeroing the
/// accumulator as it is read.
void encode_window(std::vector<std::uint32_t>& words, std::uint32_t* a,
                   std::uint64_t lo, std::uint64_t hi, std::uint64_t stop,
                   bool background) {
  constexpr std::uint32_t kAll = BitVectorOps::kLiteralMask;
  const std::uint64_t dense_lo = std::min(lo, stop);
  const std::uint64_t dense_hi = std::max(dense_lo, std::min(hi, stop));
  put_fill(words, background, dense_lo);
  for (std::uint64_t g = dense_lo; g < dense_hi;) {
    const std::uint32_t w = a[g];
    if (w == 0 || w == kAll) {
      std::uint64_t e = g + 1;
      while (e < dense_hi && a[e] == w) ++e;
      put_fill(words, w != 0, e - g);
      std::fill(a + g, a + e, 0u);
      g = e;
    } else {
      words.push_back(w);
      a[g++] = 0;
    }
  }
  put_fill(words, background, stop - dense_hi);
}

/// The vector of @p nrows bits whose full groups are @p words and whose
/// ragged last group (if any) is @p tail_word. Trims an over-reserved word
/// array to the slack growth by doubling would have left: cached results
/// are charged by capacity.
BitVector finish_vector(std::vector<std::uint32_t> words, std::uint64_t nrows,
                        std::uint32_t tail_word) {
  constexpr std::uint32_t G = BitVectorOps::kGroupBits;
  if (words.capacity() > 2 * words.size()) words.shrink_to_fit();
  const std::uint64_t full_groups = nrows / G;
  const auto tail_bits = static_cast<std::uint32_t>(nrows - full_groups * G);
  BitVector out;
  BitVectorOps::set_words(out, std::move(words));
  BitVectorOps::set_nbits(out, full_groups * G);
  if (tail_bits > 0) {
    BitVectorOps::set_tail(out, tail_word, tail_bits);
    BitVectorOps::set_nbits(out, nrows);
  }
  return out;
}

}  // namespace

BitVector probe_intervals(std::span<const WahView> or_side, bool complement,
                          std::span<const WahView> candidates,
                          std::span<const Interval> ivs,
                          std::span<const double> values, std::uint64_t nrows) {
  constexpr std::uint32_t G = BitVectorOps::kGroupBits;
  constexpr std::uint32_t kAll = BitVectorOps::kLiteralMask;
  const std::uint64_t full_groups = nrows / G;
  const auto tail_bits = static_cast<std::uint32_t>(nrows - full_groups * G);
  const std::uint64_t ngroups = full_groups + (tail_bits > 0 ? 1 : 0);
  const std::uint32_t tail_mask = (1u << tail_bits) - 1u;
  if (!candidates.empty() && values.size() < nrows)
    throw std::invalid_argument("probe_intervals: column shorter than nrows");
  if (or_side.empty() && candidates.empty())  // nothing to read
    return complement ? BitVector::ones(nrows) : BitVector::zeros(nrows);

  std::vector<GroupCursor> ors(or_side.begin(), or_side.end());
  std::vector<GroupCursor> cands(candidates.begin(), candidates.end());
  // Branch-free membership: candidate outcomes are data-dependent coin
  // flips, and the endpoint flags are the same for every row.
  const auto matches = [&](double x) {
    bool in = false;
    for (const Interval& iv : ivs)
      in |= (iv.lo_open ? x > iv.lo : x >= iv.lo) &
            (iv.hi_open ? x < iv.hi : x <= iv.hi);
    return in;
  };

  // The accumulator, and the candidates' bits when there are candidates;
  // both indexed by group - w0 and all zero between windows, so a window
  // touches only the groups its content reaches.
  const auto window = static_cast<std::size_t>(std::min(ngroups, kProbeWindowGroups));
  std::vector<std::uint32_t> acc(window), cand_bits(cands.empty() ? 0 : window);
  std::uint32_t* const a = acc.data();
  std::uint32_t* const c = cand_bits.data();
  // The recompressed result, reserved once rather than regrown (each
  // regrowth copies and faults in fresh pages). An output word is a literal
  // where some input has one, or a fill between them, so twice the input
  // words is the usual ceiling (candidate one-fills can exceed it: the
  // vector then just grows), and no result has more words than groups.
  std::uint64_t input_words = 0;
  for (const WahView& v : or_side) input_words += v.words.size();
  for (const WahView& v : candidates) input_words += v.words.size();
  std::vector<std::uint32_t> words;
  words.reserve(static_cast<std::size_t>(std::min(full_groups, 2 * input_words + 1)));
  std::uint32_t tail_word = complement ? tail_mask : 0u;
  for (std::uint64_t w0 = 0; w0 < ngroups; w0 += kProbeWindowGroups) {
    const std::uint64_t n = std::min(kProbeWindowGroups, ngroups - w0);
    // The window's last group is the ragged tail group, if there is one.
    const std::uint64_t tail_at =
        (w0 + n == ngroups && tail_bits > 0) ? n - 1 : n;
    // [lo, hi): the groups any content reached. Outside it every group is
    // zero before the inversion, so it recompresses as one fill.
    std::uint64_t lo = n, hi = 0;
    const auto touched = [&](std::pair<std::uint64_t, std::uint64_t> r) {
      if (r.first < r.second) {
        lo = std::min(lo, r.first);
        hi = std::max(hi, r.second);
      }
    };
    for (GroupCursor& cur : ors)
      touched(cur.walk(
          n,
          [a](std::uint64_t g0, std::uint64_t g1) {
            std::fill(a + g0, a + g1, BitVectorOps::kLiteralMask);
          },
          [a](std::uint64_t g, std::uint32_t w) { a[g] |= w; }));
    std::uint64_t clo = n, chi = 0;
    for (GroupCursor& cur : cands) {
      const auto r = cur.walk(
          n,
          [c](std::uint64_t g0, std::uint64_t g1) {
            std::fill(c + g0, c + g1, BitVectorOps::kLiteralMask);
          },
          [c](std::uint64_t g, std::uint32_t w) { c[g] |= w; });
      if (r.first < r.second) {
        clo = std::min(clo, r.first);
        chi = std::max(chi, r.second);
      }
    }
    touched({clo, chi});
    if (complement)
      for (std::uint64_t g = lo; g < hi; ++g) a[g] = ~a[g] & kAll;
    if (lo <= tail_at && tail_at < hi) {
      a[tail_at] &= tail_mask;
      if (clo < chi) c[tail_at] &= tail_mask;
    }

    // Candidate rows: one ascending pass over the column, checking only
    // the bits the accumulator lacks — each row is read once however many
    // candidate segments hold it.
    if (clo < chi) {
      const double* const window_rows = values.data() + w0 * G;
      for (std::uint64_t g = clo; g < chi; ++g) {
        std::uint32_t bits = c[g] & ~a[g];
        c[g] = 0;
        const double* const row = window_rows + g * G;
        std::uint32_t hits = 0;
        while (bits) {
          const auto bit = static_cast<std::uint32_t>(std::countr_zero(bits));
          bits &= bits - 1;
          hits |= static_cast<std::uint32_t>(matches(row[bit])) << bit;
        }
        a[g] |= hits;
      }
    }

    // Recompress the window's full groups: a fill up to lo, the touched
    // groups, a fill after hi.
    encode_window(words, a, lo, hi, std::min(n, tail_at), complement);
    if (lo <= tail_at && tail_at < hi) {
      tail_word = a[tail_at];
      a[tail_at] = 0;
    }
  }
  return finish_vector(std::move(words), nrows, tail_word);
}

BitVector scan_intervals(std::span<const double> values,
                         std::span<const Interval> ivs) {
  constexpr std::uint32_t G = BitVectorOps::kGroupBits;
  const std::uint64_t nrows = values.size();
  const std::uint64_t full_groups = nrows / G;
  const std::uint64_t ngroups = (nrows + G - 1) / G;
  const simd::Ops& ops = simd::ops();
  std::vector<std::uint32_t> acc(
      static_cast<std::size_t>(std::min(ngroups, kProbeWindowGroups)));
  // A literal per group is the most a scan result can hold.
  std::vector<std::uint32_t> words;
  words.reserve(static_cast<std::size_t>(full_groups));
  std::uint32_t tail_word = 0;
  for (std::uint64_t w0 = 0; w0 < ngroups; w0 += kProbeWindowGroups) {
    const std::uint64_t n = std::min(kProbeWindowGroups, ngroups - w0);
    const std::uint64_t row0 = w0 * G;
    ops.scan_intervals(values.data() + row0,
                       static_cast<std::size_t>(std::min(n * G, nrows - row0)),
                       ivs.data(), ivs.size(), acc.data());
    const std::uint64_t stop = std::min(n, full_groups - w0);
    if (stop < n) tail_word = acc[stop];
    encode_window(words, acc.data(), 0, stop, stop, false);
  }
  return finish_vector(std::move(words), nrows, tail_word);
}

bool probe_is_cheaper(std::uint64_t probe_words, std::uint64_t rows) {
  return static_cast<double>(probe_words) * kProbeNsPerWord <=
         static_cast<double>(rows) * simd::ops().scan_ns_per_row;
}

// ------------------------------------------------------------------------
// Sharded tally
// ------------------------------------------------------------------------

void sharded_tally(std::uint64_t nrows, std::size_t ncounts,
                   std::uint64_t* counts,
                   const std::function<void(std::uint64_t, std::uint64_t,
                                            std::uint64_t*)>& fill,
                   std::size_t nshards) {
  nshards = std::min<std::uint64_t>(nshards, nrows);
  if (nshards <= 1) {
    fill(0, nrows, counts);
    return;
  }
  std::vector<std::vector<std::uint64_t>> partials(
      nshards, std::vector<std::uint64_t>(ncounts, 0));
  par::ThreadPool::global().parallel_for(
      nshards, nshards, [&](std::size_t s) {
        const std::uint64_t begin = nrows * s / nshards;
        const std::uint64_t end = nrows * (s + 1) / nshards;
        fill(begin, end, partials[s].data());
      });
  for (const std::vector<std::uint64_t>& partial : partials)
    for (std::size_t i = 0; i < ncounts; ++i) counts[i] += partial[i];
}

void sharded_tally(std::uint64_t nrows, std::uint64_t work, std::size_t ncounts,
                   std::uint64_t* counts,
                   const std::function<void(std::uint64_t, std::uint64_t,
                                            std::uint64_t*)>& fill) {
  // Inside a VirtualCluster task (or any SerialSection) fan-out is
  // forbidden: per-task timings feed the makespan model.
  if (par::SerialSection::active()) {
    fill(0, nrows, counts);
    return;
  }
  const std::size_t workers = par::ThreadPool::global().size() + 1;
  // Sharding pays an O(shards * ncounts) merge: only worth it when the table
  // is big enough to pay the per-shard setup and the rows tallied dominate
  // the bin count (on a 4-vCPU Xeon, 500 set rows of 4M into 256x256 bins
  // take 11 us on one shard and ~3 ms on four, nearly all of it partials).
  // The partial arrays are scratch outside the io::MemoryBudget, so cap
  // their total at 32 MiB — on many-core hosts with big 2D bin grids this
  // trims the shard count instead of letting the transient burst blow past
  // the configured out-of-core ceiling.
  constexpr std::uint64_t kMaxScratchBytes = std::uint64_t{32} << 20;
  const std::uint64_t scratch_per_shard =
      static_cast<std::uint64_t>(ncounts) * sizeof(std::uint64_t);
  const std::size_t max_shards_by_mem = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, kMaxScratchBytes / std::max<std::uint64_t>(
                                                        1, scratch_per_shard)));
  const bool big = nrows >= (std::uint64_t{1} << 17) &&
                   work >= static_cast<std::uint64_t>(ncounts) * 8;
  const std::size_t nshards = std::min(workers, max_shards_by_mem);
  sharded_tally(nrows, ncounts, counts, fill, (big && nshards > 1) ? nshards : 1);
}

}  // namespace qdv::kern
