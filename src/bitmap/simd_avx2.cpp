// AVX2 level of the SIMD dispatch layer. Compiled with -mavx2 (per-file
// flag set in CMakeLists.txt); when the compiler lacks that target the TU
// degrades to a nullptr accessor and runtime dispatch skips the level.
//
// Kernels:
//  - position extraction: per 31-bit WAH literal group, branchless byte-LUT
//    expansion (kBytePositions + cvtepu8 widen + vector store) of all four
//    bytes — the sparse inline gate in kernels.cpp keeps short literal runs
//    out of this TU, and for the runs that do arrive a popcount gate's
//    mispredicts cost more than emitting empty bytes.
//  - locate: 4-lane uniform locate (cvttpd + clamp + edge settle; affine
//    bin sets synthesize the verify edges in-register, others gather them)
//    and 4-lane branchless halving search over the cached edges, exact
//    lane-wise twins of Bins::Locator (NaN fails the ordered compares and
//    routes to -1 exactly like the scalar path).
//  - hist2d accumulate: gathered values -> vector locate -> bin indices
//    spilled to a lane buffer and accumulated scalar per lane, which is
//    conflict-safe by construction (no scatter) and exact for duplicate
//    bins within a vector. Batches whose rows are very sparse (average
//    spacing past a cache line) stay scalar: the gathers are latency-bound
//    there and vector setup cannot win. The hist1d entries point at the
//    scalar level's bodies.
//  - interval scan: one group's 31 rows as eight 4-lane vectors (the last
//    one a masked load, so nothing past the column is read), two ordered
//    compares per interval, movemask into the group's bits. External
//    linkage: the AVX-512 table points its scan entry here too.
#include "simd_common.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace qdv::simd {

namespace {

/// Compress a 4x64-bit double compare mask into 4x32-bit integer lanes.
inline __m128i mask_pd_to_epi32(__m256d m) {
  const __m256i perm = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  return _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(m), perm));
}

/// 4-lane twin of the uniform branch of Bins::Locator::operator(). When
/// kAffine, the verify edges are synthesized as bin * width + lo (separate
/// mul and add, the exact rounding the affine detection in bins.cpp pinned
/// down) instead of gathered — the settle comparisons see bit-identical
/// edge values either way, so the result matches the scalar path exactly.
template <bool kAffine>
inline __m128i locate4_uniform(const LocatorView& L, __m256d v) {
  const __m256d lo = _mm256_set1_pd(L.lo);
  const __m128i valid = mask_pd_to_epi32(
      _mm256_and_pd(_mm256_cmp_pd(v, lo, _CMP_GE_OQ),
                    _mm256_cmp_pd(v, _mm256_set1_pd(L.hi), _CMP_LE_OQ)));
  const __m256d t =
      _mm256_mul_pd(_mm256_sub_pd(v, lo), _mm256_set1_pd(L.inv_width));
  const __m128i last4 = _mm_set1_epi32(static_cast<int>(L.last));
  __m128i bin = _mm_min_epi32(_mm256_cvttpd_epi32(t), last4);
  // Valid lanes satisfy 0 <= bin <= last; route invalid lanes (NaN converts
  // to INT_MIN) to index 0 so the edge gathers stay in bounds.
  const __m128i bing = _mm_blendv_epi8(_mm_setzero_si128(), bin, valid);
  const __m128i bing1 = _mm_add_epi32(bing, _mm_set1_epi32(1));
  __m256d e0, e1;
  if constexpr (kAffine) {
    const __m256d w = _mm256_set1_pd(L.width);
    e0 = _mm256_add_pd(_mm256_mul_pd(_mm256_cvtepi32_pd(bing), w), lo);
    // e1 at bing == last is never used (the inc mask requires bing < last),
    // so synthesizing past the checked affine range is harmless.
    e1 = _mm256_add_pd(_mm256_mul_pd(_mm256_cvtepi32_pd(bing1), w), lo);
  } else {
    e0 = _mm256_i32gather_pd(L.edges, bing, 8);
    // bing + 1 <= last + 1 = nedges - 1: always a readable edge.
    e1 = _mm256_i32gather_pd(L.edges, bing1, 8);
  }
  const __m128i dec = mask_pd_to_epi32(_mm256_cmp_pd(v, e0, _CMP_LT_OQ));
  __m128i inc = mask_pd_to_epi32(_mm256_cmp_pd(v, e1, _CMP_GE_OQ));
  inc = _mm_andnot_si128(dec, _mm_and_si128(inc, _mm_cmplt_epi32(bing, last4)));
  // Mask lanes hold -1: adding dec decrements, subtracting inc increments.
  bin = _mm_sub_epi32(_mm_add_epi32(bing, dec), inc);
  return _mm_blendv_epi8(_mm_set1_epi32(-1), bin, valid);
}

/// 4-lane twin of the halving-search branch: every lane takes the same
/// fixed halving sequence, so the result matches the scalar search exactly.
inline __m128i locate4_search(const LocatorView& L, __m256d v) {
  const __m128i valid = mask_pd_to_epi32(
      _mm256_and_pd(_mm256_cmp_pd(v, _mm256_set1_pd(L.lo), _CMP_GE_OQ),
                    _mm256_cmp_pd(v, _mm256_set1_pd(L.hi), _CMP_LE_OQ)));
  __m128i idx = _mm_setzero_si128();
  std::size_t n = L.nedges;
  while (n > 1) {
    const std::size_t half = n / 2;
    const __m128i halves = _mm_set1_epi32(static_cast<int>(half));
    // idx + half < nedges holds for every lane (same invariant as scalar).
    const __m256d e = _mm256_i32gather_pd(L.edges, _mm_add_epi32(idx, halves), 8);
    const __m128i le = mask_pd_to_epi32(_mm256_cmp_pd(e, v, _CMP_LE_OQ));
    idx = _mm_add_epi32(idx, _mm_and_si128(halves, le));
    n -= half;
  }
  idx = _mm_min_epi32(idx, _mm_set1_epi32(static_cast<int>(L.last)));
  return _mm_blendv_epi8(_mm_set1_epi32(-1), idx, valid);
}

inline __m128i locate4(const LocatorView& L, __m256d v) {
  if (!L.uniform) return locate4_search(L, v);
  return L.affine ? locate4_uniform<true>(L, v) : locate4_uniform<false>(L, v);
}

inline std::size_t emit_byte(std::uint32_t m, std::uint32_t base,
                             std::uint32_t* out) {
  const __m256i pos = _mm256_cvtepu8_epi32(
      _mm_cvtsi64_si128(static_cast<long long>(kBytePositions[m])));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_add_epi32(pos, _mm256_set1_epi32(
                                                static_cast<int>(base))));
  return static_cast<std::size_t>(std::popcount(m));
}

std::size_t positions_from_groups_avx2(const std::uint32_t* groups,
                                       std::size_t ngroups, std::uint64_t base,
                                       std::uint32_t* out) {
  std::size_t n = 0;
  for (std::size_t g = 0; g < ngroups; ++g) {
    const std::uint32_t bits = groups[g] & 0x7FFFFFFFu;
    if (bits == 0) continue;
    const auto gbase = static_cast<std::uint32_t>(base + 31 * g);
    // No per-group density gate here: short literal runs (the sparse
    // regime where ctz would win) are decoded inline by the dispatcher
    // (kInlineRunGroups) and never reach this kernel, so a gate would only
    // add mispredicted branches to the dense regime.
    // All four bytes emitted unconditionally: an empty byte stores eight
    // dead lanes past the live prefix (covered by kPositionSlack) and
    // advances by zero, which is cheaper than a mispredicted skip.
    n += emit_byte(bits & 0xFFu, gbase, out + n);
    n += emit_byte((bits >> 8) & 0xFFu, gbase + 8, out + n);
    n += emit_byte((bits >> 16) & 0xFFu, gbase + 16, out + n);
    n += emit_byte(bits >> 24, gbase + 24, out + n);
  }
  return n;
}

void hist2d_rows_avx2(const std::uint32_t* rows, std::size_t n,
                      const double* xs, const double* ys,
                      const LocatorView& xloc, const LocatorView& yloc,
                      std::size_t ny, std::uint64_t* counts) {
  if (xloc.empty || yloc.empty || n < kMinVectorRows ||
      rows_are_sparse(rows, n)) {
    hist2d_rows_scalar(rows, n, xs, ys, xloc, yloc, ny, counts);
    return;
  }
  alignas(16) std::int32_t bx[4];
  alignas(16) std::int32_t by[4];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 20 <= n)
      for (int l = 0; l < 4; ++l) {
        _mm_prefetch(reinterpret_cast<const char*>(xs + rows[i + 16 + l]),
                     _MM_HINT_T0);
        _mm_prefetch(reinterpret_cast<const char*>(ys + rows[i + 16 + l]),
                     _MM_HINT_T0);
      }
    const __m128i r =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + i));
    _mm_store_si128(reinterpret_cast<__m128i*>(bx),
                    locate4(xloc, _mm256_i32gather_pd(xs, r, 8)));
    _mm_store_si128(reinterpret_cast<__m128i*>(by),
                    locate4(yloc, _mm256_i32gather_pd(ys, r, 8)));
    for (int l = 0; l < 4; ++l)
      if (bx[l] >= 0 && by[l] >= 0)
        ++counts[static_cast<std::size_t>(bx[l]) * ny +
                 static_cast<std::size_t>(by[l])];
  }
  hist2d_rows_scalar(rows + i, n - i, xs, ys, xloc, yloc, ny, counts);
}

void hist2d_dense_avx2(const double* xs, const double* ys, std::size_t n,
                       const LocatorView& xloc, const LocatorView& yloc,
                       std::size_t ny, std::uint64_t* counts) {
  if (xloc.empty || yloc.empty || n < kMinVectorRows) {
    hist2d_dense_scalar(xs, ys, n, xloc, yloc, ny, counts);
    return;
  }
  alignas(16) std::int32_t bx[4];
  alignas(16) std::int32_t by[4];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_store_si128(reinterpret_cast<__m128i*>(bx),
                    locate4(xloc, _mm256_loadu_pd(xs + i)));
    _mm_store_si128(reinterpret_cast<__m128i*>(by),
                    locate4(yloc, _mm256_loadu_pd(ys + i)));
    for (int l = 0; l < 4; ++l)
      if (bx[l] >= 0 && by[l] >= 0)
        ++counts[static_cast<std::size_t>(bx[l]) * ny +
                 static_cast<std::size_t>(by[l])];
  }
  hist2d_dense_scalar(xs + i, ys + i, n - i, xloc, yloc, ny, counts);
}

/// Bits 0-30 of one group: the 31 rows in eight 4-lane vectors (the last
/// lane of @p v[7] is the next group's first row, or zero past the column,
/// and is masked off) compared against one interval's bounds.
template <int kLoCmp, int kHiCmp>
inline std::uint32_t group_in_interval(const __m256d* v, __m256d lo,
                                       __m256d hi) {
  std::uint32_t word = 0;
  for (int q = 0; q < 8; ++q) {
    const __m256d in = _mm256_and_pd(_mm256_cmp_pd(v[q], lo, kLoCmp),
                                     _mm256_cmp_pd(v[q], hi, kHiCmp));
    word |= static_cast<std::uint32_t>(_mm256_movemask_pd(in)) << (4 * q);
  }
  return word & 0x7FFFFFFFu;
}

// The hist1d entries are the scalar table's own bodies: four-lane gather +
// locate measured a median 1.21x over scalar at sel=0.5, under the 1.5x a
// vector family needs to be kept (DESIGN.md Section 12). hist2d, with two
// locates per row, measured 1.53x and stays.
constexpr Ops kAvx2Ops = {
    Isa::kAvx2,
    &positions_from_groups_avx2,
    &detail::hist1d_rows_baseline,
    &hist2d_rows_avx2,
    &detail::hist1d_dense_baseline,
    &hist2d_dense_avx2,
    &detail::scan_intervals_avx2,
    // bench_kernels scan_intervals/y/isa=avx2, ns_per_row (median of
    // three runs; BENCH_kernels.json holds one).
    0.47,
};

}  // namespace

namespace detail {

void scan_intervals_avx2(const double* values, std::size_t nrows,
                         const Interval* ivs, std::size_t nivs,
                         std::uint32_t* groups) {
  const std::size_t full = nrows / 31;
  const __m256i last_lanes = _mm256_setr_epi64x(-1, -1, -1, 0);
  for (std::size_t g = 0; g < full; ++g) {
    const double* row = values + 31 * g;
    __m256d v[8];
    for (int q = 0; q < 7; ++q) v[q] = _mm256_loadu_pd(row + 4 * q);
    // The masked load reads rows 28-30 only: no value past the column.
    v[7] = _mm256_maskload_pd(row + 28, last_lanes);
    std::uint32_t word = 0;
    for (std::size_t k = 0; k < nivs; ++k) {
      const __m256d lo = _mm256_set1_pd(ivs[k].lo);
      const __m256d hi = _mm256_set1_pd(ivs[k].hi);
      // Ordered, non-signalling predicates: a NaN on either side is false.
      switch (ivs[k].lo_open * 2 + ivs[k].hi_open) {
        case 0: word |= group_in_interval<_CMP_GE_OQ, _CMP_LE_OQ>(v, lo, hi); break;
        case 1: word |= group_in_interval<_CMP_GE_OQ, _CMP_LT_OQ>(v, lo, hi); break;
        case 2: word |= group_in_interval<_CMP_GT_OQ, _CMP_LE_OQ>(v, lo, hi); break;
        default: word |= group_in_interval<_CMP_GT_OQ, _CMP_LT_OQ>(v, lo, hi); break;
      }
    }
    groups[g] = word;
  }
  if (nrows > 31 * full)
    scan_intervals_scalar(values + 31 * full, nrows - 31 * full, ivs, nivs,
                          groups + full);
}

const Ops* avx2_ops() { return &kAvx2Ops; }

}  // namespace detail

}  // namespace qdv::simd

#else  // !defined(__AVX2__)

namespace qdv::simd::detail {
const Ops* avx2_ops() { return nullptr; }
}  // namespace qdv::simd::detail

#endif
