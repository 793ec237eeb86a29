// AVX-512 level of the SIMD dispatch layer. Compiled with
// -mavx512f -mavx512dq -mavx512bw -mavx512vl (per-file flags set in
// CMakeLists.txt); runtime dispatch requires the matching CPUID bits, and
// when the compiler lacks the target the TU degrades to a nullptr accessor.
//
// Position extraction uses mask-compress stores: each 16-bit half of a
// literal group becomes a __mmask16 driving _mm512_mask_compressstoreu_epi32
// over an iota+base vector, writing exactly popcount lanes (no overstore).
// The loop is branchless past an empty-group skip — no per-group popcount
// gate — because at the mixed densities that reach this TU (the sparse
// inline gate in kernels.cpp already keeps short literal runs scalar) the
// mispredicted gates cost more than redundant compress stores. The locate
// and histogram kernels are 8-lane gather + locate loops with native
// __mmask8 predication; uniform bin sets
// with bit-exactly affine edges (LocatorView::affine) synthesize their
// verify edges in-register instead of gathering them, and hist2d runs two
// phases (vector bin compute + compressed flat indices, then a prefetched
// increment pass) to decouple the serial counts updates from the gathers.
// The interval scan entry is the AVX2 level's body: an 8-lane twin measured
// no faster on a million-row column, where the scan is memory-bound.
#include "simd_common.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

namespace qdv::simd {

namespace {

/// 8-lane twin of the uniform branch of Bins::Locator::operator(). When
/// kAffine, the verify edges are synthesized as bin * width + lo (separate
/// mul and add, the exact rounding the affine detection in bins.cpp pinned
/// down) instead of gathered — the settle comparisons see bit-identical
/// edge values either way, so the result matches the scalar path exactly.
template <bool kAffine>
inline __m256i locate8_uniform(const LocatorView& L, __m512d v) {
  const __m512d lo = _mm512_set1_pd(L.lo);
  const __mmask8 valid =
      _mm512_cmp_pd_mask(v, lo, _CMP_GE_OQ) &
      _mm512_cmp_pd_mask(v, _mm512_set1_pd(L.hi), _CMP_LE_OQ);
  const __m512d t =
      _mm512_mul_pd(_mm512_sub_pd(v, lo), _mm512_set1_pd(L.inv_width));
  const __m256i last8 = _mm256_set1_epi32(static_cast<int>(L.last));
  const __m256i bin = _mm256_min_epi32(_mm512_cvttpd_epi32(t), last8);
  // Valid lanes satisfy 0 <= bin <= last; zero invalid lanes (NaN converts
  // to INT_MIN) so the edge gathers stay in bounds.
  const __m256i bing = _mm256_maskz_mov_epi32(valid, bin);
  const __m256i bing1 = _mm256_add_epi32(bing, _mm256_set1_epi32(1));
  __m512d e0, e1;
  if constexpr (kAffine) {
    const __m512d w = _mm512_set1_pd(L.width);
    e0 = _mm512_add_pd(_mm512_mul_pd(_mm512_cvtepi32_pd(bing), w), lo);
    // e1 at bing == last is never used (the inc mask requires bing < last),
    // so synthesizing past the checked affine range is harmless.
    e1 = _mm512_add_pd(_mm512_mul_pd(_mm512_cvtepi32_pd(bing1), w), lo);
  } else {
    e0 = _mm512_i32gather_pd(bing, L.edges, 8);
    // bing + 1 <= last + 1 = nedges - 1: always a readable edge.
    e1 = _mm512_i32gather_pd(bing1, L.edges, 8);
  }
  const __mmask8 dec = _mm512_cmp_pd_mask(v, e0, _CMP_LT_OQ);
  const __mmask8 inc = static_cast<__mmask8>(
      _mm512_cmp_pd_mask(v, e1, _CMP_GE_OQ) &
      _mm256_cmp_epi32_mask(bing, last8, _MM_CMPINT_LT) & ~dec);
  __m256i r = _mm256_mask_sub_epi32(bing, dec, bing, _mm256_set1_epi32(1));
  r = _mm256_mask_add_epi32(r, inc, r, _mm256_set1_epi32(1));
  return _mm256_mask_mov_epi32(_mm256_set1_epi32(-1), valid, r);
}

/// 8-lane twin of the halving-search branch (same fixed halving sequence).
inline __m256i locate8_search(const LocatorView& L, __m512d v) {
  const __mmask8 valid =
      _mm512_cmp_pd_mask(v, _mm512_set1_pd(L.lo), _CMP_GE_OQ) &
      _mm512_cmp_pd_mask(v, _mm512_set1_pd(L.hi), _CMP_LE_OQ);
  __m256i idx = _mm256_setzero_si256();
  std::size_t n = L.nedges;
  while (n > 1) {
    const std::size_t half = n / 2;
    const __m256i halves = _mm256_set1_epi32(static_cast<int>(half));
    // idx + half < nedges holds for every lane (same invariant as scalar).
    const __m512d e =
        _mm512_i32gather_pd(_mm256_add_epi32(idx, halves), L.edges, 8);
    const __mmask8 le = _mm512_cmp_pd_mask(e, v, _CMP_LE_OQ);
    idx = _mm256_mask_add_epi32(idx, le, idx, halves);
    n -= half;
  }
  idx = _mm256_min_epi32(idx, _mm256_set1_epi32(static_cast<int>(L.last)));
  return _mm256_mask_mov_epi32(_mm256_set1_epi32(-1), valid, idx);
}

inline __m256i locate8(const LocatorView& L, __m512d v) {
  if (!L.uniform) return locate8_search(L, v);
  return L.affine ? locate8_uniform<true>(L, v) : locate8_uniform<false>(L, v);
}

// Batch-shape gates (kMinVectorRows / rows_are_sparse) live in simd.hpp:
// callers route sparse batches to the scalar table before dispatching, and
// the kernels below re-check for direct Ops users.

const __m512i kIota16 = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                          11, 12, 13, 14, 15);

std::size_t positions_from_groups_avx512(const std::uint32_t* groups,
                                         std::size_t ngroups,
                                         std::uint64_t base,
                                         std::uint32_t* out) {
  std::size_t n = 0;
  for (std::size_t g = 0; g < ngroups; ++g) {
    const std::uint32_t bits = groups[g] & 0x7FFFFFFFu;
    if (bits == 0) continue;
    const auto gbase = static_cast<std::uint32_t>(base + 31 * g);
    const __m512i b = _mm512_set1_epi32(static_cast<int>(gbase));
    _mm512_mask_compressstoreu_epi32(
        out + n, static_cast<__mmask16>(bits), _mm512_add_epi32(kIota16, b));
    n += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint32_t>(bits & 0xFFFFu)));
    _mm512_mask_compressstoreu_epi32(
        out + n, static_cast<__mmask16>(bits >> 16),
        _mm512_add_epi32(_mm512_add_epi32(kIota16, _mm512_set1_epi32(16)), b));
    n += static_cast<std::size_t>(std::popcount(bits >> 16));
  }
  return n;
}

void hist1d_rows_avx512(const std::uint32_t* rows, std::size_t n,
                        const double* values, const LocatorView& L,
                        std::uint64_t* counts) {
  if (L.empty || n < kMinVectorRows || rows_are_sparse(rows, n)) {
    hist1d_rows_scalar(rows, n, values, L, counts);
    return;
  }
  alignas(32) std::int32_t bins[8];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Prefetch every row of the vector four iterations ahead: at low
    // selectivity each gathered row is its own cache line, so skipping
    // lanes would leave the gather waiting on unprefetched DRAM misses.
    if (i + 40 <= n)
      for (int l = 0; l < 8; ++l)
        _mm_prefetch(reinterpret_cast<const char*>(values + rows[i + 32 + l]),
                     _MM_HINT_T0);
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
    const __m512d v = _mm512_i32gather_pd(r, values, 8);
    _mm256_store_si256(reinterpret_cast<__m256i*>(bins), locate8(L, v));
    for (int l = 0; l < 8; ++l)
      if (bins[l] >= 0) ++counts[static_cast<std::size_t>(bins[l])];
  }
  hist1d_rows_scalar(rows + i, n - i, values, L, counts);
}

void hist2d_rows_avx512(const std::uint32_t* rows, std::size_t n,
                        const double* xs, const double* ys,
                        const LocatorView& xloc, const LocatorView& yloc,
                        std::size_t ny, std::uint64_t* counts) {
  if (xloc.empty || yloc.empty || n < kMinVectorRows ||
      rows_are_sparse(rows, n)) {
    hist2d_rows_scalar(rows, n, xs, ys, xloc, yloc, ny, counts);
    return;
  }
  // Two-phase accumulate, software-pipelined across chunks: phase one
  // computes flat bin indices for a chunk of rows (pure vector work, no
  // serial dependency), compressing out the out-of-range lanes; phase two
  // replays the indices as counts increments. The replay of chunk k-1 is
  // interleaved into chunk k's gather loop (a 16-entry slice per 16-row
  // iteration) so the latency-bound increments — each waiting on an
  // L2/L3-resident counts line — hide under the bandwidth-bound value
  // gathers instead of running as a serial epilogue per chunk. Increments
  // are commutative, so reordering them keeps the counts bit-identical to
  // the scalar path. Needs the flat index to fit an i32 lane; huge grids
  // take the lane-buffer path.
  if ((xloc.last + 1) * static_cast<std::int64_t>(ny) <= INT32_MAX) {
    constexpr std::size_t kChunk = 1024;
    alignas(64) std::int32_t buf_a[kChunk + 8];
    alignas(64) std::int32_t buf_b[kChunk + 8];
    std::int32_t* idx = buf_a;        // indices being produced (chunk k)
    std::int32_t* replay = buf_b;     // indices being consumed (chunk k-1)
    std::size_t replay_m = 0;
    std::size_t rk = 0;
    std::size_t i = 0;
    while (i < n) {
      const std::size_t take = std::min<std::size_t>(n - i, kChunk);
      std::size_t m = 0;
      std::size_t j = 0;
      // Two row-vectors per iteration: the four value gathers are issued
      // back to back before any locate consumes them, so the L3-latency
      // loads overlap instead of serializing behind each locate. The
      // prefetch runs 64 rows ahead — far enough that scattered lines
      // arrive before the gathers need them (32 was inside L3 latency at
      // this loop's ~8 ns/row pace).
      const __m256i nyv = _mm256_set1_epi32(static_cast<int>(ny));
      for (; j + 16 <= take; j += 16) {
        if (i + j + 144 <= n)
          for (int l = 0; l < 16; ++l) {
            _mm_prefetch(
                reinterpret_cast<const char*>(xs + rows[i + j + 128 + l]),
                _MM_HINT_T0);
            _mm_prefetch(
                reinterpret_cast<const char*>(ys + rows[i + j + 128 + l]),
                _MM_HINT_T0);
          }
        const __m256i r0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i + j));
        const __m256i r1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(rows + i + j + 8));
        const __m512d x0 = _mm512_i32gather_pd(r0, xs, 8);
        const __m512d x1 = _mm512_i32gather_pd(r1, xs, 8);
        const __m512d y0 = _mm512_i32gather_pd(r0, ys, 8);
        const __m512d y1 = _mm512_i32gather_pd(r1, ys, 8);
        const __m256i bx0 = locate8(xloc, x0);
        const __m256i by0 = locate8(yloc, y0);
        const __mmask8 ok0 =
            _mm256_cmp_epi32_mask(bx0, _mm256_setzero_si256(),
                                  _MM_CMPINT_NLT) &
            _mm256_cmp_epi32_mask(by0, _mm256_setzero_si256(), _MM_CMPINT_NLT);
        _mm256_mask_compressstoreu_epi32(
            idx + m, ok0,
            _mm256_add_epi32(_mm256_mullo_epi32(bx0, nyv), by0));
        m += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(ok0)));
        const __m256i bx1 = locate8(xloc, x1);
        const __m256i by1 = locate8(yloc, y1);
        const __mmask8 ok1 =
            _mm256_cmp_epi32_mask(bx1, _mm256_setzero_si256(),
                                  _MM_CMPINT_NLT) &
            _mm256_cmp_epi32_mask(by1, _mm256_setzero_si256(), _MM_CMPINT_NLT);
        _mm256_mask_compressstoreu_epi32(
            idx + m, ok1,
            _mm256_add_epi32(_mm256_mullo_epi32(bx1, nyv), by1));
        m += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(ok1)));
        const std::size_t r_end = std::min(replay_m, rk + 16);
        for (; rk < r_end; ++rk) {
          if (rk + 32 < replay_m)
            _mm_prefetch(
                reinterpret_cast<const char*>(counts + replay[rk + 32]),
                _MM_HINT_T0);
          ++counts[static_cast<std::uint32_t>(replay[rk])];
        }
      }
      for (; j + 8 <= take; j += 8) {
        const __m256i r =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i + j));
        const __m256i bx = locate8(xloc, _mm512_i32gather_pd(r, xs, 8));
        const __m256i by = locate8(yloc, _mm512_i32gather_pd(r, ys, 8));
        const __mmask8 ok =
            _mm256_cmp_epi32_mask(bx, _mm256_setzero_si256(), _MM_CMPINT_NLT) &
            _mm256_cmp_epi32_mask(by, _mm256_setzero_si256(), _MM_CMPINT_NLT);
        const __m256i flat = _mm256_add_epi32(_mm256_mullo_epi32(bx, nyv), by);
        _mm256_mask_compressstoreu_epi32(idx + m, ok, flat);
        m += static_cast<std::size_t>(
            std::popcount(static_cast<unsigned>(ok)));
      }
      for (; j < take; ++j) {
        const std::int64_t bx = locate_view(xloc, xs[rows[i + j]]);
        if (bx < 0) continue;
        const std::int64_t by = locate_view(yloc, ys[rows[i + j]]);
        if (by < 0) continue;
        idx[m++] = static_cast<std::int32_t>(
            static_cast<std::size_t>(bx) * ny + static_cast<std::size_t>(by));
      }
      // Drain whatever the interleave did not cover (short chunks, entries
      // the 8-wide and scalar tails appended), then rotate the buffers:
      // this chunk's indices become the next chunk's interleaved replay.
      for (; rk < replay_m; ++rk) {
        if (rk + 32 < replay_m)
          _mm_prefetch(reinterpret_cast<const char*>(counts + replay[rk + 32]),
                       _MM_HINT_T0);
        ++counts[static_cast<std::uint32_t>(replay[rk])];
      }
      std::swap(idx, replay);
      replay_m = m;
      rk = 0;
      i += take;
    }
    for (; rk < replay_m; ++rk)
      ++counts[static_cast<std::uint32_t>(replay[rk])];
    return;
  }
  alignas(32) std::int32_t bx[8];
  alignas(32) std::int32_t by[8];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    if (i + 40 <= n)
      for (int l = 0; l < 8; ++l) {
        _mm_prefetch(reinterpret_cast<const char*>(xs + rows[i + 32 + l]),
                     _MM_HINT_T0);
        _mm_prefetch(reinterpret_cast<const char*>(ys + rows[i + 32 + l]),
                     _MM_HINT_T0);
      }
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
    _mm256_store_si256(reinterpret_cast<__m256i*>(bx),
                       locate8(xloc, _mm512_i32gather_pd(r, xs, 8)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(by),
                       locate8(yloc, _mm512_i32gather_pd(r, ys, 8)));
    for (int l = 0; l < 8; ++l)
      if (bx[l] >= 0 && by[l] >= 0)
        ++counts[static_cast<std::size_t>(bx[l]) * ny +
                 static_cast<std::size_t>(by[l])];
  }
  hist2d_rows_scalar(rows + i, n - i, xs, ys, xloc, yloc, ny, counts);
}

void hist1d_dense_avx512(const double* values, std::size_t n,
                         const LocatorView& L, std::uint64_t* counts) {
  if (L.empty || n < kMinVectorRows) {
    hist1d_dense_scalar(values, n, L, counts);
    return;
  }
  alignas(32) std::int32_t bins[8];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(bins),
                       locate8(L, _mm512_loadu_pd(values + i)));
    for (int l = 0; l < 8; ++l)
      if (bins[l] >= 0) ++counts[static_cast<std::size_t>(bins[l])];
  }
  hist1d_dense_scalar(values + i, n - i, L, counts);
}

void hist2d_dense_avx512(const double* xs, const double* ys, std::size_t n,
                         const LocatorView& xloc, const LocatorView& yloc,
                         std::size_t ny, std::uint64_t* counts) {
  if (xloc.empty || yloc.empty || n < kMinVectorRows) {
    hist2d_dense_scalar(xs, ys, n, xloc, yloc, ny, counts);
    return;
  }
  alignas(32) std::int32_t bx[8];
  alignas(32) std::int32_t by[8];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(bx),
                       locate8(xloc, _mm512_loadu_pd(xs + i)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(by),
                       locate8(yloc, _mm512_loadu_pd(ys + i)));
    for (int l = 0; l < 8; ++l)
      if (bx[l] >= 0 && by[l] >= 0)
        ++counts[static_cast<std::size_t>(bx[l]) * ny +
                 static_cast<std::size_t>(by[l])];
  }
  hist2d_dense_scalar(xs + i, ys + i, n - i, xloc, yloc, ny, counts);
}

constexpr Ops kAvx512Ops = {
    Isa::kAvx512,
    &positions_from_groups_avx512,
    &hist1d_rows_avx512,
    &hist2d_rows_avx512,
    &hist1d_dense_avx512,
    &hist2d_dense_avx512,
    &detail::scan_intervals_avx2,
    // bench_kernels scan_intervals/y/isa=avx2, ns_per_row (median of
    // three runs; BENCH_kernels.json holds one).
    0.47,
};

}  // namespace

namespace detail {
const Ops* avx512_ops() { return &kAvx512Ops; }
}  // namespace detail

}  // namespace qdv::simd

#else  // missing AVX-512 target support

namespace qdv::simd::detail {
const Ops* avx512_ops() { return nullptr; }
}  // namespace qdv::simd::detail

#endif
