// Internal scalar bodies shared by the per-ISA translation units of the
// SIMD dispatch layer (simd_scalar.cpp / simd_avx2.cpp / simd_avx512.cpp).
//
// Every body here is `static`: each TU is compiled with different target
// flags, and these helpers double as the tail/sparse paths of the vector
// levels, so they must NOT be merged across TUs by the linker — an
// AVX2-codegen copy picked for the scalar table would crash a non-AVX2
// host. Internal linkage keeps every TU self-contained.
//
// The locate body is the exact twin of Bins::Locator::operator() (and the
// differential tests hold all levels to Bins::locate); any change there
// must be mirrored here.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "bitmap/simd.hpp"

namespace qdv::simd {

#if defined(__GNUC__) || defined(__clang__)
#define QDV_SIMD_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define QDV_SIMD_PREFETCH(addr) ((void)0)
#endif

/// Prefetch distance (rows) for the gather kernels: far enough to cover
/// DRAM latency, near enough to stay inside one batch.
inline constexpr std::size_t kGatherPrefetch = 16;

static inline std::int64_t locate_view(const LocatorView& L, double value) {
  // The negated comparison also rejects NaN (which would otherwise reach
  // the float->integer cast, undefined behavior).
  if (L.empty || !(value >= L.lo && value <= L.hi)) return -1;
  if (L.uniform) {
    auto bin = static_cast<std::int64_t>((value - L.lo) * L.inv_width);
    bin = bin > L.last ? L.last : bin;
    if (value < L.edges[bin]) {
      --bin;
    } else if (bin < L.last && value >= L.edges[bin + 1]) {
      ++bin;
    }
    return bin;
  }
  std::size_t lo = 0;
  std::size_t n = L.nedges;
  while (n > 1) {
    const std::size_t half = n / 2;
    lo += L.edges[lo + half] <= value ? half : 0;
    n -= half;
  }
  const auto bin = static_cast<std::int64_t>(lo);
  return bin < L.last ? bin : L.last;
}

static inline std::size_t positions_from_groups_scalar(
    const std::uint32_t* groups, std::size_t ngroups, std::uint64_t base,
    std::uint32_t* out) {
  std::size_t n = 0;
  for (std::size_t g = 0; g < ngroups; ++g) {
    std::uint32_t bits = groups[g] & 0x7FFFFFFFu;
    const auto gbase = static_cast<std::uint32_t>(base + 31 * g);
    while (bits) {
      out[n++] = gbase + static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
    }
  }
  return n;
}

static inline void hist1d_rows_scalar(const std::uint32_t* rows, std::size_t n,
                                      const double* values,
                                      const LocatorView& loc,
                                      std::uint64_t* counts) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kGatherPrefetch < n)
      QDV_SIMD_PREFETCH(values + rows[i + kGatherPrefetch]);
    const std::int64_t b = locate_view(loc, values[rows[i]]);
    if (b >= 0) ++counts[static_cast<std::size_t>(b)];
  }
}

static inline void hist2d_rows_scalar(const std::uint32_t* rows, std::size_t n,
                                      const double* xs, const double* ys,
                                      const LocatorView& xloc,
                                      const LocatorView& yloc, std::size_t ny,
                                      std::uint64_t* counts) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kGatherPrefetch < n) {
      QDV_SIMD_PREFETCH(xs + rows[i + kGatherPrefetch]);
      QDV_SIMD_PREFETCH(ys + rows[i + kGatherPrefetch]);
    }
    const std::int64_t bx = locate_view(xloc, xs[rows[i]]);
    const std::int64_t by = locate_view(yloc, ys[rows[i]]);
    if (bx >= 0 && by >= 0)
      ++counts[static_cast<std::size_t>(bx) * ny + static_cast<std::size_t>(by)];
  }
}

static inline void hist1d_dense_scalar(const double* values, std::size_t n,
                                       const LocatorView& loc,
                                       std::uint64_t* counts) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t b = locate_view(loc, values[i]);
    if (b >= 0) ++counts[static_cast<std::size_t>(b)];
  }
}

static inline void hist2d_dense_scalar(const double* xs, const double* ys,
                                       std::size_t n, const LocatorView& xloc,
                                       const LocatorView& yloc, std::size_t ny,
                                       std::uint64_t* counts) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t bx = locate_view(xloc, xs[i]);
    const std::int64_t by = locate_view(yloc, ys[i]);
    if (bx >= 0 && by >= 0)
      ++counts[static_cast<std::size_t>(bx) * ny + static_cast<std::size_t>(by)];
  }
}

/// One group of 31 rows at most: bit j is set when rows[j] lies in some
/// interval. Branch-free per row; the interval loop is outermost so each
/// pass compares against loop-invariant bounds.
static inline std::uint32_t scan_group_scalar(const double* rows, std::size_t n,
                                              const Interval* ivs,
                                              std::size_t nivs) {
  std::uint32_t word = 0;
  for (std::size_t k = 0; k < nivs; ++k) {
    const Interval& iv = ivs[k];
    for (std::size_t j = 0; j < n; ++j) {
      const double x = rows[j];
      const bool in = (iv.lo_open ? x > iv.lo : x >= iv.lo) &
                      (iv.hi_open ? x < iv.hi : x <= iv.hi);
      word |= static_cast<std::uint32_t>(in) << j;
    }
  }
  return word;
}

static inline void scan_intervals_scalar(const double* values,
                                         std::size_t nrows,
                                         const Interval* ivs, std::size_t nivs,
                                         std::uint32_t* groups) {
  for (std::size_t g = 0, row = 0; row < nrows; ++g, row += 31)
    groups[g] = scan_group_scalar(values + row,
                                  nrows - row < 31 ? nrows - row : 31, ivs, nivs);
}

namespace detail {

// The scalar table's hist1d entries, defined once in simd_scalar.cpp
// (baseline flags, external linkage). A vector level without hist1d kernels
// of its own points its table here, so it runs exactly the scalar level's
// code and has_vector_hist1d() can tell by comparing entries.
void hist1d_rows_baseline(const std::uint32_t* rows, std::size_t n,
                          const double* values, const LocatorView& loc,
                          std::uint64_t* counts);
void hist1d_dense_baseline(const double* values, std::size_t n,
                           const LocatorView& loc, std::uint64_t* counts);

// The AVX2 table's interval scan, defined in simd_avx2.cpp (external
// linkage). The AVX-512 table points its scan entry here: an 8-lane body
// measured no faster on a memory-bound million-row scan (DESIGN.md
// Section 12).
void scan_intervals_avx2(const double* values, std::size_t nrows,
                         const Interval* ivs, std::size_t nivs,
                         std::uint32_t* groups);

}  // namespace detail

/// Byte-decode table for the AVX2 position kernels: entry m packs the bit
/// positions (0-7) of the set bits of byte m into successive output bytes.
/// Internal linkage (const at namespace scope), so each TU owns its copy.
constexpr std::array<std::uint64_t, 256> kBytePositions = [] {
  std::array<std::uint64_t, 256> table{};
  for (unsigned m = 0; m < 256; ++m) {
    std::uint64_t packed = 0;
    unsigned count = 0;
    for (unsigned b = 0; b < 8; ++b)
      if ((m >> b) & 1u) packed |= static_cast<std::uint64_t>(b) << (8 * count++);
    table[m] = packed;
  }
  return table;
}();

}  // namespace qdv::simd
