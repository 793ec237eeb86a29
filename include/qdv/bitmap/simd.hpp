// Runtime-dispatched SIMD kernels (DESIGN.md Section 12): AVX2 and AVX-512
// implementations of the flat per-row inner loops — set-bit position
// extraction, vectorized bin location, masked histogram accumulate and the
// interval scan — selected once at startup via CPUID, with a scalar
// fallback that is always built and always available.
//
// Each ISA level lives in its own translation unit compiled with per-file
// target flags (src/bitmap/simd_scalar.cpp / simd_avx2.cpp /
// simd_avx512.cpp); this header is ISA-agnostic and safe to include
// anywhere. Every function-pointer table produces results bit-identical to
// the scalar level — the differential tests in tests/test_kernels.cpp force
// each level and compare.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bitmap/interval.hpp"

namespace qdv::simd {

/// Instruction-set levels, ordered: a level implies all lower ones.
enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Human-readable name ("scalar", "avx2", "avx512").
const char* isa_name(Isa isa);

/// Best level both compiled into this binary and supported by the CPU
/// (CPUID, probed once).
Isa best_supported();

/// True when @p isa is usable on this host (compiled in + CPU support).
bool supported(Isa isa);

/// The level the dispatch tables currently route to. Initialized on first
/// use to best_supported(), clamped down by QDV_FORCE_ISA=scalar|avx2|avx512
/// when set (forcing an unavailable level falls back to the best available
/// level at or below it).
Isa active();

/// Override the active level (clamped to supported levels at or below
/// @p isa); returns the level that took effect. Benchmarks and tests use
/// this to sweep levels inside one process; it is not meant to be called
/// concurrently with running queries.
Isa force(Isa isa);

/// Parse an ISA name ("scalar" / "avx2" / "avx512", case-sensitive);
/// returns @p fallback for null or unrecognized text.
Isa parse_isa(const char* text, Isa fallback);

/// Flattened POD view of a Bins::Locator (see Bins::Locator::view()): the
/// vector kernels read the cached edge array and uniform-bin constants
/// through this so the dispatch table needs no class dependency. Borrows
/// the locator's edge storage.
struct LocatorView {
  const double* edges = nullptr;
  std::size_t nedges = 0;
  std::int64_t last = -1;  // num_bins() - 1
  double inv_width = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  double width = 0.0;  // uniform bin width (valid when uniform)
  bool uniform = false;
  /// True when every edge the uniform verify step can read satisfies
  /// edges[k] == lo + k * width bit-for-bit under mul-then-add rounding
  /// (detected at Bins construction). The vector kernels then synthesize
  /// the verify edges in-register instead of gathering them.
  bool affine = false;
  bool empty = true;
};

/// Position kernels may overstore up to this many elements past the
/// reported count (full-vector stores with a partial lane count); callers
/// must provide that much slack in the output buffer.
inline constexpr std::size_t kPositionSlack = 16;

/// Row batches shorter than this stay scalar: gather + locate setup cannot
/// amortize (the batch-level half of the selectivity gate).
inline constexpr std::size_t kMinVectorRows = 16;

/// Average gathered-row spacing (in doubles) beyond which the rows kernels
/// stay scalar: each lane then sits on its own cold cache line and the
/// kernel is latency-bound either way, so the vector setup cannot win —
/// the per-batch half of the selectivity gate. Callers route such batches
/// to the scalar table (baseline-compiled code, not a vector-TU copy); the
/// vector kernels re-check as a safety net for direct Ops users.
inline constexpr std::size_t kSparseRowSpacing = 32;

inline bool rows_are_sparse(const std::uint32_t* rows, std::size_t n) {
  return static_cast<std::size_t>(rows[n - 1] - rows[0]) >
         n * kSparseRowSpacing;
}

/// One ISA level's kernel table. All entries are non-null at every level.
struct Ops {
  Isa isa;

  /// Ascending positions of the set bits of @p ngroups 31-bit WAH literal
  /// groups (group g covers rows [base + 31g, base + 31g + 30]; bit 31 of
  /// each word is ignored). Writes to @p out (plus kPositionSlack slack),
  /// returns the count written.
  std::size_t (*positions_from_groups)(const std::uint32_t* groups,
                                       std::size_t ngroups, std::uint64_t base,
                                       std::uint32_t* out);

  /// counts[loc(values[rows[i]])]++ for each of @p n row indices; values
  /// outside the bin range (including NaN) are dropped exactly as
  /// Bins::Locator does.
  void (*hist1d_rows)(const std::uint32_t* rows, std::size_t n,
                      const double* values, const LocatorView& loc,
                      std::uint64_t* counts);

  /// Row-major 2D variant: counts[bx * ny + by]++ when both locate.
  void (*hist2d_rows)(const std::uint32_t* rows, std::size_t n,
                      const double* xs, const double* ys,
                      const LocatorView& xloc, const LocatorView& yloc,
                      std::size_t ny, std::uint64_t* counts);

  /// Contiguous-row variants (row range handled by the caller): used for
  /// one-fill runs of a selection and for unconditional histograms.
  void (*hist1d_dense)(const double* values, std::size_t n,
                       const LocatorView& loc, std::uint64_t* counts);
  void (*hist2d_dense)(const double* xs, const double* ys, std::size_t n,
                       const LocatorView& xloc, const LocatorView& yloc,
                       std::size_t ny, std::uint64_t* counts);

  /// Membership of @p nrows values in the union of @p nivs intervals,
  /// packed as 31-bit WAH literal groups: bit j of groups[g] is set when
  /// values[31g + j] lies in some interval, exactly as Interval::contains
  /// decides (NaN values and NaN bounds match nothing). Writes
  /// ceil(nrows / 31) groups, the last one zero-padded; reads no value past
  /// values[nrows - 1].
  void (*scan_intervals)(const double* values, std::size_t nrows,
                         const Interval* ivs, std::size_t nivs,
                         std::uint32_t* groups);

  /// Nanoseconds per row of scan_intervals at this level, the scan side of
  /// the range-step rule (kern::probe_is_cheaper, DESIGN.md Section 3).
  double scan_ns_per_row;
};

/// Kernel table of the active level.
const Ops& ops();

/// Kernel table of an explicit level; @p isa must satisfy supported().
const Ops& ops_for(Isa isa);

/// True when @p table's hist1d (hist2d) entries are vector kernels. A
/// vector level may keep the scalar level's bodies for a family (AVX2 does
/// for hist1d, DESIGN.md Section 12), so the histogram dispatch counters
/// ask these rather than comparing `isa`. A gather still counts as vector
/// when it extracted rows with a vector position kernel.
bool has_vector_hist1d(const Ops& table);
bool has_vector_hist2d(const Ops& table);

// ------------------------------------------------------------------------
// Dispatch observability: per-kernel-family counts of how often the public
// kernels (to_positions, gather_hist1d/2d and the unconditional histogram
// loops) routed to a vector level vs the scalar fallback. Exposed through
// EngineStats and `qdv_tool query --stats`.
// ------------------------------------------------------------------------

struct KernelDispatch {
  std::uint64_t scalar = 0;
  std::uint64_t vector = 0;
};

struct DispatchCounts {
  KernelDispatch positions;
  KernelDispatch hist1d;
  KernelDispatch hist2d;
};

DispatchCounts dispatch_counts();
void reset_dispatch_counts();

/// Counting hooks used by the kernel entry points (relaxed atomics).
void count_positions_call(bool vector);
void count_hist1d_call(bool vector);
void count_hist2d_call(bool vector);

namespace detail {
/// Per-TU table accessors; an ISA's accessor returns nullptr when its
/// translation unit was compiled without the matching target support.
const Ops* scalar_ops();
const Ops* avx2_ops();
const Ops* avx512_ops();
}  // namespace detail

}  // namespace qdv::simd
