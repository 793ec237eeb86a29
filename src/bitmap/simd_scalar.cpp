// Scalar level of the SIMD dispatch layer: always built, always selectable,
// and the bit-identity reference the vector levels are tested against. The
// bodies live in simd_common.hpp (internal linkage) so the AVX TUs can
// reuse them for their tail/sparse paths without ODR-merging code compiled
// under different target flags.
#include "simd_common.hpp"

namespace qdv::simd::detail {

void hist1d_rows_baseline(const std::uint32_t* rows, std::size_t n,
                          const double* values, const LocatorView& loc,
                          std::uint64_t* counts) {
  hist1d_rows_scalar(rows, n, values, loc, counts);
}

void hist1d_dense_baseline(const double* values, std::size_t n,
                           const LocatorView& loc, std::uint64_t* counts) {
  hist1d_dense_scalar(values, n, loc, counts);
}

namespace {

constexpr Ops kScalarOps = {
    Isa::kScalar,
    &positions_from_groups_scalar,
    &hist1d_rows_baseline,
    &hist2d_rows_scalar,
    &hist1d_dense_baseline,
    &hist2d_dense_scalar,
    &scan_intervals_scalar,
    // bench_kernels scan_intervals/y/isa=scalar, ns_per_row (median of
    // three runs; BENCH_kernels.json holds one).
    1.8,
};

}  // namespace

const Ops* scalar_ops() { return &kScalarOps; }

}  // namespace qdv::simd::detail
