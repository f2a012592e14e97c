#ifndef FM_LINALG_KERNELS_H_
#define FM_LINALG_KERNELS_H_

#include <cstddef>

namespace fm::linalg::kernels {

/// Cache-blocked, SIMD-friendly micro-kernels behind every linalg hot path
/// (GEMM, rank-k symmetric updates, matvec, compensated accumulation), plus
/// scalar reference implementations of each.
///
/// ## Determinism contract (bit-identity)
///
/// Every blocked kernel produces **bit-identical** results to its `Ref*`
/// scalar counterpart, for all shapes. This is what makes the
/// `FM_BLOCKED_LINALG` escape hatch a pure performance knob: accuracy
/// output (figs 4–6, CV statistics) is byte-identical either way, and
/// `tests/kernels_test.cc` asserts exact equality across ragged sizes.
///
/// The identity is achieved by fixing a *summation specification* that both
/// implementations follow, rather than by restricting the blocked code to
/// the naive loop order:
///
/// - **GEMM** (`C += A·B`): for each element C(i,j), the k-dimension is cut
///   into panels of `kGemmKc`; within a panel the products a(i,k)·b(k,j)
///   are summed sequentially in k order into a fresh accumulator, and panel
///   totals are added to C(i,j) in panel order. The blocked kernel holds
///   the accumulator in a register tile; the reference holds it in a local
///   double — same additions, same order, same bits.
/// - **SYRK** (`C(upper) += XᵀX`): the rows of X are cut into panels of
///   `kSyrkRowPanel`; per element, in-panel products are summed in row
///   order and panel totals added in panel order.
/// - **Matvec / dot**: reductions are strictly sequential in element order
///   (never split into SIMD partial sums, which would reassociate). The
///   blocked kernels gain throughput from instruction-level parallelism
///   *across* independent rows, not from splitting any single reduction.
/// - **Compensated accumulation** (core::ShardedObjectiveSum): the blocked
///   kernel replaces Neumaier's branch with Knuth's branch-free TwoSum.
///   Both compute the *exact* rounding error of `sum + v` (a representable
///   double), so the increment fed to the compensation term is
///   bit-identical — TwoSum just has no magnitude comparison, which lets
///   the sweep vectorize.
///
/// The build compiles with `-ffp-contract=off` (see CMakeLists.txt), so the
/// compiler cannot fuse a multiply into an add in one kernel but not the
/// other; without that flag GCC's default (`-ffp-contract=fast`) may
/// contract across statements and break the bit-identity.
///
/// All pointers are to dense row-major storage; `ld*` arguments are leading
/// dimensions (row strides) in elements. Aliasing between inputs and
/// outputs is not allowed (hence `__restrict`).

/// Block-size constants (see docs/PERFORMANCE.md for the rationale).
inline constexpr size_t kGemmKc = 256;      ///< GEMM k-panel depth
inline constexpr size_t kGemmMr = 4;        ///< GEMM register-tile rows
inline constexpr size_t kGemmNr = 8;        ///< GEMM register-tile columns
inline constexpr size_t kSyrkRowPanel = 64; ///< SYRK rows per packed panel
inline constexpr size_t kCholeskyNb = 32;   ///< blocked Cholesky panel width
inline constexpr size_t kMatVecMr = 4;      ///< matvec rows in flight (ILP)

/// True when the blocked kernels are in use (the default). Controlled by
/// the `FM_BLOCKED_LINALG` environment variable, read once on first use:
/// `FM_BLOCKED_LINALG=0` selects the scalar reference implementations
/// everywhere, for differential testing and as the perf baseline.
bool BlockedEnabled();

/// Overrides the `FM_BLOCKED_LINALG` setting at runtime (tests and the
/// bench harness toggle both paths within one process).
void SetBlockedEnabled(bool enabled);

// ---------------------------------------------------------------------------
// GEMM: C(n×m) += A(n×k) · B(k×m).
// ---------------------------------------------------------------------------
void GemmAccumulate(const double* a, size_t lda, const double* b, size_t ldb,
                    double* c, size_t ldc, size_t n, size_t k, size_t m);
void RefGemmAccumulate(const double* a, size_t lda, const double* b,
                       size_t ldb, double* c, size_t ldc, size_t n, size_t k,
                       size_t m);

// ---------------------------------------------------------------------------
// SYRK (upper): C(j,l) += Σ_r X(r,j)·X(r,l) for l ≥ j; C is d×d, X rows×d.
// ---------------------------------------------------------------------------
void SyrkUpperAccumulate(const double* x, size_t ldx, size_t rows, size_t d,
                         double* c, size_t ldc);
void RefSyrkUpperAccumulate(const double* x, size_t ldx, size_t rows,
                            size_t d, double* c, size_t ldc);

// ---------------------------------------------------------------------------
// SYRK-subtract (lower), single k-panel: C(i,j) -= Σ_k P(i,k)·P(j,k) for
// j ≤ i, with the in-panel sum sequential in k and subtracted as one grouped
// total. This is the trailing update of the blocked right-looking Cholesky
// (P is the just-factored panel, width ≤ kCholeskyNb).
// ---------------------------------------------------------------------------
void SyrkLowerSubtract(const double* p, size_t ldp, size_t n, size_t width,
                       double* c, size_t ldc);
void RefSyrkLowerSubtract(const double* p, size_t ldp, size_t n, size_t width,
                          double* c, size_t ldc);

// ---------------------------------------------------------------------------
// BLAS-1 style fused kernels. Dot is a strictly sequential reduction (same
// bits in both modes — it is its own reference); Axpy vectorizes legally
// because distinct elements are independent.
// ---------------------------------------------------------------------------
double Dot(const double* __restrict a, const double* __restrict b, size_t n);
void Axpy(double* __restrict y, double alpha, const double* __restrict x,
          size_t n);

// ---------------------------------------------------------------------------
// Matvec: y(i) = Σ_j A(i,j)·x(j), each row a sequential reduction; the
// blocked kernel keeps kMatVecMr independent row accumulators in flight.
// ---------------------------------------------------------------------------
void MatVec(const double* a, size_t lda, size_t rows, size_t cols,
            const double* __restrict x, double* __restrict y);
void RefMatVec(const double* a, size_t lda, size_t rows, size_t cols,
               const double* __restrict x, double* __restrict y);

// ---------------------------------------------------------------------------
// Compensated (Neumaier) per-tuple objective contribution — the
// ShardedObjectiveSum hot loop. Updates the flat coefficient layout
// [M upper triangle (d(d+1)/2), α (d), β (1)]:
//
//   triangle  : (sum,comp)[idx] ⊕= (m_scale·x[i])·x[j]   (j ≥ i, row-major)
//   α         : (sum,comp)[idx] ⊕= alpha_bias·x[j]
//   β         : (sum,comp)[idx] ⊕= beta
//
// where ⊕= is a Neumaier compensated add. Per-tuple compensation is what
// upholds the ≤1-ulp fold-derivation guarantee documented in
// core/objective_accumulator.h, so the kernel keeps it; the blocked version
// wins by evaluating the compensation branchlessly over the contiguous
// coefficient span (SIMD-able), not by batching rows into plain sums.
// ---------------------------------------------------------------------------
void CompensatedTupleUpdate(double* __restrict sum, double* __restrict comp,
                            const double* __restrict x, size_t d,
                            double m_scale, double alpha_bias, double beta);
void RefCompensatedTupleUpdate(double* __restrict sum,
                               double* __restrict comp,
                               const double* __restrict x, size_t d,
                               double m_scale, double alpha_bias, double beta);

/// Number of tuples the batch kernels consume per call.
inline constexpr size_t kCompensatedBatch = 4;

/// Applies kCompensatedBatch consecutive tuple contributions in one sweep:
/// per coefficient, the four compensated adds are chained in tuple order in
/// registers, so the (sum, comp) stream is loaded and stored once instead
/// of four times. Compensation stays PER TUPLE — batching plain partials
/// first would forfeit the fold cache's ≤1-ulp guarantee on
/// near-cancelling α coefficients — so the per-coefficient operation
/// sequence is exactly four single-tuple updates, bit-identical to four
/// CompensatedTupleUpdate calls in the same order (the reference batch is
/// literally that loop).
void CompensatedTupleUpdateBatch(double* __restrict sum,
                                 double* __restrict comp,
                                 const double* const* xs, size_t d,
                                 double m_scale, const double* alpha_bias,
                                 const double* beta);
void RefCompensatedTupleUpdateBatch(double* __restrict sum,
                                    double* __restrict comp,
                                    const double* const* xs, size_t d,
                                    double m_scale, const double* alpha_bias,
                                    const double* beta);

}  // namespace fm::linalg::kernels

#endif  // FM_LINALG_KERNELS_H_
