#pragma once

#include <cstddef>

#include "src/quantum/types.hpp"

namespace qcongest::quantum::kernels {

/// Which statevector kernel implementation is driving Statevector::apply*.
///
/// Selection is resolved once per process: the best ISA the CPU reports at
/// runtime wins (AVX2 on x86-64, NEON on aarch64), else the scalar oracle,
/// which tests reach directly through scalar_ops(). The binary never
/// requires the ISA it probes for — vector code lives behind per-function
/// target attributes, so one build runs everywhere.
enum class Backend { kScalar, kAvx2, kNeon };

/// The 2x2 unitary of a single-qubit gate, unpacked from Gate1 so the
/// kernel layer does not depend on the gate headers.
struct Gate1Coeffs {
  Amplitude g00, g01, g10, g11;
};

/// The 2x2 matrix of a single-qubit gate whose four coefficients are real.
struct RealCoeffs {
  double g00, g01, g10, g11;
};

/// One statevector kernel backend. Every entry point walks the strided
/// pair layout of a target bit: for `base` stepping by 2*stride through
/// the array, the pair arrays are lo = base, hi = lo + stride, and each
/// (lo[off], hi[off]) pair maps through the 2x2 matrix.
///
/// Two families of entries:
///  - complex: `apply_pairs` and `apply_pairs_controlled` over `dim`
///    interleaved complex amplitudes, for gates with a complex coefficient;
///  - real: `real_pairs`, `real_pairs2` and `real_pairs_controlled` over a
///    double array of `len` entries, for gates whose coefficients are all
///    real. A real state is `dim` packed doubles, one per basis state, and
///    qubit t is array bit t. An interleaved complex buffer read as 2*dim
///    doubles is a real array too: array bit 0 selects the real or the
///    imaginary part, so qubit t is array bit t + 1, and a real gate scales
///    both parts alike. Callers shift the stride, mask and value up one
///    bit for that view.
///
/// Contract shared by every backend (the scalar one is the oracle):
///  - identical pair coverage and update formula
///      lo' = g00*lo + g01*hi,  hi' = g10*lo + g11*hi
///  - `control_mask` and `control_value` gate a pair on
///    (base + off) & mask == value, so a control fires on |1> where its bit
///    is set in `value` and on |0> where it is clear; `value` is a subset of
///    `mask`, and the mask never contains the target bit (callers validate).
///  - `real_pairs2` is gate `ga` at `stride_a`, then gate `gb` at
///    `stride_b` (the strides differ; callers validate). Its result is
///    byte-identical to real_pairs(stride_a, ga) followed by
///    real_pairs(stride_b, gb) on the same backend; the scalar and NEON
///    entries are exactly those two calls.
/// Vector backends may take structure fast paths (diagonal / antidiagonal
/// gates skip the zero products, controlled ops visit only the matching
/// pairs, two real gates share one load/store sweep) — amplitudes agree
/// with the oracle to floating-point rounding, which the equivalence suite
/// pins down. A skipped product is a +-0 term, so the only byte difference
/// it can make is the sign of an amplitude part that is exactly zero. For
/// the same reason a real entry on the complex view equals the complex
/// oracle on a real gate in value: it leaves out the products of the
/// gate's zero imaginary parts.
struct KernelOps {
  void (*apply_pairs)(Amplitude* amps, std::size_t dim, std::size_t stride,
                      const Gate1Coeffs& g);
  void (*apply_pairs_controlled)(Amplitude* amps, std::size_t dim,
                                 std::size_t stride, const Gate1Coeffs& g,
                                 BasisState control_mask,
                                 BasisState control_value);
  void (*real_pairs)(double* x, std::size_t len, std::size_t stride,
                     const RealCoeffs& g);
  void (*real_pairs2)(double* x, std::size_t len, std::size_t stride_a,
                      const RealCoeffs& ga, std::size_t stride_b,
                      const RealCoeffs& gb);
  void (*real_pairs_controlled)(double* x, std::size_t len, std::size_t stride,
                                const RealCoeffs& g, BasisState control_mask,
                                BasisState control_value);
};

/// The reference implementation — byte-for-byte the historical scalar
/// loops. Always available; the equivalence tests diff every other
/// backend against it.
const KernelOps& scalar_ops();

/// The backend selected for this process (CPU probe).
const KernelOps& active_ops();
Backend active_backend();
const char* backend_name(Backend b);

/// Backend providers: null when this build target lacks the ISA entirely
/// (e.g. neon on x86-64) or the running CPU does not report it — each
/// provider performs its own runtime probe, so a non-null result is always
/// safe to call. The equivalence tests exercise every non-null provider.
const KernelOps* avx2_ops_or_null();
const KernelOps* neon_ops_or_null();

}  // namespace qcongest::quantum::kernels
