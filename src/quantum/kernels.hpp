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

/// One statevector kernel backend. Every entry point walks the strided
/// pair layout of a target-qubit gate: for `base` stepping by 2*stride
/// through `dim`, the pair arrays are lo = amps + base, hi = lo + stride,
/// and each (lo[off], hi[off]) pair maps through the 2x2 unitary.
///
/// Contract shared by every backend (the scalar one is the oracle):
///  - identical pair coverage and update formula
///      lo' = g00*lo + g01*hi,  hi' = g10*lo + g11*hi
///  - `control_mask` and `control_value` gate a pair on
///    (base + off) & mask == value, so a control fires on |1> where its bit
///    is set in `value` and on |0> where it is clear; `value` is a subset of
///    `mask`, and the mask never contains the target bit (callers validate).
///  - `apply_pairs2` is gate `ga` at `stride_a`, then gate `gb` at
///    `stride_b` (the strides differ; callers validate). Its result is
///    byte-identical to apply_pairs(stride_a, ga) followed by
///    apply_pairs(stride_b, gb) on the same backend; the scalar and NEON
///    entries are exactly those two calls.
/// Vector backends may take structure fast paths (diagonal / antidiagonal
/// gates skip the zero products, gates with real coefficients skip the
/// imaginary ones, controlled ops visit only the matching pairs, a pair of
/// real gates shares one load/store sweep) — amplitudes agree with the
/// oracle to floating-point rounding, which the equivalence suite pins
/// down. A skipped product is a +-0 term, so the only byte difference it
/// can make is the sign of an amplitude part that is exactly zero.
struct KernelOps {
  void (*apply_pairs)(Amplitude* amps, std::size_t dim, std::size_t stride,
                      const Gate1Coeffs& g);
  void (*apply_pairs_controlled)(Amplitude* amps, std::size_t dim,
                                 std::size_t stride, const Gate1Coeffs& g,
                                 BasisState control_mask,
                                 BasisState control_value);
  void (*apply_pairs2)(Amplitude* amps, std::size_t dim, std::size_t stride_a,
                       const Gate1Coeffs& ga, std::size_t stride_b,
                       const Gate1Coeffs& gb);
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
