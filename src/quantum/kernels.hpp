#pragma once

#include <cstddef>
#include <span>

#include "src/quantum/types.hpp"

namespace qcongest::quantum::kernels {

/// Which implementation of the real entries is driving Statevector::apply*.
///
/// Selection is resolved once per process: AVX2 when the CPU reports it at
/// runtime, else the scalar oracle, which tests reach directly through
/// scalar_ops(). The binary never requires the ISA it probes for — vector
/// code lives behind per-function target attributes, so one build runs
/// everywhere.
enum class Backend { kScalar, kAvx2 };

/// The 2x2 unitary of a single-qubit gate, unpacked from Gate1 so the
/// kernel layer does not depend on the gate headers.
struct Gate1Coeffs {
  Amplitude g00, g01, g10, g11;
};

/// The 2x2 matrix of a single-qubit gate whose four coefficients are real.
struct RealCoeffs {
  double g00, g01, g10, g11;
};

/// Every kernel walks the strided pair layout of a target bit: for `base`
/// stepping by 2*stride through the array, the pair arrays are lo = base,
/// hi = lo + stride, and each (lo[off], hi[off]) pair maps through the 2x2
/// matrix
///     lo' = g00*lo + g01*hi,  hi' = g10*lo + g11*hi.
/// A controlled kernel gates a pair on (base + off) & mask == value, so a
/// control fires on |1> where its bit is set in `value` and on |0> where it
/// is clear; `value` is a subset of `mask`, and the mask never contains the
/// target bit (callers validate).
///
/// Gates with a complex coefficient run these two loops over `dim`
/// interleaved complex amplitudes, on every CPU. They are the historical
/// Statevector::apply loops and the oracle every real entry is tested
/// against. `src/` builds a complex gate only in the inverse QFT of phase
/// estimation, so they have no vector implementation.
void apply_pairs(Amplitude* amps, std::size_t dim, std::size_t stride,
                 const Gate1Coeffs& g);
void apply_pairs_controlled(Amplitude* amps, std::size_t dim,
                            std::size_t stride, const Gate1Coeffs& g,
                            BasisState control_mask, BasisState control_value);

/// One gate of a run: the real 2x2 matrix `g` on the pairs at array
/// stride `stride`.
struct RealStep {
  std::size_t stride;
  RealCoeffs g;
};

/// The most gates one real_run call takes.
inline constexpr std::size_t kMaxRunSteps = 3;

/// One implementation of the real entries, for gates whose coefficients
/// are all real, over a double array of `len` entries. A real state is
/// `dim` packed doubles, one per basis state, and qubit t is array bit t.
/// An interleaved complex buffer read as 2*dim doubles is a real array
/// too: array bit 0 selects the real or the imaginary part, so qubit t is
/// array bit t + 1, and a real gate scales both parts alike. Callers shift
/// the stride, mask and value up one bit for that view.
///
/// Contract shared by every backend (the scalar one is the oracle):
///  - the pair coverage, update formula and control test above;
///  - `real_run` applies its 1..kMaxRunSteps steps in order; their strides
///    are distinct (callers validate). Its result is byte-identical to one
///    real_run call per step, in the same order, on the same backend; the
///    scalar entry is exactly those one-gate loops. A one-gate call is a
///    run of one step.
/// A vector backend may take structure fast paths — a diagonal gate skips
/// its zero products, an H-shaped gate (g10 = g00, g11 = -g01, bit for
/// bit) computes p = g00*lo and q = g01*hi once for lo' = p + q and
/// hi' = p - q, controlled ops visit only the matching pairs, and a run
/// shares one load/store sweep. The H-shaped butterfly is byte-identical
/// to the formula, since -(g01*hi) is g11*hi exactly and p - q is
/// p + (-q). A skipped product is a +-0 term, so the only byte difference
/// a fast path can make is the sign of an amplitude part that is exactly
/// zero. For the same reason a real entry on the complex view equals the
/// complex loops on a real gate in value: it leaves out the products of
/// the gate's zero imaginary parts. The equivalence suite pins both down.
struct KernelOps {
  void (*real_run)(double* x, std::size_t len, std::span<const RealStep> steps);
  void (*real_pairs_controlled)(double* x, std::size_t len, std::size_t stride,
                                const RealCoeffs& g, BasisState control_mask,
                                BasisState control_value);
};

/// The reference real entries: plain loops of the formula. Always
/// available; the equivalence tests diff the AVX2 entries against them.
const KernelOps& scalar_ops();

/// The backend selected for this process (CPU probe).
const KernelOps& active_ops();
Backend active_backend();
const char* backend_name(Backend b);

/// The AVX2 real entries, or null when this build target is not x86-64 or
/// the running CPU does not report AVX2 — the provider performs its own
/// runtime probe, so a non-null result is always safe to call.
const KernelOps* avx2_ops_or_null();

}  // namespace qcongest::quantum::kernels
