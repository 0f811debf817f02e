#include "src/quantum/kernels.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace qcongest::quantum::kernels {
namespace {

// A float64x2_t holds one complex double [re im]. cmul multiplies it by the
// complex scalar g pre-broadcast as gr = [g.re]*2 and gi = [g.im]*2:
//   t1   = (re*gr, im*gr)
//   t2   = (im*gi, re*gi)
//   out  = t1 + t2 * (-1, +1) = (re*gr - im*gi, im*gr + re*gi)
// The (-1, +1) multiply is exact, so each component sees one rounded
// product and one rounded add — the same rounding schedule as the scalar
// oracle's std::complex operator* (no fused multiply-add).
inline float64x2_t cmul(float64x2_t v, float64x2_t gr, float64x2_t gi,
                        float64x2_t sign) {
  const float64x2_t t1 = vmulq_f64(v, gr);
  const float64x2_t swapped = vextq_f64(v, v, 1);
  const float64x2_t t2 = vmulq_f64(swapped, gi);
  return vaddq_f64(t1, vmulq_f64(t2, sign));
}

void neon_pairs(Amplitude* amps, std::size_t dim, std::size_t stride,
                const Gate1Coeffs& g) {
  const float64x2_t sign = {-1.0, 1.0};
  const float64x2_t g00r = vdupq_n_f64(g.g00.real()), g00i = vdupq_n_f64(g.g00.imag());
  const float64x2_t g01r = vdupq_n_f64(g.g01.real()), g01i = vdupq_n_f64(g.g01.imag());
  const float64x2_t g10r = vdupq_n_f64(g.g10.real()), g10i = vdupq_n_f64(g.g10.imag());
  const float64x2_t g11r = vdupq_n_f64(g.g11.real()), g11i = vdupq_n_f64(g.g11.imag());
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    double* lo = reinterpret_cast<double*>(amps + base);
    double* hi = reinterpret_cast<double*>(amps + base + stride);
    for (std::size_t off = 0; off < 2 * stride; off += 2) {
      const float64x2_t a0 = vld1q_f64(lo + off);
      const float64x2_t a1 = vld1q_f64(hi + off);
      vst1q_f64(lo + off, vaddq_f64(cmul(a0, g00r, g00i, sign),
                                    cmul(a1, g01r, g01i, sign)));
      vst1q_f64(hi + off, vaddq_f64(cmul(a0, g10r, g10i, sign),
                                    cmul(a1, g11r, g11i, sign)));
    }
  }
}

void neon_pairs_controlled(Amplitude* amps, std::size_t dim, std::size_t stride,
                           const Gate1Coeffs& g, BasisState control_mask,
                           BasisState control_value) {
  const float64x2_t sign = {-1.0, 1.0};
  const float64x2_t g00r = vdupq_n_f64(g.g00.real()), g00i = vdupq_n_f64(g.g00.imag());
  const float64x2_t g01r = vdupq_n_f64(g.g01.real()), g01i = vdupq_n_f64(g.g01.imag());
  const float64x2_t g10r = vdupq_n_f64(g.g10.real()), g10i = vdupq_n_f64(g.g10.imag());
  const float64x2_t g11r = vdupq_n_f64(g.g11.real()), g11i = vdupq_n_f64(g.g11.imag());
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    Amplitude* lo = amps + base;
    Amplitude* hi = lo + stride;
    for (std::size_t off = 0; off < stride; ++off) {
      if (((base + off) & control_mask) != control_value) continue;
      const float64x2_t a0 = vld1q_f64(reinterpret_cast<double*>(lo + off));
      const float64x2_t a1 = vld1q_f64(reinterpret_cast<double*>(hi + off));
      vst1q_f64(reinterpret_cast<double*>(lo + off),
                vaddq_f64(cmul(a0, g00r, g00i, sign), cmul(a1, g01r, g01i, sign)));
      vst1q_f64(reinterpret_cast<double*>(hi + off),
                vaddq_f64(cmul(a0, g10r, g10i, sign), cmul(a1, g11r, g11i, sign)));
    }
  }
}

}  // namespace

// NEON is architecturally guaranteed on aarch64 — no runtime probe needed.
// The real entries are the scalar ones: there is no NEON real kernel.
const KernelOps* neon_ops_or_null() {
  static const KernelOps ops{neon_pairs, neon_pairs_controlled,
                             scalar_ops().real_pairs, scalar_ops().real_pairs2,
                             scalar_ops().real_pairs_controlled};
  return &ops;
}

}  // namespace qcongest::quantum::kernels

#else  // not aarch64

namespace qcongest::quantum::kernels {
const KernelOps* neon_ops_or_null() { return nullptr; }
}  // namespace qcongest::quantum::kernels

#endif
