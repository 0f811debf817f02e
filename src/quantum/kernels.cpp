#include "src/quantum/kernels.hpp"

namespace qcongest::quantum::kernels {

// --- Complex loops ----------------------------------------------------------
//
// These are the historical Statevector::apply loops verbatim. Strided pair
// iteration: the 0-side indices of the (b, b | 1<<target) pairs are exactly
// the runs [base, base + stride) for base stepping by 2 * stride, so the
// inner loop is branch-free — no per-index bit test — and walks two
// contiguous ranges the hardware prefetcher likes. No structure detection
// here on purpose: the oracle stays the plain formula every real entry is
// diffed against.

void apply_pairs(Amplitude* amps, std::size_t dim, std::size_t stride,
                 const Gate1Coeffs& g) {
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    Amplitude* lo = amps + base;
    Amplitude* hi = lo + stride;
    for (std::size_t off = 0; off < stride; ++off) {
      const Amplitude a0 = lo[off];
      const Amplitude a1 = hi[off];
      lo[off] = g.g00 * a0 + g.g01 * a1;
      hi[off] = g.g10 * a0 + g.g11 * a1;
    }
  }
}

void apply_pairs_controlled(Amplitude* amps, std::size_t dim,
                            std::size_t stride, const Gate1Coeffs& g,
                            BasisState control_mask, BasisState control_value) {
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    Amplitude* lo = amps + base;
    Amplitude* hi = lo + stride;
    for (std::size_t off = 0; off < stride; ++off) {
      if (((base + off) & control_mask) != control_value) continue;
      const Amplitude a0 = lo[off];
      const Amplitude a1 = hi[off];
      lo[off] = g.g00 * a0 + g.g01 * a1;
      hi[off] = g.g10 * a0 + g.g11 * a1;
    }
  }
}

namespace {

// --- Scalar real entries ----------------------------------------------------
//
// The same loops over a double array with real coefficients; a run is its
// steps' one-gate loops in order.
void scalar_real_pairs(double* x, std::size_t len, std::size_t stride,
                       const RealCoeffs& g) {
  for (std::size_t base = 0; base < len; base += 2 * stride) {
    double* lo = x + base;
    double* hi = lo + stride;
    for (std::size_t off = 0; off < stride; ++off) {
      const double a0 = lo[off];
      const double a1 = hi[off];
      lo[off] = g.g00 * a0 + g.g01 * a1;
      hi[off] = g.g10 * a0 + g.g11 * a1;
    }
  }
}

void scalar_real_run(double* x, std::size_t len,
                     std::span<const RealStep> steps) {
  for (const RealStep& s : steps) scalar_real_pairs(x, len, s.stride, s.g);
}

void scalar_real_pairs_controlled(double* x, std::size_t len,
                                  std::size_t stride, const RealCoeffs& g,
                                  BasisState control_mask,
                                  BasisState control_value) {
  for (std::size_t base = 0; base < len; base += 2 * stride) {
    double* lo = x + base;
    double* hi = lo + stride;
    for (std::size_t off = 0; off < stride; ++off) {
      if (((base + off) & control_mask) != control_value) continue;
      const double a0 = lo[off];
      const double a1 = hi[off];
      lo[off] = g.g00 * a0 + g.g01 * a1;
      hi[off] = g.g10 * a0 + g.g11 * a1;
    }
  }
}

constexpr KernelOps kScalarOps{scalar_real_run, scalar_real_pairs_controlled};

}  // namespace

const KernelOps& scalar_ops() { return kScalarOps; }

Backend active_backend() {
  static const Backend backend =
      avx2_ops_or_null() != nullptr ? Backend::kAvx2 : Backend::kScalar;
  return backend;
}

const KernelOps& active_ops() {
  static const KernelOps* ops = active_backend() == Backend::kAvx2
                                    ? avx2_ops_or_null()
                                    : &kScalarOps;
  return *ops;
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

}  // namespace qcongest::quantum::kernels
