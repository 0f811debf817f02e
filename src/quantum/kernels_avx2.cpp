#include "src/quantum/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace qcongest::quantum::kernels {
namespace {

#define QC_AVX2 __attribute__((target("avx2")))

// --- Real entries -------------------------------------------------------------
//
// A __m256d holds four doubles of the real array. A real butterfly is mul
// and add only — lo' = lo*g00 + hi*g01, hi' = lo*g10 + hi*g11, each product
// rounded once as in the scalar oracle, no FMA. Array bits 0 and 1 pair
// lanes inside one vector; bits >= 2 pair whole vectors. The one-gate and
// two-gate entries share these helpers, so a pair of gates is
// byte-identical to its two one-gate calls.

// The coefficients pre-broadcast for both butterfly layouts. Across two
// vectors every lane of g00..g11 holds that coefficient. Inside a vector
// `in_diag` multiplies the vector and `in_off` its lanes swapped with their
// partners: array bit 0 pairs lanes (0, 1) and (2, 3), so they are
// [g00 g11 g00 g11] and [g01 g10 g01 g10]; array bit 1 pairs (0, 2) and
// (1, 3), so they are [g00 g00 g11 g11] and [g01 g01 g10 g10].
struct RealGate {
  __m256d g00, g01, g10, g11;
  __m256d in_diag, in_off;
  bool diagonal;  // off-diagonal exactly zero: skip those products
};

QC_AVX2 inline RealGate real_gate(const RealCoeffs& g, std::size_t stride) {
  const bool bit0 = stride == 1;
  return {_mm256_set1_pd(g.g00),
          _mm256_set1_pd(g.g01),
          _mm256_set1_pd(g.g10),
          _mm256_set1_pd(g.g11),
          bit0 ? _mm256_setr_pd(g.g00, g.g11, g.g00, g.g11)
               : _mm256_setr_pd(g.g00, g.g00, g.g11, g.g11),
          bit0 ? _mm256_setr_pd(g.g01, g.g10, g.g01, g.g10)
               : _mm256_setr_pd(g.g01, g.g01, g.g10, g.g10),
          g.g01 == 0.0 && g.g10 == 0.0};  // qlint-allow(float-equal): structural zero selects an algebraic identity
}

// One butterfly across two vectors: lane k of lo pairs with lane k of hi.
QC_AVX2 inline void real_across(__m256d& lo, __m256d& hi, const RealGate& g) {
  if (g.diagonal) {
    lo = _mm256_mul_pd(lo, g.g00);
    hi = _mm256_mul_pd(hi, g.g11);
    return;
  }
  const __m256d a0 = lo;
  lo = _mm256_add_pd(_mm256_mul_pd(a0, g.g00), _mm256_mul_pd(hi, g.g01));
  hi = _mm256_add_pd(_mm256_mul_pd(a0, g.g10), _mm256_mul_pd(hi, g.g11));
}

// One butterfly inside a vector, on array bit 0 (kStride 1) or 1 (kStride 2).
template <std::size_t kStride>
QC_AVX2 inline __m256d real_within(__m256d v, const RealGate& g) {
  const __m256d d = _mm256_mul_pd(v, g.in_diag);
  if (g.diagonal) return d;
  __m256d partner;
  if constexpr (kStride == 1) {
    partner = _mm256_permute_pd(v, 0b0101);
  } else {
    partner = _mm256_permute2f128_pd(v, v, 0x01);
  }
  return _mm256_add_pd(d, _mm256_mul_pd(partner, g.in_off));
}

template <std::size_t kStride>
QC_AVX2 void within_sweep(double* x, std::size_t len, const RealGate& g) {
  for (std::size_t i = 0; i < len; i += 4) {
    _mm256_storeu_pd(x + i, real_within<kStride>(_mm256_loadu_pd(x + i), g));
  }
}

QC_AVX2 void avx2_real_pairs(double* x, std::size_t len, std::size_t stride,
                             const RealCoeffs& coeffs) {
  if (len < 4) {  // one qubit: a single pair, less than a vector
    scalar_ops().real_pairs(x, len, stride, coeffs);
    return;
  }
  const RealGate g = real_gate(coeffs, stride);
  if (stride == 1) {
    within_sweep<1>(x, len, g);
    return;
  }
  if (stride == 2) {
    within_sweep<2>(x, len, g);
    return;
  }
  for (std::size_t base = 0; base < len; base += 2 * stride) {
    double* lo = x + base;
    double* hi = lo + stride;
    for (std::size_t off = 0; off < stride; off += 4) {
      __m256d vlo = _mm256_loadu_pd(lo + off);
      __m256d vhi = _mm256_loadu_pd(hi + off);
      real_across(vlo, vhi, g);
      _mm256_storeu_pd(lo + off, vlo);
      _mm256_storeu_pd(hi + off, vhi);
    }
  }
}

// The two-gate sweeps: every group of entries the two gates mix is loaded
// once, gets a's butterflies and then b's in registers, and is stored once.

// Both targets inside the vector (array bits 0 and 1, in either order).
template <std::size_t kA, std::size_t kB>
QC_AVX2 void within2_sweep(double* x, std::size_t len, const RealGate& a,
                           const RealGate& b) {
  for (std::size_t i = 0; i < len; i += 4) {
    const __m256d v = real_within<kA>(_mm256_loadu_pd(x + i), a);
    _mm256_storeu_pd(x + i, real_within<kB>(v, b));
  }
}

// One gate inside each vector at array stride kIn, the other across the
// vectors s apart; kInFirst says whether gate a is the inside one.
template <std::size_t kIn, bool kInFirst>
QC_AVX2 void within_across_sweep(double* x, std::size_t len, std::size_t s,
                                 const RealGate& a, const RealGate& b) {
  for (std::size_t base = 0; base < len; base += 2 * s) {
    double* lo = x + base;
    double* hi = lo + s;
    for (std::size_t off = 0; off < s; off += 4) {
      __m256d vlo = _mm256_loadu_pd(lo + off);
      __m256d vhi = _mm256_loadu_pd(hi + off);
      if constexpr (kInFirst) {
        vlo = real_within<kIn>(vlo, a);
        vhi = real_within<kIn>(vhi, a);
        real_across(vlo, vhi, b);
      } else {
        real_across(vlo, vhi, a);
        vlo = real_within<kIn>(vlo, b);
        vhi = real_within<kIn>(vhi, b);
      }
      _mm256_storeu_pd(lo + off, vlo);
      _mm256_storeu_pd(hi + off, vhi);
    }
  }
}

// Two distinct strides below len put len >= 4, so every case is whole
// vectors.
QC_AVX2 void avx2_real_pairs2(double* x, std::size_t len, std::size_t sa,
                              const RealCoeffs& ca, std::size_t sb,
                              const RealCoeffs& cb) {
  const RealGate a = real_gate(ca, sa);
  const RealGate b = real_gate(cb, sb);
  if (sa < 4 && sb < 4) {
    if (sa == 1) {
      within2_sweep<1, 2>(x, len, a, b);
    } else {
      within2_sweep<2, 1>(x, len, a, b);
    }
    return;
  }
  if (sa < 4) {
    if (sa == 1) {
      within_across_sweep<1, true>(x, len, sb, a, b);
    } else {
      within_across_sweep<2, true>(x, len, sb, a, b);
    }
    return;
  }
  if (sb < 4) {
    if (sb == 1) {
      within_across_sweep<1, false>(x, len, sa, a, b);
    } else {
      within_across_sweep<2, false>(x, len, sa, a, b);
    }
    return;
  }
  // Both strides >= 4: the quad {i, i+sa, i+sb, i+sa+sb} is four vectors,
  // for every i that is a multiple of 4 with bits sa and sb clear.
  const std::size_t s_lo = sa < sb ? sa : sb;
  const std::size_t s_hi = sa < sb ? sb : sa;
  for (std::size_t outer = 0; outer < len; outer += 2 * s_hi) {
    for (std::size_t inner = outer; inner < outer + s_hi; inner += 2 * s_lo) {
      for (std::size_t i = inner; i < inner + s_lo; i += 4) {
        double* p00 = x + i;
        double* p10 = p00 + sa;
        double* p01 = p00 + sb;
        double* p11 = p10 + sb;
        __m256d v00 = _mm256_loadu_pd(p00);
        __m256d v10 = _mm256_loadu_pd(p10);
        __m256d v01 = _mm256_loadu_pd(p01);
        __m256d v11 = _mm256_loadu_pd(p11);
        real_across(v00, v10, a);
        real_across(v01, v11, a);
        real_across(v00, v01, b);
        real_across(v10, v11, b);
        _mm256_storeu_pd(p00, v00);
        _mm256_storeu_pd(p10, v10);
        _mm256_storeu_pd(p01, v01);
        _mm256_storeu_pd(p11, v11);
      }
    }
  }
}

QC_AVX2 void avx2_real_pairs_controlled(double* x, std::size_t len,
                                        std::size_t stride,
                                        const RealCoeffs& coeffs,
                                        BasisState control_mask,
                                        BasisState control_value) {
  // Split the mask and value around the target bit: bits above the run
  // (constant across [base, base + stride)) gate whole runs, which
  // vectorize; bits below vary with `off`. The in-run offsets that match
  // are exactly value_lo OR'd with a subset of the uncontrolled low bits,
  // so the in-run branch enumerates those subsets instead of testing every
  // offset: a phase flip controlled on every qubit below its target visits
  // one pair, not 2^(w-1) offsets. A run narrower than a vector (stride 1
  // or 2) is enumerated too: with no bit below the target in the mask, the
  // subsets are every offset of the run.
  const BasisState mask_lo = control_mask & (stride - 1);
  const BasisState mask_hi = control_mask & ~(2 * stride - 1);
  const BasisState value_lo = control_value & (stride - 1);
  const BasisState value_hi = control_value & ~(2 * stride - 1);
  const BasisState free_lo = (stride - 1) & ~mask_lo;
  const RealGate g = real_gate(coeffs, stride);
  for (std::size_t base = 0; base < len; base += 2 * stride) {
    if ((base & mask_hi) != value_hi) continue;
    double* lo = x + base;
    double* hi = lo + stride;
    if (mask_lo != 0 || stride < 4) {
      BasisState subset = 0;
      do {
        const BasisState off = subset | value_lo;
        const double a0 = lo[off];
        const double a1 = hi[off];
        lo[off] = coeffs.g00 * a0 + coeffs.g01 * a1;
        hi[off] = coeffs.g10 * a0 + coeffs.g11 * a1;
        subset = (subset - free_lo) & free_lo;  // next subset, ascending
      } while (subset != 0);
      continue;
    }
    for (std::size_t off = 0; off < stride; off += 4) {
      __m256d vlo = _mm256_loadu_pd(lo + off);
      __m256d vhi = _mm256_loadu_pd(hi + off);
      real_across(vlo, vhi, g);
      _mm256_storeu_pd(lo + off, vlo);
      _mm256_storeu_pd(hi + off, vhi);
    }
  }
}

#undef QC_AVX2

constexpr KernelOps kAvx2Ops{avx2_real_pairs, avx2_real_pairs2,
                             avx2_real_pairs_controlled};

}  // namespace

const KernelOps* avx2_ops_or_null() {
  return __builtin_cpu_supports("avx2") ? &kAvx2Ops : nullptr;
}

}  // namespace qcongest::quantum::kernels

#else  // not x86-64

namespace qcongest::quantum::kernels {
const KernelOps* avx2_ops_or_null() { return nullptr; }
}  // namespace qcongest::quantum::kernels

#endif
