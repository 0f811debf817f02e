#include "src/quantum/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace qcongest::quantum::kernels {
namespace {

#define QC_AVX2 __attribute__((target("avx2")))

// A __m256d holds two interleaved complex doubles [re0 im0 re1 im1].
//
// cmul multiplies both by one complex scalar g, given as the pre-broadcast
// vectors gr = [g.re]*4 and gi = [g.im]*4:
//   t1     = (re*gr, im*gr)
//   t2     = (im*gi, re*gi)        (operand with re/im swapped per lane)
//   addsub = (re*gr - im*gi, im*gr + re*gi)
// Each product is rounded once and combined with one add/sub — the same
// per-operation rounding as std::complex operator* in the scalar oracle,
// so no fused-multiply-add sneaks in a different result.
QC_AVX2 inline __m256d cmul(__m256d v, __m256d gr, __m256d gi) {
  const __m256d t1 = _mm256_mul_pd(v, gr);
  const __m256d swapped = _mm256_permute_pd(v, 0b0101);
  const __m256d t2 = _mm256_mul_pd(swapped, gi);
  return _mm256_addsub_pd(t1, t2);
}

QC_AVX2 inline __m256d bre(const Amplitude& g) {
  return _mm256_set1_pd(g.real());
}
QC_AVX2 inline __m256d bim(const Amplitude& g) {
  return _mm256_set1_pd(g.imag());
}

inline bool is_zero(const Amplitude& a) {
  // Structural-zero detection for the diagonal/antidiagonal fast paths:
  // only coefficients that are exactly zero may skip their products, so a
  // tolerance here would be a correctness bug, not a robustness feature.
  return a.real() == 0.0 && a.imag() == 0.0;  // qlint-allow(float-equal): structural zero selects an algebraic identity
}

inline bool is_real(const Gate1Coeffs& g) {
  // Structural like is_zero: an imaginary part that is exactly zero only
  // ever contributes +-0 products, which the real path leaves out.
  for (const Amplitude& c : {g.g00, g.g01, g.g10, g.g11}) {
    if (c.imag() != 0.0) return false;  // qlint-allow(float-equal): structural zero selects an algebraic identity
  }
  return true;
}

// --- Real-coefficient path --------------------------------------------------
//
// A gate whose four coefficients are real scales both parts of an amplitude
// by the same double, so each product is one mul on the interleaved
// [re im] lanes and each sum one add: no swap, no addsub, and no products
// of a zero imaginary part. The one-gate path and the two-gate sweep share
// these helpers, so a pair of gates is byte-identical to its two passes.

// The real parts pre-broadcast for both butterfly layouts. Across two
// vectors (stride >= 2) every lane of g00..g11 holds that coefficient.
// Inside one vector [lo hi] (stride 1) `in_diag` = [g00 g00 g11 g11] and
// `in_off` = [g01 g01 g10 g10] multiply the vector and its halves swapped.
struct RealGate {
  __m256d g00, g01, g10, g11;
  __m256d in_diag, in_off;
  bool diagonal;  // off-diagonal zero: skip those products, as pairs_strided does
};

QC_AVX2 inline RealGate real_gate(const Gate1Coeffs& g) {
  const double r00 = g.g00.real(), r01 = g.g01.real();
  const double r10 = g.g10.real(), r11 = g.g11.real();
  return {_mm256_set1_pd(r00),
          _mm256_set1_pd(r01),
          _mm256_set1_pd(r10),
          _mm256_set1_pd(r11),
          _mm256_setr_pd(r00, r00, r11, r11),
          _mm256_setr_pd(r01, r01, r10, r10),
          is_zero(g.g01) && is_zero(g.g10)};
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

// One butterfly inside a vector [lo hi] (target qubit 0).
QC_AVX2 inline __m256d real_within(__m256d v, const RealGate& g) {
  const __m256d d = _mm256_mul_pd(v, g.in_diag);
  if (g.diagonal) return d;
  const __m256d swapped = _mm256_permute2f128_pd(v, v, 0x01);
  return _mm256_add_pd(d, _mm256_mul_pd(swapped, g.in_off));
}

QC_AVX2 void real_pairs(Amplitude* amps, std::size_t dim, std::size_t stride,
                        const Gate1Coeffs& coeffs) {
  const RealGate g = real_gate(coeffs);
  double* d = reinterpret_cast<double*>(amps);
  if (stride == 1) {
    for (std::size_t i = 0; i < 2 * dim; i += 4) {
      _mm256_storeu_pd(d + i, real_within(_mm256_loadu_pd(d + i), g));
    }
    return;
  }
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    double* lo = d + 2 * base;
    double* hi = lo + 2 * stride;
    for (std::size_t off = 0; off < 2 * stride; off += 4) {
      __m256d vlo = _mm256_loadu_pd(lo + off);
      __m256d vhi = _mm256_loadu_pd(hi + off);
      real_across(vlo, vhi, g);
      _mm256_storeu_pd(lo + off, vlo);
      _mm256_storeu_pd(hi + off, vhi);
    }
  }
}

// Gate a at stride sa, then gate b at stride sb, in one sweep: every group
// of amplitudes the two gates mix is loaded once, gets a's butterflies and
// then b's in registers, and is stored once.
QC_AVX2 void real_pairs2(Amplitude* amps, std::size_t dim, std::size_t sa,
                         const Gate1Coeffs& ca, std::size_t sb,
                         const Gate1Coeffs& cb) {
  const RealGate a = real_gate(ca);
  const RealGate b = real_gate(cb);
  double* d = reinterpret_cast<double*>(amps);
  if (sa == 1 || sb == 1) {
    // One target is qubit 0: its butterfly runs inside each vector, the
    // other gate's across the two vectors s apart.
    const std::size_t s = sa == 1 ? sb : sa;
    for (std::size_t base = 0; base < dim; base += 2 * s) {
      double* lo = d + 2 * base;
      double* hi = lo + 2 * s;
      for (std::size_t off = 0; off < 2 * s; off += 4) {
        __m256d vlo = _mm256_loadu_pd(lo + off);
        __m256d vhi = _mm256_loadu_pd(hi + off);
        if (sa == 1) {
          vlo = real_within(vlo, a);
          vhi = real_within(vhi, a);
          real_across(vlo, vhi, b);
        } else {
          real_across(vlo, vhi, a);
          vlo = real_within(vlo, b);
          vhi = real_within(vhi, b);
        }
        _mm256_storeu_pd(lo + off, vlo);
        _mm256_storeu_pd(hi + off, vhi);
      }
    }
    return;
  }
  // Both strides >= 2: the quad {i, i+sa, i+sb, i+sa+sb} is four vectors
  // of two complexes, for every even i with bits sa and sb clear.
  const std::size_t s_lo = sa < sb ? sa : sb;
  const std::size_t s_hi = sa < sb ? sb : sa;
  for (std::size_t outer = 0; outer < dim; outer += 2 * s_hi) {
    for (std::size_t inner = outer; inner < outer + s_hi; inner += 2 * s_lo) {
      for (std::size_t i = inner; i < inner + s_lo; i += 2) {
        double* p00 = d + 2 * i;
        double* p10 = p00 + 2 * sa;
        double* p01 = p00 + 2 * sb;
        double* p11 = p10 + 2 * sb;
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

// --- Complex-coefficient path -----------------------------------------------

// Target qubit 0: the pair is two adjacent complexes, one __m256d. Broadcast
// each amplitude across both 128-bit lanes and pack the gate column-wise —
// lane 0 computes the new lo, lane 1 the new hi.
QC_AVX2 void pairs_stride1(Amplitude* amps, std::size_t dim,
                           const Gate1Coeffs& g) {
  const __m256d c0r = _mm256_setr_pd(g.g00.real(), g.g00.real(),
                                     g.g10.real(), g.g10.real());
  const __m256d c0i = _mm256_setr_pd(g.g00.imag(), g.g00.imag(),
                                     g.g10.imag(), g.g10.imag());
  const __m256d c1r = _mm256_setr_pd(g.g01.real(), g.g01.real(),
                                     g.g11.real(), g.g11.real());
  const __m256d c1i = _mm256_setr_pd(g.g01.imag(), g.g01.imag(),
                                     g.g11.imag(), g.g11.imag());
  double* d = reinterpret_cast<double*>(amps);
  for (std::size_t base = 0; base < dim; base += 2, d += 4) {
    const __m256d v = _mm256_loadu_pd(d);
    const __m256d a0 = _mm256_permute2f128_pd(v, v, 0x00);
    const __m256d a1 = _mm256_permute2f128_pd(v, v, 0x11);
    _mm256_storeu_pd(d, _mm256_add_pd(cmul(a0, c0r, c0i), cmul(a1, c1r, c1i)));
  }
}

// stride >= 2 (always even): lo/hi runs are contiguous, two complexes per
// vector, no tail. The diagonal / antidiagonal shapes skip the half of the
// arithmetic that multiplies by a structural zero.
QC_AVX2 void pairs_strided(Amplitude* amps, std::size_t dim, std::size_t stride,
                           const Gate1Coeffs& g) {
  const bool diagonal = is_zero(g.g01) && is_zero(g.g10);
  const bool antidiagonal = is_zero(g.g00) && is_zero(g.g11);
  const __m256d g00r = bre(g.g00), g00i = bim(g.g00);
  const __m256d g01r = bre(g.g01), g01i = bim(g.g01);
  const __m256d g10r = bre(g.g10), g10i = bim(g.g10);
  const __m256d g11r = bre(g.g11), g11i = bim(g.g11);
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    double* lo = reinterpret_cast<double*>(amps + base);
    double* hi = reinterpret_cast<double*>(amps + base + stride);
    if (diagonal) {
      for (std::size_t off = 0; off < 2 * stride; off += 4) {
        _mm256_storeu_pd(lo + off, cmul(_mm256_loadu_pd(lo + off), g00r, g00i));
        _mm256_storeu_pd(hi + off, cmul(_mm256_loadu_pd(hi + off), g11r, g11i));
      }
    } else if (antidiagonal) {
      for (std::size_t off = 0; off < 2 * stride; off += 4) {
        const __m256d vlo = _mm256_loadu_pd(lo + off);
        const __m256d vhi = _mm256_loadu_pd(hi + off);
        _mm256_storeu_pd(lo + off, cmul(vhi, g01r, g01i));
        _mm256_storeu_pd(hi + off, cmul(vlo, g10r, g10i));
      }
    } else {
      for (std::size_t off = 0; off < 2 * stride; off += 4) {
        const __m256d vlo = _mm256_loadu_pd(lo + off);
        const __m256d vhi = _mm256_loadu_pd(hi + off);
        _mm256_storeu_pd(
            lo + off,
            _mm256_add_pd(cmul(vlo, g00r, g00i), cmul(vhi, g01r, g01i)));
        _mm256_storeu_pd(
            hi + off,
            _mm256_add_pd(cmul(vlo, g10r, g10i), cmul(vhi, g11r, g11i)));
      }
    }
  }
}

QC_AVX2 void avx2_pairs(Amplitude* amps, std::size_t dim, std::size_t stride,
                        const Gate1Coeffs& g) {
  if (is_real(g)) {
    real_pairs(amps, dim, stride, g);
  } else if (stride == 1) {
    pairs_stride1(amps, dim, g);
  } else {
    pairs_strided(amps, dim, stride, g);
  }
}

QC_AVX2 void avx2_pairs_controlled(Amplitude* amps, std::size_t dim,
                                   std::size_t stride, const Gate1Coeffs& g,
                                   BasisState control_mask,
                                   BasisState control_value) {
  // Split the mask and value around the target bit: bits above the run
  // (constant across [base, base + stride)) gate whole runs; bits below
  // vary with `off` and force the scalar formula inside the run. Controls
  // above the target — cnot/ccx in ascending circuits, the common case —
  // therefore vectorize fully.
  const BasisState mask_lo = control_mask & (stride - 1);
  const BasisState mask_hi = control_mask & ~(2 * stride - 1);
  const BasisState value_lo = control_value & (stride - 1);
  const BasisState value_hi = control_value & ~(2 * stride - 1);
  // In-run offsets that match are exactly value_lo OR'd with a subset of
  // the uncontrolled low bits, so the in-run branch enumerates those
  // subsets instead of testing every offset: a phase flip controlled on
  // every qubit below its target visits one pair, not 2^(w-1) offsets.
  const BasisState free_lo = (stride - 1) & ~mask_lo;
  const __m256d g00r = bre(g.g00), g00i = bim(g.g00);
  const __m256d g01r = bre(g.g01), g01i = bim(g.g01);
  const __m256d g10r = bre(g.g10), g10i = bim(g.g10);
  const __m256d g11r = bre(g.g11), g11i = bim(g.g11);
  for (std::size_t base = 0; base < dim; base += 2 * stride) {
    if ((base & mask_hi) != value_hi) continue;
    Amplitude* lo = amps + base;
    Amplitude* hi = lo + stride;
    if (mask_lo != 0) {
      BasisState subset = 0;
      do {
        const BasisState off = subset | value_lo;
        const Amplitude a0 = lo[off];
        const Amplitude a1 = hi[off];
        lo[off] = g.g00 * a0 + g.g01 * a1;
        hi[off] = g.g10 * a0 + g.g11 * a1;
        subset = (subset - free_lo) & free_lo;  // next subset, ascending
      } while (subset != 0);
      continue;
    }
    if (stride == 1) {
      // One pair, adjacent: the stride-1 lane trick on a single vector.
      const __m256d c0r = _mm256_setr_pd(g.g00.real(), g.g00.real(),
                                         g.g10.real(), g.g10.real());
      const __m256d c0i = _mm256_setr_pd(g.g00.imag(), g.g00.imag(),
                                         g.g10.imag(), g.g10.imag());
      const __m256d c1r = _mm256_setr_pd(g.g01.real(), g.g01.real(),
                                         g.g11.real(), g.g11.real());
      const __m256d c1i = _mm256_setr_pd(g.g01.imag(), g.g01.imag(),
                                         g.g11.imag(), g.g11.imag());
      double* d = reinterpret_cast<double*>(lo);
      const __m256d v = _mm256_loadu_pd(d);
      const __m256d a0 = _mm256_permute2f128_pd(v, v, 0x00);
      const __m256d a1 = _mm256_permute2f128_pd(v, v, 0x11);
      _mm256_storeu_pd(d,
                       _mm256_add_pd(cmul(a0, c0r, c0i), cmul(a1, c1r, c1i)));
      continue;
    }
    double* dlo = reinterpret_cast<double*>(lo);
    double* dhi = reinterpret_cast<double*>(hi);
    for (std::size_t off = 0; off < 2 * stride; off += 4) {
      const __m256d vlo = _mm256_loadu_pd(dlo + off);
      const __m256d vhi = _mm256_loadu_pd(dhi + off);
      _mm256_storeu_pd(
          dlo + off,
          _mm256_add_pd(cmul(vlo, g00r, g00i), cmul(vhi, g01r, g01i)));
      _mm256_storeu_pd(
          dhi + off,
          _mm256_add_pd(cmul(vlo, g10r, g10i), cmul(vhi, g11r, g11i)));
    }
  }
}

QC_AVX2 void avx2_pairs2(Amplitude* amps, std::size_t dim, std::size_t stride_a,
                         const Gate1Coeffs& ga, std::size_t stride_b,
                         const Gate1Coeffs& gb) {
  if (is_real(ga) && is_real(gb)) {
    real_pairs2(amps, dim, stride_a, ga, stride_b, gb);
    return;
  }
  avx2_pairs(amps, dim, stride_a, ga);
  avx2_pairs(amps, dim, stride_b, gb);
}

#undef QC_AVX2

constexpr KernelOps kAvx2Ops{avx2_pairs, avx2_pairs_controlled, avx2_pairs2};

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
