#include "src/quantum/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstdint>

namespace qcongest::quantum::kernels {
namespace {

#define QC_AVX2 __attribute__((target("avx2")))
// The tile helpers are inlined at every optimization level, so an -O0
// build (coverage, sanitizers) runs one loop per sweep, not a call per
// vector.
#define QC_AVX2_INLINE __attribute__((target("avx2"), always_inline)) inline

// --- Real entries -------------------------------------------------------------
//
// A __m256d holds four doubles of the real array. A real butterfly is mul
// and add only — lo' = lo*g00 + hi*g01, hi' = lo*g10 + hi*g11, each product
// rounded once as in the scalar oracle, no FMA. Array bits 0 and 1 pair
// lanes inside one vector; bits >= 2 pair whole vectors. Every entry applies
// a gate through the same helpers, so a run is byte-identical to its steps'
// one-gate calls.

// The butterfly a gate's coefficients select, once per step. A diagonal gate
// (off-diagonal exactly zero) skips those products. An H-shaped gate
// (g10 = g00, g11 = -g01) computes p = lo*g00 and q = hi*g01 once for
// lo' = p + q and hi' = p - q: -(hi*g01) is hi*g11 exactly and p - q is
// p + (-q), so the bytes are the formula's.
enum class Shape : std::uint8_t { kGeneral = 0, kHShaped = 1, kDiagonal = 2 };

inline Shape shape_of(const RealCoeffs& g) {
  if (g.g01 == 0.0 && g.g10 == 0.0) {  // qlint-allow(float-equal): structural zero selects an algebraic identity
    return Shape::kDiagonal;
  }
  // Bit patterns, not values: +0 == -0 would admit a zero coefficient whose
  // shared product carries the other sign of zero.
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  if (bits(g.g10) == bits(g.g00) && bits(g.g11) == bits(-g.g01)) {
    return Shape::kHShaped;
  }
  return Shape::kGeneral;
}

// The coefficients pre-broadcast for both butterfly layouts. Across two
// vectors every lane of g00..g11 holds that coefficient. Inside a vector
// `in_diag` multiplies the vector and `in_off` its lanes swapped with their
// partners: array bit 0 pairs lanes (0, 1) and (2, 3), so they are
// [g00 g11 g00 g11] and [g01 g10 g01 g10]; array bit 1 pairs (0, 2) and
// (1, 3), so they are [g00 g00 g11 g11] and [g01 g01 g10 g10].
struct RealGate {
  __m256d g00, g01, g10, g11;
  __m256d in_diag, in_off;
  Shape shape;
};

QC_AVX2_INLINE RealGate real_gate(const RealCoeffs& g, std::size_t stride) {
  const bool bit0 = stride == 1;
  return {_mm256_set1_pd(g.g00),
          _mm256_set1_pd(g.g01),
          _mm256_set1_pd(g.g10),
          _mm256_set1_pd(g.g11),
          bit0 ? _mm256_setr_pd(g.g00, g.g11, g.g00, g.g11)
               : _mm256_setr_pd(g.g00, g.g00, g.g11, g.g11),
          bit0 ? _mm256_setr_pd(g.g01, g.g10, g.g01, g.g10)
               : _mm256_setr_pd(g.g01, g.g01, g.g10, g.g10),
          shape_of(g)};
}

// One butterfly across two vectors: lane k of lo pairs with lane k of hi.
template <Shape S>
QC_AVX2_INLINE void butterfly(__m256d& lo, __m256d& hi, const RealGate& g) {
  if constexpr (S == Shape::kDiagonal) {
    lo = _mm256_mul_pd(lo, g.g00);
    hi = _mm256_mul_pd(hi, g.g11);
  } else if constexpr (S == Shape::kHShaped) {
    const __m256d p = _mm256_mul_pd(lo, g.g00);
    const __m256d q = _mm256_mul_pd(hi, g.g01);
    lo = _mm256_add_pd(p, q);
    hi = _mm256_sub_pd(p, q);
  } else {
    const __m256d a0 = lo;
    lo = _mm256_add_pd(_mm256_mul_pd(a0, g.g00), _mm256_mul_pd(hi, g.g01));
    hi = _mm256_add_pd(_mm256_mul_pd(a0, g.g10), _mm256_mul_pd(hi, g.g11));
  }
}

// One butterfly inside a vector, on array bit 0 (kBit0) or 1.
template <bool kBit0, bool kDiagonal>
QC_AVX2_INLINE __m256d lanes(__m256d v, const RealGate& g) {
  const __m256d d = _mm256_mul_pd(v, g.in_diag);
  if constexpr (kDiagonal) {
    return d;
  } else {
    const __m256d partner = kBit0 ? _mm256_permute_pd(v, 0b0101)
                                  : _mm256_permute2f128_pd(v, v, 0x01);
    return _mm256_add_pd(d, _mm256_mul_pd(partner, g.in_off));
  }
}

// The 2^B vectors of a tile. Every index below is a template argument, so
// the tile lives in registers.
template <unsigned B>
struct Tile {
  __m256d v[1u << B];
};

// Gate g of shape S on tile bit J: vectors M and M | 2^J pair.
template <Shape S, unsigned J, unsigned B, unsigned M = 0>
QC_AVX2_INLINE void across(Tile<B>& t, const RealGate& g) {
  if constexpr (J < B && M < (1u << B)) {
    if constexpr ((M >> J & 1) == 0) butterfly<S>(t.v[M], t.v[M | 1u << J], g);
    across<S, J, B, M + 1>(t, g);
  }
}

// Gate g inside every vector of the tile.
template <bool kBit0, bool kDiagonal, unsigned B, unsigned M = 0>
QC_AVX2_INLINE void within(Tile<B>& t, const RealGate& g) {
  if constexpr (M < (1u << B)) {
    t.v[M] = lanes<kBit0, kDiagonal>(t.v[M], g);
    within<kBit0, kDiagonal, B, M + 1>(t, g);
  }
}

// H-shaped gates h[0..kSteps) on tile bits 0..kSteps-1, in that order.
template <unsigned kSteps, unsigned B, unsigned J = 0>
QC_AVX2_INLINE void h_steps(Tile<B>& t, const RealGate* h) {
  if constexpr (J < kSteps) {
    across<Shape::kHShaped, J>(t, h[J]);
    h_steps<kSteps, B, J + 1>(t, h);
  }
}

// Where tile vector M sits: the tile base plus the strides of M's set
// bits. Bit 2 comes with its own base pointer, so every address is one
// register plus one of {0, t0, t1, t0 + t1}.
struct TileBase {
  double* q0;
  double* q1;  // q0 + t2
};

template <unsigned M>
[[gnu::always_inline]] inline double* tile_at(const TileBase& b,
                                              std::size_t t0, std::size_t t1) {
  double* q = (M & 4) != 0 ? b.q1 : b.q0;
  if constexpr ((M & 3) == 1) return q + t0;
  if constexpr ((M & 3) == 2) return q + t1;
  if constexpr ((M & 3) == 3) return q + (t0 + t1);
  return q;
}

template <unsigned B, unsigned M = 0>
QC_AVX2_INLINE void load(Tile<B>& t, const TileBase& b, std::size_t t0,
                         std::size_t t1) {
  if constexpr (M < (1u << B)) {
    t.v[M] = _mm256_loadu_pd(tile_at<M>(b, t0, t1));
    load<B, M + 1>(t, b, t0, t1);
  }
}

template <unsigned B, unsigned M = 0>
QC_AVX2_INLINE void store(const Tile<B>& t, const TileBase& b, std::size_t t0,
                          std::size_t t1) {
  if constexpr (M < (1u << B)) {
    _mm256_storeu_pd(tile_at<M>(b, t0, t1), t.v[M]);
    store<B, M + 1>(t, b, t0, t1);
  }
}

// What one step does to a tile: a butterfly of its shape across tile bit
// j (op 3j + shape), or one inside every vector on array bit 0 or 1.
enum class StepOp : std::uint8_t {
  kAcross0General, kAcross0HShaped, kAcross0Diagonal,
  kAcross1General, kAcross1HShaped, kAcross1Diagonal,
  kAcross2General, kAcross2HShaped, kAcross2Diagonal,
  kWithin0, kWithin0Diagonal, kWithin1, kWithin1Diagonal,
};

template <unsigned B>
QC_AVX2_INLINE void apply_step(Tile<B>& t, StepOp op, const RealGate& g) {
  switch (op) {
    case StepOp::kAcross0General: across<Shape::kGeneral, 0>(t, g); return;
    case StepOp::kAcross0HShaped: across<Shape::kHShaped, 0>(t, g); return;
    case StepOp::kAcross0Diagonal: across<Shape::kDiagonal, 0>(t, g); return;
    case StepOp::kAcross1General: across<Shape::kGeneral, 1>(t, g); return;
    case StepOp::kAcross1HShaped: across<Shape::kHShaped, 1>(t, g); return;
    case StepOp::kAcross1Diagonal: across<Shape::kDiagonal, 1>(t, g); return;
    case StepOp::kAcross2General: across<Shape::kGeneral, 2>(t, g); return;
    case StepOp::kAcross2HShaped: across<Shape::kHShaped, 2>(t, g); return;
    case StepOp::kAcross2Diagonal: across<Shape::kDiagonal, 2>(t, g); return;
    case StepOp::kWithin0: within<true, false>(t, g); return;
    case StepOp::kWithin0Diagonal: within<true, true>(t, g); return;
    case StepOp::kWithin1: within<false, false>(t, g); return;
    case StepOp::kWithin1Diagonal: within<false, true>(t, g); return;
  }
}

// One across butterfly for the controlled entry: its shape, per call.
QC_AVX2_INLINE void real_across(__m256d& lo, __m256d& hi, const RealGate& g) {
  switch (g.shape) {
    case Shape::kGeneral:
      butterfly<Shape::kGeneral>(lo, hi, g);
      return;
    case Shape::kHShaped:
      butterfly<Shape::kHShaped>(lo, hi, g);
      return;
    case Shape::kDiagonal:
      butterfly<Shape::kDiagonal>(lo, hi, g);
      return;
  }
}

// A tile is at most eight vectors: with the coefficients of three gates,
// that is what stays in the 16 YMM registers.
constexpr unsigned kMaxTileBits = 3;
static_assert(kMaxRunSteps <= kMaxTileBits);

// A run laid out for one sweep. Tile bit j sits at array stride
// stride[j]: first the run's steps that pair whole vectors (strides >= 4),
// in op order, so across step j pairs along tile bit j; then, up to
// kMaxTileBits, the lowest strides >= 4 no step uses, which pair nothing
// and only widen the tile where the array has room, so every dispatch is
// shared by eight vectors. The other steps pair lanes inside each vector.
struct RunPlan {
  RealGate gate[kMaxRunSteps];
  StepOp op[kMaxRunSteps] = {};
  unsigned count = 0;
  unsigned across = 0;
  bool all_h = true;  // every step pairs whole vectors and is H-shaped
  std::size_t stride[kMaxTileBits] = {};
};

// One sweep per run: each tile is loaded once, gets every step in op order
// in registers, and is stored once. The tile bases are the multiples of 4
// with every tile stride bit clear, in ascending order: setting those bits
// before adding 4 carries past them. Steps are dispatched per step and
// tile, or, for kHSteps > 0 (a run of that many H-shaped steps across
// vectors, the H layers), not at all.
template <unsigned B, unsigned kHSteps>
QC_AVX2 void run_sweep(double* x, std::size_t len, const RunPlan& p) {
  const std::size_t t0 = p.stride[0];
  const std::size_t t1 = p.stride[1];
  const std::size_t t2 = p.stride[2];
  const std::size_t skip = t0 | t1 | t2;
  RealGate h[kHSteps > 0 ? kHSteps : 1];
  for (unsigned j = 0; j < kHSteps; ++j) h[j] = p.gate[j];
  for (std::size_t i = 0; i < len; i = ((i | skip) + 4) & ~skip) {
    const TileBase b{x + i, x + i + t2};
    Tile<B> tile{};
    load(tile, b, t0, t1);
    if constexpr (kHSteps > 0) {
      h_steps<kHSteps>(tile, h);
    } else {
      for (unsigned s = 0; s < p.count; ++s) apply_step(tile, p.op[s], p.gate[s]);
    }
    store(tile, b, t0, t1);
  }
}

QC_AVX2 void avx2_real_run(double* x, std::size_t len,
                           std::span<const RealStep> steps) {
  if (len < 4) {  // one qubit: a single pair, less than a vector
    scalar_ops().real_run(x, len, steps);
    return;
  }
  RunPlan p;
  for (const RealStep& s : steps) {
    const RealGate g = real_gate(s.g, s.stride);
    const bool diagonal = g.shape == Shape::kDiagonal;
    StepOp op;
    if (s.stride < 4) {
      op = s.stride == 1
               ? (diagonal ? StepOp::kWithin0Diagonal : StepOp::kWithin0)
               : (diagonal ? StepOp::kWithin1Diagonal : StepOp::kWithin1);
      p.all_h = false;
    } else {
      op = static_cast<StepOp>(3 * p.across + static_cast<unsigned>(g.shape));
      p.all_h = p.all_h && g.shape == Shape::kHShaped;
      p.stride[p.across++] = s.stride;
    }
    p.gate[p.count] = g;
    p.op[p.count++] = op;
  }
  unsigned bits = p.across;
  for (std::size_t free = 4; bits < kMaxTileBits && free < len; free <<= 1) {
    if (std::find(p.stride, p.stride + p.across, free) == p.stride + p.across) {
      p.stride[bits++] = free;
    }
  }
  switch (bits) {
    case 0:
      run_sweep<0, 0>(x, len, p);
      return;
    case 1:
      run_sweep<1, 0>(x, len, p);
      return;
    case 2:
      run_sweep<2, 0>(x, len, p);
      return;
    default:
      break;
  }
  switch (p.all_h ? p.across : 0) {
    case 0:
      run_sweep<3, 0>(x, len, p);
      return;
    case 1:
      run_sweep<3, 1>(x, len, p);
      return;
    case 2:
      run_sweep<3, 2>(x, len, p);
      return;
    default:
      run_sweep<3, 3>(x, len, p);
      return;
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

#undef QC_AVX2_INLINE
#undef QC_AVX2

constexpr KernelOps kAvx2Ops{avx2_real_run, avx2_real_pairs_controlled};

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
