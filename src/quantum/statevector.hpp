#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/quantum/gates.hpp"
#include "src/quantum/kernels.hpp"
#include "src/quantum/types.hpp"
#include "src/util/rng.hpp"

namespace qcongest::quantum {

/// A gate and the qubit it acts on: one gate of Statevector::apply_run.
struct TargetedGate {
  Gate1 g;
  unsigned target;
};

/// Dense statevector simulator over up to kMaxQubits qubits.
///
/// Qubit 0 is the least significant bit of the basis-state index. The class
/// maintains the invariant that the state is normalized (up to floating
/// point error) after every public mutating operation.
///
/// Representation: a state holds one real double per basis state for as
/// long as every operation applied to it has been real, and interleaved
/// complex amplitudes from its first complex operation on. A gate is real
/// when the imaginary parts of its four coefficients are exactly zero;
/// apply_diagonal is real while every phase it returns is. The first
/// complex operation widens the state once, in place, and it never narrows
/// back. The representation is not an option: readers see the same
/// amplitudes and the same probability bytes either way, and is_real()
/// only reports which one is live.
class Statevector {
 public:
  static constexpr unsigned kMaxQubits = 26;

  /// |0...0> on `num_qubits` qubits.
  explicit Statevector(unsigned num_qubits);

  /// A specific basis state on `num_qubits` qubits.
  Statevector(unsigned num_qubits, BasisState basis);

  unsigned num_qubits() const { return num_qubits_; }
  std::size_t dimension() const { return amplitudes_.size(); }

  /// True while every operation applied has been real (see the class
  /// comment); the amplitudes are then packed doubles.
  bool is_real() const { return real_; }

  Amplitude amplitude(BasisState basis) const;
  /// Every amplitude, as complex numbers whatever the representation.
  std::vector<Amplitude> amplitudes() const;

  /// Probability of measuring exactly `basis` on all qubits.
  double probability(BasisState basis) const;

  /// Probability that measuring `qubit` yields 1.
  double probability_of_one(unsigned qubit) const;

  double norm() const;

  /// <other|this>; either state may be real or complex.
  Amplitude inner_product(const Statevector& other) const;

  /// Fidelity |<other|this>|^2.
  double fidelity(const Statevector& other) const;

  // --- Gates ---------------------------------------------------------------

  /// The most gates one apply_run call takes.
  static constexpr std::size_t kMaxRunGates = kernels::kMaxRunSteps;

  /// `gate` on `target`: a run of one gate.
  void apply(const Gate1& gate, unsigned target);

  /// The gates of `run` in order. Consecutive real gates are one kernel
  /// call, which on AVX2 shares one sweep over the state; a complex gate
  /// ends them and runs alone. Either way the result is byte-identical to
  /// one apply call per gate, in order. Throws std::invalid_argument, with
  /// the state unchanged, on a repeated or out-of-range target and on more
  /// than kMaxRunGates gates.
  void apply_run(std::span<const TargetedGate> run);

  /// Gate applied to `target`, controlled on every qubit in `controls`: a
  /// control fires on |1>, or on |0> when its bit is set in `open_controls`
  /// (a mask over qubit indices, which must name only qubits in `controls`).
  void apply_controlled(const Gate1& gate, std::span<const unsigned> controls,
                        unsigned target, BasisState open_controls = 0);

  void h(unsigned q) { apply(gates::hadamard(), q); }
  void x(unsigned q) { apply(gates::pauli_x(), q); }
  void y(unsigned q) { apply(gates::pauli_y(), q); }
  void z(unsigned q) { apply(gates::pauli_z(), q); }
  void cnot(unsigned control, unsigned target);
  void cz(unsigned control, unsigned target);
  void ccx(unsigned c1, unsigned c2, unsigned target);
  void swap_qubits(unsigned a, unsigned b);

  /// Hadamard on qubits [first, first + count): (first, first + 1,
  /// first + 2), (first + 3, ...), ... as apply_run calls of up to three
  /// gates, the last one shorter when count is not a multiple of three.
  /// Throws std::invalid_argument when the range leaves the register.
  void h_all(unsigned first, unsigned count);
  /// Hadamard on every qubit.
  void h_all() { h_all(0, num_qubits_); }

  // --- Oracles / bulk operations -------------------------------------------

  /// |b> -> phase(b) * |b> for every basis state. `phase` must return a
  /// unit-modulus complex number for the result to stay normalized. A real
  /// state stays real up to the first phase with a nonzero imaginary part,
  /// where it widens.
  ///
  /// A template, so lambdas and function objects bind directly and the
  /// per-amplitude call inlines instead of going through a type-erased
  /// std::function dispatch.
  template <typename PhaseFn>
  void apply_diagonal(PhaseFn&& phase) {
    const std::size_t dim = amplitudes_.size();
    std::size_t b = 0;
    if (real_) {
      double* x = reals();
      for (; b < dim; ++b) {
        const Amplitude p = phase(static_cast<BasisState>(b));
        if (p.imag() != 0.0) {  // qlint-allow(float-equal): structural zero keeps the state real
          widen();
          amplitudes_[b] *= p;
          ++b;
          break;
        }
        x[b] *= p.real();
      }
    }
    for (; b < dim; ++b) {
      amplitudes_[b] *= phase(static_cast<BasisState>(b));
    }
  }

  /// Permutation on basis states: |b> -> |pi(b)>. `pi` must be a bijection
  /// on [0, 2^n); an image out of range or hit twice throws
  /// std::invalid_argument and leaves the state unchanged. A template for
  /// the same reason as apply_diagonal.
  template <typename PiFn>
  void apply_permutation(PiFn&& pi) {
    // scratch_ and hit_ are reused across calls (boosting loops permute
    // repeatedly), so the steady state allocates nothing. Every image is
    // marked in hit_: a second hit is a collision, which a norm check
    // would miss when the colliding sources have zero amplitude.
    const std::size_t dim = amplitudes_.size();
    scratch_.resize(dim);
    hit_.assign(dim / 64 + 1, 0);
    auto permute = [&](const auto* from, auto* to) {
      for (std::size_t b = 0; b < dim; ++b) {
        const BasisState target = pi(static_cast<BasisState>(b));
        if (target >= dim) {
          throw std::invalid_argument("apply_permutation: image out of range");
        }
        std::uint64_t& word = hit_[target / 64];
        const std::uint64_t bit = std::uint64_t{1} << (target % 64);
        if ((word & bit) != 0) {
          throw std::invalid_argument("apply_permutation: map is not a bijection");
        }
        word |= bit;
        to[target] = from[b];
      }
    };
    if (real_) {
      permute(reals(), reinterpret_cast<double*>(scratch_.data()));
    } else {
      permute(amplitudes_.data(), scratch_.data());
    }
    amplitudes_.swap(scratch_);
  }

  // --- Measurement ----------------------------------------------------------

  /// Measure all qubits; collapses to the sampled basis state.
  BasisState measure_all(util::Rng& rng);

  /// Measure a single qubit; collapses (and renormalizes) the state.
  bool measure_qubit(unsigned qubit, util::Rng& rng);

  /// Sample a basis state without collapsing.
  BasisState sample(util::Rng& rng) const;

  /// Marginal distribution over the qubits [first, first + count).
  std::vector<double> marginal(unsigned first, unsigned count) const;

 private:
  void check_qubit(unsigned q) const;

  /// Real to complex, in place: amplitude b becomes {x[b], 0}, walking b
  /// down from dim - 1 so no packed double is overwritten before it is
  /// read. Nothing is allocated. A no-op on a complex state.
  void widen();

  /// The double array the real kernel entries run on: the packed reals, or
  /// on a complex state the interleaved buffer read as 2 * dim doubles,
  /// where array bit 0 picks the real or imaginary part and qubit t is
  /// array bit t + 1. A qubit's stride, mask and value move into array bits
  /// by `<< shift`.
  struct RealView {
    double* x;
    std::size_t len;
    unsigned shift;
  };
  RealView real_view();

  /// The packed reals: the first dim doubles of the complex-sized buffer.
  /// std::complex<double> is layout-compatible with double[2], so the
  /// buffer read as doubles is well defined.
  double* reals() { return reinterpret_cast<double*>(amplitudes_.data()); }
  const double* reals() const {
    return reinterpret_cast<const double*>(amplitudes_.data());
  }

  /// |amplitude b|^2, read from the live representation. On a real state
  /// x*x equals std::norm's x*x + 0*0 byte for byte.
  double probability_at(std::size_t b) const {
    if (real_) return reals()[b] * reals()[b];
    return std::norm(amplitudes_[b]);
  }

  unsigned num_qubits_;
  bool real_ = true;
  /// dim complex slots; on a real state only the first dim doubles are live.
  std::vector<Amplitude> amplitudes_;
  std::vector<Amplitude> scratch_;   // apply_permutation workspace
  std::vector<std::uint64_t> hit_;   // apply_permutation: images seen
};

/// Precomputed cumulative-probability table for repeated sampling of one
/// fixed distribution — the boosting-loop companion of Statevector::sample.
///
/// Statevector::sample is a full O(2^n) scan per draw; snapshotting the
/// cumulative probabilities once turns every further draw into an O(n)
/// binary search, and the draws are byte-identical to what the scan would
/// have returned for the same RNG stream (first index whose cumulative
/// probability exceeds the uniform draw, tail-guarded against rounding).
class CumulativeSampler {
 public:
  /// From an explicit distribution (e.g. Statevector::marginal); weights
  /// must be non-negative and sum to ~1.
  explicit CumulativeSampler(std::span<const double> probabilities);

  std::size_t size() const { return cumulative_.size(); }

  /// One draw; O(log size). Identical to the linear scan in
  /// Statevector::sample for the same rng stream.
  BasisState sample(util::Rng& rng) const;

 private:
  std::vector<double> cumulative_;
};

}  // namespace qcongest::quantum
