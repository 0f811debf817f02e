#pragma once

#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/quantum/gates.hpp"
#include "src/quantum/types.hpp"
#include "src/util/rng.hpp"

namespace qcongest::quantum {

/// Dense statevector simulator over up to kMaxQubits qubits.
///
/// Qubit 0 is the least significant bit of the basis-state index. The class
/// maintains the invariant that the state is normalized (up to floating
/// point error) after every public mutating operation.
class Statevector {
 public:
  static constexpr unsigned kMaxQubits = 26;

  /// |0...0> on `num_qubits` qubits.
  explicit Statevector(unsigned num_qubits);

  /// A specific basis state on `num_qubits` qubits.
  Statevector(unsigned num_qubits, BasisState basis);

  unsigned num_qubits() const { return num_qubits_; }
  std::size_t dimension() const { return amplitudes_.size(); }

  Amplitude amplitude(BasisState basis) const { return amplitudes_.at(basis); }
  std::span<const Amplitude> amplitudes() const { return amplitudes_; }

  /// Probability of measuring exactly `basis` on all qubits.
  double probability(BasisState basis) const;

  /// Probability that measuring `qubit` yields 1.
  double probability_of_one(unsigned qubit) const;

  double norm() const;

  /// <other|this>.
  Amplitude inner_product(const Statevector& other) const;

  /// Fidelity |<other|this>|^2.
  double fidelity(const Statevector& other) const;

  // --- Gates ---------------------------------------------------------------

  void apply(const Gate1& gate, unsigned target);

  /// `a` on `target_a`, then `b` on `target_b`, as one kernel call: the
  /// result is byte-identical to apply(a, target_a) then apply(b, target_b).
  /// On AVX2 two real gates share one sweep over the state. Throws
  /// std::invalid_argument when the targets are equal.
  void apply_pair(const Gate1& a, unsigned target_a, const Gate1& b,
                  unsigned target_b);

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

  /// Hadamard on every qubit: qubits (0, 1), (2, 3), ... as apply_pair
  /// calls, and an odd top qubit alone.
  void h_all();

  // --- Oracles / bulk operations -------------------------------------------

  /// |b> -> phase(b) * |b> for every basis state. `phase` must return a
  /// unit-modulus complex number for the result to stay normalized.
  ///
  /// A template, so lambdas and function objects bind directly and the
  /// per-amplitude call inlines instead of going through a type-erased
  /// std::function dispatch.
  template <typename PhaseFn>
  void apply_diagonal(PhaseFn&& phase) {
    for (std::size_t b = 0; b < amplitudes_.size(); ++b) {
      amplitudes_[b] *= phase(static_cast<BasisState>(b));
    }
  }

  /// Permutation on basis states: |b> -> |pi(b)>. `pi` must be a bijection
  /// on [0, 2^n). A template for the same reason as apply_diagonal.
  template <typename PiFn>
  void apply_permutation(PiFn&& pi) {
    // scratch_ is reused across calls (boosting loops permute repeatedly),
    // so the steady state allocates nothing.
    scratch_.assign(amplitudes_.size(), Amplitude{0, 0});
    for (std::size_t b = 0; b < amplitudes_.size(); ++b) {
      BasisState target = pi(static_cast<BasisState>(b));
      if (target >= amplitudes_.size()) {
        throw std::invalid_argument("apply_permutation: image out of range");
      }
      scratch_[target] += amplitudes_[b];
    }
    // A genuine permutation preserves the norm; verify to catch non-bijections.
    double total = 0.0;
    for (const Amplitude& a : scratch_) total += std::norm(a);
    if (std::abs(total - 1.0) > 1e-6) {
      throw std::invalid_argument("apply_permutation: map is not a bijection");
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

  unsigned num_qubits_;
  std::vector<Amplitude> amplitudes_;
  std::vector<Amplitude> scratch_;  // apply_permutation workspace
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
