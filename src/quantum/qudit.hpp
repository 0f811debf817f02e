#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/quantum/types.hpp"
#include "src/util/rng.hpp"

namespace qcongest::quantum {

/// A single register of dimension k (not necessarily a power of two).
///
/// Several of the paper's query algorithms live naturally in C^k — the span
/// of the index states |1>, ..., |k> — rather than in a qubit tensor space.
/// Simulating directly in C^k is exact and scales to k in the millions,
/// which the dense qubit simulator cannot. Deutsch-Jozsa (Theorem 17) and
/// the analytic Grover checks use this class.
class QuditState {
 public:
  explicit QuditState(std::size_t dimension);

  /// Uniform superposition over [0, k).
  static QuditState uniform(std::size_t dimension);

  std::size_t dimension() const { return amps_.size(); }
  Amplitude amplitude(std::size_t i) const { return amps_.at(i); }

  double norm() const;

  /// Phase oracle |i> -> (-1)^{f(i)} |i>.
  void apply_phase_oracle(const std::function<bool(std::size_t)>& f);

  /// Reflection through the uniform superposition: 2|u><u| - I.
  void reflect_about_uniform();

  /// Overlap <u|psi> with the uniform state (used by the Deutsch-Jozsa
  /// measurement: the probability of the all-zero outcome is |<u|psi>|^2).
  Amplitude overlap_with_uniform() const;

  /// Sample a basis index from the current distribution (non-collapsing).
  std::size_t sample(util::Rng& rng) const;

  /// Probability of measuring index i.
  double probability(std::size_t i) const;

 private:
  std::vector<Amplitude> amps_;
};

}  // namespace qcongest::quantum
