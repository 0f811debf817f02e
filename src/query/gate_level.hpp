#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/quantum/circuit.hpp"
#include "src/util/rng.hpp"

namespace qcongest::query {

/// Gate-level constructions on the dense statevector simulator. These are
/// only feasible at toy scale; they exist to cross-validate the
/// exact-in-distribution simulations (grover_math, mean_estimation) that the
/// distributed algorithms use at scale, and to provide honest gate-level
/// implementations of the Section 6 building blocks (amplitude
/// amplification, phase estimation, amplitude estimation).

/// Phase-flip oracle S_f on `width` qubits: |s> -> -|s> for s in `marked`,
/// one open-controlled gate per marked state (controls fire on |0> where
/// the state has a 0 bit). Throws std::invalid_argument on a state outside
/// [0, 2^width) or a repeated state (two flips of one state cancel).
quantum::Circuit phase_flip_circuit(unsigned width,
                                    const std::vector<quantum::BasisState>& marked);

/// The BHMT amplitude-amplification iterate Q = -A S_0 A^{-1} S_f for an
/// arbitrary state-preparation circuit A (Lemma 27's iterate, including the
/// global -1 so that controlled-Q is correct for amplitude estimation).
quantum::Circuit amplification_iterate_circuit(
    const quantum::Circuit& prep, const std::vector<quantum::BasisState>& marked);

/// The standard Grover iterate: the special case A = H^{\otimes width}.
quantum::Circuit grover_iterate_circuit(unsigned width,
                                        const std::vector<quantum::BasisState>& marked);

/// Gate-level Grover search: runs the optimal number of iterations for
/// |marked| targets on `width` qubits and measures. Returns the measured
/// basis state.
quantum::BasisState gate_level_grover_search(
    unsigned width, const std::vector<quantum::BasisState>& marked, util::Rng& rng);

/// Gate-level quantum phase estimation. `u` acts on m qubits; `prep` maps
/// |0^m> to a state (ideally an eigenstate of u). Returns the measured phase
/// estimate in [0, 1) using `precision` ancilla qubits.
double gate_level_phase_estimation(const quantum::Circuit& u,
                                   const quantum::Circuit& prep, unsigned precision,
                                   util::Rng& rng);

/// Gate-level amplitude estimation (BHMT canonical form): estimates
/// a = |marked| / 2^width by phase estimation on the Grover iterate.
double gate_level_amplitude_estimation(unsigned width,
                                       const std::vector<quantum::BasisState>& marked,
                                       unsigned precision, util::Rng& rng);

/// Gate-level Deutsch–Jozsa on the qubit simulator: f over [2^width] is
/// promised constant or balanced; returns true iff constant, with zero
/// error. Cross-validates the C^k qudit implementation used at scale.
bool gate_level_deutsch_jozsa_is_constant(
    unsigned width, const std::function<bool(std::uint64_t)>& f);

/// Gate-level quantum counting: estimates |marked| among [0, 2^width) by
/// amplitude estimation, rounded to the nearest integer. With `precision`
/// >= width + 2 the count is exact with high probability.
std::size_t gate_level_count_marked(unsigned width,
                                    const std::vector<quantum::BasisState>& marked,
                                    unsigned precision, util::Rng& rng);

/// Gate-level Dürr–Høyer minimum finding at toy scale: the threshold
/// comparisons run as real reversible arithmetic (value oracle + CDKM
/// comparator, quantum/arithmetic.hpp), the Grover iterations as real
/// gates. data.size() must be a power of two (<= 64 for tractable widths);
/// values must fit in `value_width` bits. Succeeds w.p. >= 2/3 —
/// cross-validates the distribution-exact query::minfind used at scale.
std::size_t gate_level_minfind(const std::vector<std::uint64_t>& data,
                               unsigned value_width, util::Rng& rng);

}  // namespace qcongest::query
