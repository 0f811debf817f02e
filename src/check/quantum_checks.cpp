#include "src/check/quantum_checks.hpp"

#include <cmath>
#include <complex>
#include <stdexcept>
#include <vector>

#include "src/quantum/circuit.hpp"
#include "src/quantum/sparse_statevector.hpp"
#include "src/quantum/statevector.hpp"

namespace qcongest::check {

namespace {

std::optional<Violation> norm_violation(double norm, const std::string& where,
                                        double tol) {
  if (std::abs(norm - 1.0) <= tol) return std::nullopt;
  return Violation{InvariantKind::kStateNorm, false, 0, false, 0, 0,
                   where + ": norm " + std::to_string(norm) + " drifted more than " +
                       std::to_string(tol) + " from 1"};
}

}  // namespace

std::optional<Violation> check_state_norm(const quantum::Statevector& state,
                                          const std::string& where, double tol) {
  return norm_violation(state.norm(), where, tol);
}

std::optional<Violation> check_state_norm(const quantum::SparseStatevector& state,
                                          const std::string& where, double tol) {
  return norm_violation(state.norm(), where, tol);
}

std::optional<Violation> check_circuit_unitary(const quantum::Circuit& circuit,
                                               const std::string& where, double tol) {
  const unsigned n = circuit.num_qubits();
  if (n > kMaxUnitarityQubits) {
    throw std::invalid_argument(
        "check_circuit_unitary: matrix reconstruction is exponential; refuse > " +
        std::to_string(kMaxUnitarityQubits) + " qubits");
  }
  const std::size_t dim = std::size_t{1} << n;

  // Column b of the circuit's matrix is the circuit applied to |b>.
  std::vector<std::vector<quantum::Amplitude>> columns(dim);
  for (std::size_t b = 0; b < dim; ++b) {
    quantum::Statevector state(n, static_cast<quantum::BasisState>(b));
    circuit.apply_to(state);
    columns[b] = state.amplitudes();
  }

  // U is unitary iff its columns are orthonormal: <col_i, col_j> = delta_ij.
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = i; j < dim; ++j) {
      quantum::Amplitude dot{0.0, 0.0};
      for (std::size_t r = 0; r < dim; ++r) {
        dot += std::conj(columns[i][r]) * columns[j][r];
      }
      const double expected = i == j ? 1.0 : 0.0;
      if (std::abs(dot - quantum::Amplitude{expected, 0.0}) <= tol) continue;
      return Violation{
          InvariantKind::kCircuitUnitarity, false, 0, false, 0, 0,
          where + ": <col " + std::to_string(i) + ", col " + std::to_string(j) +
              "> = (" + std::to_string(dot.real()) + ", " + std::to_string(dot.imag()) +
              "), expected " + std::to_string(expected) +
              " — the circuit does not preserve norms"};
    }
  }
  return std::nullopt;
}

}  // namespace qcongest::check
