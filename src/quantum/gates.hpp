#pragma once

#include <array>

#include "src/quantum/types.hpp"

namespace qcongest::quantum {

/// A single-qubit gate as a row-major 2x2 unitary.
struct Gate1 {
  std::array<Amplitude, 4> m;  // [ m00 m01 ; m10 m11 ]

  Amplitude operator()(unsigned row, unsigned col) const { return m[row * 2 + col]; }
};

namespace gates {

Gate1 identity();
Gate1 hadamard();
Gate1 pauli_x();
Gate1 pauli_y();
Gate1 pauli_z();
Gate1 s();        // phase gate diag(1, i)
Gate1 s_dagger();
Gate1 t();        // diag(1, e^{i pi/4})
Gate1 t_dagger();
Gate1 rx(double theta);
Gate1 ry(double theta);
Gate1 rz(double theta);
Gate1 phase(double phi);  // diag(1, e^{i phi})

/// Adjoint (conjugate transpose) of a single-qubit gate.
Gate1 dagger(const Gate1& g);

/// True when g is unitary up to tolerance.
bool is_unitary(const Gate1& g, double tol = 1e-9);

/// True when the imaginary parts of all four coefficients are exactly zero.
/// Structural, like the kernels' zero tests: such a part only ever
/// contributes +-0 products, which the real kernel entries leave out, so a
/// tolerance here would change results, not robustness.
bool is_real(const Gate1& g);

}  // namespace gates

}  // namespace qcongest::quantum
