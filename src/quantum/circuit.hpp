#pragma once

#include <vector>

#include "src/quantum/gates.hpp"
#include "src/quantum/statevector.hpp"

namespace qcongest::quantum {

/// A straight-line quantum circuit: an ordered list of (possibly controlled)
/// single-qubit gates. Supports composition and inversion, which is what the
/// framework's "uncompute" steps need.
class Circuit {
 public:
  explicit Circuit(unsigned num_qubits) : num_qubits_(num_qubits) {}

  unsigned num_qubits() const { return num_qubits_; }
  std::size_t size() const { return ops_.size(); }

  Circuit& gate(const Gate1& g, unsigned target);
  /// `g` on `target`, controlled on every qubit in `controls`: a control
  /// fires on |1>, or on |0> when its bit is set in `open_controls` (a mask
  /// over qubit indices, which must name only qubits in `controls`).
  Circuit& controlled(const Gate1& g, std::vector<unsigned> controls, unsigned target,
                      BasisState open_controls = 0);

  Circuit& h(unsigned q) { return gate(gates::hadamard(), q); }
  Circuit& x(unsigned q) { return gate(gates::pauli_x(), q); }
  Circuit& y(unsigned q) { return gate(gates::pauli_y(), q); }
  Circuit& z(unsigned q) { return gate(gates::pauli_z(), q); }
  Circuit& rz(unsigned q, double theta) { return gate(gates::rz(theta), q); }
  Circuit& ry(unsigned q, double theta) { return gate(gates::ry(theta), q); }
  Circuit& phase(unsigned q, double phi) { return gate(gates::phase(phi), q); }
  Circuit& cnot(unsigned c, unsigned t) { return controlled(gates::pauli_x(), {c}, t); }
  Circuit& cz(unsigned c, unsigned t) { return controlled(gates::pauli_z(), {c}, t); }
  Circuit& cphase(unsigned c, unsigned t, double phi) {
    return controlled(gates::phase(phi), {c}, t);
  }
  Circuit& ccx(unsigned c1, unsigned c2, unsigned t) {
    return controlled(gates::pauli_x(), {c1, c2}, t);
  }
  Circuit& swap(unsigned a, unsigned b) {
    cnot(a, b);
    cnot(b, a);
    return cnot(a, b);
  }

  /// Append all operations of `other` (must act on the same qubit count).
  Circuit& append(const Circuit& other);

  /// The adjoint circuit: gates reversed and conjugate-transposed.
  Circuit inverse() const;

  /// The circuit with `control` added as an extra control, firing on |1>,
  /// to every operation (controlled-(AB) = controlled-A controlled-B).
  /// `control` must not appear in any existing operation.
  Circuit controlled_on(unsigned control) const;

  /// The same circuit re-indexed into a wider register: qubit q becomes
  /// qubit q + offset of a `new_width`-qubit circuit.
  Circuit embedded(unsigned new_width, unsigned offset) const;

  /// Run the ops in order on `state` and return the number of kernel calls
  /// made. Each maximal run of up to three consecutive uncontrolled real
  /// gates on distinct targets is one Statevector::apply_run call (runs are
  /// greedy, from the front); every controlled op and every complex gate is
  /// one call of its own. The result is byte-identical to applying the ops
  /// one at a time.
  std::size_t apply_to(Statevector& state) const;

  /// Run on |0...0> and return the resulting state.
  Statevector simulate() const;

 private:
  struct Op {
    Gate1 g;
    std::vector<unsigned> controls;
    unsigned target;
    BasisState open_controls;  // controls that fire on |0>, by qubit bit
  };

  unsigned num_qubits_;
  std::vector<Op> ops_;
};

}  // namespace qcongest::quantum
