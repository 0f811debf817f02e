#include "src/quantum/circuit.hpp"

#include <algorithm>
#include <stdexcept>

namespace qcongest::quantum {

Circuit& Circuit::gate(const Gate1& g, unsigned target) {
  if (target >= num_qubits_) throw std::invalid_argument("Circuit: target out of range");
  ops_.push_back(Op{g, {}, target, 0});
  return *this;
}

Circuit& Circuit::controlled(const Gate1& g, std::vector<unsigned> controls,
                             unsigned target, BasisState open_controls) {
  if (target >= num_qubits_) throw std::invalid_argument("Circuit: target out of range");
  BasisState control_mask = 0;
  for (unsigned c : controls) {
    if (c >= num_qubits_) throw std::invalid_argument("Circuit: control out of range");
    if (c == target) throw std::invalid_argument("Circuit: control equals target");
    control_mask |= BasisState{1} << c;
  }
  if ((open_controls & ~control_mask) != 0) {
    throw std::invalid_argument("Circuit: open control is not a control");
  }
  ops_.push_back(Op{g, std::move(controls), target, open_controls});
  return *this;
}

Circuit& Circuit::append(const Circuit& other) {
  if (other.num_qubits_ != num_qubits_) {
    throw std::invalid_argument("Circuit::append: qubit count mismatch");
  }
  ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
  return *this;
}

Circuit Circuit::inverse() const {
  Circuit inv(num_qubits_);
  inv.ops_.reserve(ops_.size());
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    inv.ops_.push_back(
        Op{gates::dagger(it->g), it->controls, it->target, it->open_controls});
  }
  return inv;
}

Circuit Circuit::controlled_on(unsigned control) const {
  if (control >= num_qubits_) {
    throw std::invalid_argument("controlled_on: control out of range");
  }
  Circuit out(num_qubits_);
  out.ops_.reserve(ops_.size());
  for (const Op& op : ops_) {
    if (op.target == control ||
        std::find(op.controls.begin(), op.controls.end(), control) !=
            op.controls.end()) {
      throw std::invalid_argument("controlled_on: control overlaps circuit qubits");
    }
    Op c = op;
    c.controls.push_back(control);
    out.ops_.push_back(std::move(c));
  }
  return out;
}

Circuit Circuit::embedded(unsigned new_width, unsigned offset) const {
  if (offset + num_qubits_ > new_width) {
    throw std::invalid_argument("embedded: circuit does not fit");
  }
  Circuit out(new_width);
  out.ops_.reserve(ops_.size());
  for (const Op& op : ops_) {
    Op shifted = op;
    shifted.target += offset;
    for (unsigned& c : shifted.controls) c += offset;
    shifted.open_controls <<= offset;
    out.ops_.push_back(std::move(shifted));
  }
  return out;
}

std::size_t Circuit::apply_to(Statevector& state) const {
  if (state.num_qubits() != num_qubits_) {
    throw std::invalid_argument("Circuit::apply_to: qubit count mismatch");
  }
  std::size_t calls = 0;
  for (std::size_t i = 0; i < ops_.size(); ++calls) {
    const Op& op = ops_[i++];
    if (!op.controls.empty()) {
      state.apply_controlled(op.g, op.controls, op.target, op.open_controls);
      continue;
    }
    TargetedGate run[Statevector::kMaxRunGates] = {{op.g, op.target}};
    std::size_t n = 1;
    // The next op joins a run of real gates when it is uncontrolled and
    // real and its target is not in the run yet.
    const auto joins = [&](const Op& next) {
      return next.controls.empty() && gates::is_real(next.g) &&
             std::none_of(run, run + n, [&](const TargetedGate& t) {
               return t.target == next.target;
             });
    };
    if (gates::is_real(op.g)) {
      while (n < Statevector::kMaxRunGates && i < ops_.size() && joins(ops_[i])) {
        run[n++] = {ops_[i].g, ops_[i].target};
        ++i;
      }
    }
    state.apply_run({run, n});
  }
  return calls;
}

Statevector Circuit::simulate() const {
  Statevector state(num_qubits_);
  apply_to(state);
  return state;
}

}  // namespace qcongest::quantum
