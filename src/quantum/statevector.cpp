#include "src/quantum/statevector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/quantum/kernels.hpp"

namespace qcongest::quantum {

Statevector::Statevector(unsigned num_qubits) : Statevector(num_qubits, 0) {}

Statevector::Statevector(unsigned num_qubits, BasisState basis)
    : num_qubits_(num_qubits) {
  if (num_qubits == 0 || num_qubits > kMaxQubits) {
    throw std::invalid_argument("Statevector: qubit count out of range");
  }
  std::size_t dim = std::size_t{1} << num_qubits;
  if (basis >= dim) throw std::invalid_argument("Statevector: basis out of range");
  amplitudes_.assign(dim, Amplitude{0, 0});
  amplitudes_[basis] = Amplitude{1, 0};
}

double Statevector::probability(BasisState basis) const {
  return std::norm(amplitudes_.at(basis));
}

double Statevector::probability_of_one(unsigned qubit) const {
  check_qubit(qubit);
  BasisState mask = BasisState{1} << qubit;
  double p = 0.0;
  for (std::size_t b = 0; b < amplitudes_.size(); ++b) {
    if (b & mask) p += std::norm(amplitudes_[b]);
  }
  return p;
}

double Statevector::norm() const {
  double total = 0.0;
  for (const Amplitude& a : amplitudes_) total += std::norm(a);
  return std::sqrt(total);
}

Amplitude Statevector::inner_product(const Statevector& other) const {
  if (other.num_qubits_ != num_qubits_) {
    throw std::invalid_argument("inner_product: qubit count mismatch");
  }
  Amplitude sum{0, 0};
  for (std::size_t b = 0; b < amplitudes_.size(); ++b) {
    sum += std::conj(other.amplitudes_[b]) * amplitudes_[b];
  }
  return sum;
}

double Statevector::fidelity(const Statevector& other) const {
  return std::norm(inner_product(other));
}

void Statevector::apply(const Gate1& gate, unsigned target) {
  check_qubit(target);
  // The strided pair walk lives in the kernel layer (runtime-dispatched
  // AVX2 / NEON / scalar); the scalar backend is the historical loop and
  // the oracle the vector backends are tested against.
  const kernels::Gate1Coeffs g{gate(0, 0), gate(0, 1), gate(1, 0), gate(1, 1)};
  kernels::active_ops().apply_pairs(amplitudes_.data(), amplitudes_.size(),
                                    std::size_t{1} << target, g);
}

void Statevector::apply_pair(const Gate1& a, unsigned target_a, const Gate1& b,
                             unsigned target_b) {
  check_qubit(target_a);
  check_qubit(target_b);
  if (target_a == target_b) {
    throw std::invalid_argument("apply_pair: targets are equal");
  }
  const kernels::Gate1Coeffs ga{a(0, 0), a(0, 1), a(1, 0), a(1, 1)};
  const kernels::Gate1Coeffs gb{b(0, 0), b(0, 1), b(1, 0), b(1, 1)};
  kernels::active_ops().apply_pairs2(amplitudes_.data(), amplitudes_.size(),
                                     std::size_t{1} << target_a, ga,
                                     std::size_t{1} << target_b, gb);
}

void Statevector::apply_controlled(const Gate1& gate,
                                   std::span<const unsigned> controls,
                                   unsigned target,
                                   BasisState open_controls) {
  check_qubit(target);
  BasisState control_mask = 0;
  for (unsigned c : controls) {
    check_qubit(c);
    if (c == target) throw std::invalid_argument("control equals target");
    control_mask |= BasisState{1} << c;
  }
  if ((open_controls & ~control_mask) != 0) {
    throw std::invalid_argument("open control is not a control");
  }
  const kernels::Gate1Coeffs g{gate(0, 0), gate(0, 1), gate(1, 0), gate(1, 1)};
  kernels::active_ops().apply_pairs_controlled(
      amplitudes_.data(), amplitudes_.size(), std::size_t{1} << target, g,
      control_mask, control_mask & ~open_controls);
}

void Statevector::cnot(unsigned control, unsigned target) {
  const unsigned controls[] = {control};
  apply_controlled(gates::pauli_x(), controls, target);
}

void Statevector::cz(unsigned control, unsigned target) {
  const unsigned controls[] = {control};
  apply_controlled(gates::pauli_z(), controls, target);
}

void Statevector::ccx(unsigned c1, unsigned c2, unsigned target) {
  const unsigned controls[] = {c1, c2};
  apply_controlled(gates::pauli_x(), controls, target);
}

void Statevector::swap_qubits(unsigned a, unsigned b) {
  if (a == b) return;
  cnot(a, b);
  cnot(b, a);
  cnot(a, b);
}

void Statevector::h_all() {
  const Gate1 hadamard = gates::hadamard();
  unsigned q = 0;
  for (; q + 1 < num_qubits_; q += 2) apply_pair(hadamard, q, hadamard, q + 1);
  if (q < num_qubits_) apply(hadamard, q);
}

BasisState Statevector::measure_all(util::Rng& rng) {
  BasisState outcome = sample(rng);
  amplitudes_.assign(amplitudes_.size(), Amplitude{0, 0});
  amplitudes_[outcome] = Amplitude{1, 0};
  return outcome;
}

bool Statevector::measure_qubit(unsigned qubit, util::Rng& rng) {
  double p1 = probability_of_one(qubit);
  bool outcome = rng.bernoulli(p1);
  BasisState mask = BasisState{1} << qubit;
  double keep_prob = outcome ? p1 : 1.0 - p1;
  double scale = keep_prob > 0 ? 1.0 / std::sqrt(keep_prob) : 0.0;
  for (std::size_t b = 0; b < amplitudes_.size(); ++b) {
    bool bit = (b & mask) != 0;
    amplitudes_[b] = (bit == outcome) ? amplitudes_[b] * scale : Amplitude{0, 0};
  }
  return outcome;
}

BasisState Statevector::sample(util::Rng& rng) const {
  double r = rng.uniform();
  double cumulative = 0.0;
  for (std::size_t b = 0; b < amplitudes_.size(); ++b) {
    cumulative += std::norm(amplitudes_[b]);
    if (r < cumulative) return b;
  }
  return amplitudes_.size() - 1;  // guard against rounding at the tail
}

std::vector<double> Statevector::marginal(unsigned first, unsigned count) const {
  if (first + count > num_qubits_) {
    throw std::invalid_argument("marginal: register out of range");
  }
  std::vector<double> dist(std::size_t{1} << count, 0.0);
  BasisState reg_mask = ((BasisState{1} << count) - 1) << first;
  for (std::size_t b = 0; b < amplitudes_.size(); ++b) {
    dist[(b & reg_mask) >> first] += std::norm(amplitudes_[b]);
  }
  return dist;
}

void Statevector::check_qubit(unsigned q) const {
  if (q >= num_qubits_) throw std::invalid_argument("qubit index out of range");
}

CumulativeSampler::CumulativeSampler(std::span<const double> probabilities) {
  if (probabilities.empty()) {
    throw std::invalid_argument("CumulativeSampler: empty distribution");
  }
  cumulative_.reserve(probabilities.size());
  double running = 0.0;
  for (double p : probabilities) {
    if (p < 0.0) throw std::invalid_argument("CumulativeSampler: negative weight");
    running += p;
    cumulative_.push_back(running);
  }
}

BasisState CumulativeSampler::sample(util::Rng& rng) const {
  double r = rng.uniform();
  // First index with cumulative > r — the binary-search twin of the linear
  // scan in Statevector::sample, including its tail guard, so both return
  // identical draws for the same rng stream.
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), r);
  if (it == cumulative_.end()) return cumulative_.size() - 1;
  return static_cast<BasisState>(it - cumulative_.begin());
}

}  // namespace qcongest::quantum
