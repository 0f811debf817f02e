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
  reals()[basis] = 1.0;
}

Amplitude Statevector::amplitude(BasisState basis) const {
  if (basis >= amplitudes_.size()) {
    throw std::out_of_range("Statevector::amplitude: basis out of range");
  }
  return real_ ? Amplitude{reals()[basis], 0.0} : amplitudes_[basis];
}

std::vector<Amplitude> Statevector::amplitudes() const {
  if (!real_) return amplitudes_;
  std::vector<Amplitude> out(amplitudes_.size());
  for (std::size_t b = 0; b < out.size(); ++b) out[b] = {reals()[b], 0.0};
  return out;
}

double Statevector::probability(BasisState basis) const {
  if (basis >= amplitudes_.size()) {
    throw std::out_of_range("Statevector::probability: basis out of range");
  }
  return probability_at(basis);
}

double Statevector::probability_of_one(unsigned qubit) const {
  check_qubit(qubit);
  BasisState mask = BasisState{1} << qubit;
  double p = 0.0;
  for (std::size_t b = 0; b < amplitudes_.size(); ++b) {
    if (b & mask) p += probability_at(b);
  }
  return p;
}

double Statevector::norm() const {
  double total = 0.0;
  for (std::size_t b = 0; b < amplitudes_.size(); ++b) total += probability_at(b);
  return std::sqrt(total);
}

Amplitude Statevector::inner_product(const Statevector& other) const {
  if (other.num_qubits_ != num_qubits_) {
    throw std::invalid_argument("inner_product: qubit count mismatch");
  }
  Amplitude sum{0, 0};
  for (std::size_t b = 0; b < amplitudes_.size(); ++b) {
    sum += std::conj(other.amplitude(b)) * amplitude(b);
  }
  return sum;
}

double Statevector::fidelity(const Statevector& other) const {
  return std::norm(inner_product(other));
}

namespace {

kernels::RealCoeffs real_coeffs(const Gate1& g) {
  return {g.m[0].real(), g.m[1].real(), g.m[2].real(), g.m[3].real()};
}

kernels::Gate1Coeffs complex_coeffs(const Gate1& g) {
  return {g.m[0], g.m[1], g.m[2], g.m[3]};
}

}  // namespace

Statevector::RealView Statevector::real_view() {
  if (real_) return {reals(), amplitudes_.size(), 0};
  return {reinterpret_cast<double*>(amplitudes_.data()),
          2 * amplitudes_.size(), 1};
}

void Statevector::widen() {
  if (!real_) return;
  // Slot b's two doubles sit at 2b and 2b + 1, at or above the packed x[b],
  // and above every x[b'] with b' < b that is still to be read.
  double* d = reals();
  for (std::size_t b = amplitudes_.size(); b-- > 0;) {
    const double x = d[b];
    d[2 * b] = x;
    d[2 * b + 1] = 0.0;
  }
  real_ = false;
}

void Statevector::apply(const Gate1& gate, unsigned target) {
  const TargetedGate one[] = {{gate, target}};
  apply_run(one);
}

void Statevector::apply_run(std::span<const TargetedGate> run) {
  if (run.size() > kMaxRunGates) {
    throw std::invalid_argument("apply_run: more than three gates");
  }
  for (auto it = run.begin(); it != run.end(); ++it) {
    check_qubit(it->target);
    for (auto prev = run.begin(); prev != it; ++prev) {
      if (prev->target == it->target) {
        throw std::invalid_argument("apply_run: repeated target");
      }
    }
  }
  // The strided pair walk lives in the kernel layer. Consecutive real gates
  // are one call of the runtime-dispatched real entry (AVX2 or scalar); a
  // complex gate ends them and runs the one complex loop, which is the
  // oracle the real entries are tested against.
  std::size_t i = 0;
  while (i < run.size()) {
    if (!gates::is_real(run[i].g)) {
      widen();
      kernels::apply_pairs(amplitudes_.data(), amplitudes_.size(),
                           std::size_t{1} << run[i].target,
                           complex_coeffs(run[i].g));
      ++i;
      continue;
    }
    const RealView v = real_view();
    kernels::RealStep steps[kMaxRunGates] = {};
    std::size_t n = 0;
    for (; i < run.size() && gates::is_real(run[i].g); ++i) {
      steps[n++] = {(std::size_t{1} << run[i].target) << v.shift,
                    real_coeffs(run[i].g)};
    }
    kernels::active_ops().real_run(v.x, v.len, {steps, n});
  }
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
  const std::size_t stride = std::size_t{1} << target;
  const BasisState control_value = control_mask & ~open_controls;
  if (gates::is_real(gate)) {
    const RealView v = real_view();
    kernels::active_ops().real_pairs_controlled(
        v.x, v.len, stride << v.shift, real_coeffs(gate),
        control_mask << v.shift, control_value << v.shift);
    return;
  }
  widen();
  kernels::apply_pairs_controlled(amplitudes_.data(), amplitudes_.size(),
                                  stride, complex_coeffs(gate), control_mask,
                                  control_value);
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

void Statevector::h_all(unsigned first, unsigned count) {
  if (first > num_qubits_ || count > num_qubits_ - first) {
    throw std::invalid_argument("h_all: register out of range");
  }
  const Gate1 hadamard = gates::hadamard();
  const unsigned end = first + count;
  for (unsigned q = first; q < end; q += kMaxRunGates) {
    TargetedGate run[kMaxRunGates] = {};
    std::size_t n = 0;
    for (unsigned t = q; t < end && n < kMaxRunGates; ++t) run[n++] = {hadamard, t};
    apply_run({run, n});
  }
}

BasisState Statevector::measure_all(util::Rng& rng) {
  BasisState outcome = sample(rng);
  amplitudes_.assign(amplitudes_.size(), Amplitude{0, 0});
  if (real_) {
    reals()[outcome] = 1.0;
  } else {
    amplitudes_[outcome] = Amplitude{1, 0};
  }
  return outcome;
}

bool Statevector::measure_qubit(unsigned qubit, util::Rng& rng) {
  double p1 = probability_of_one(qubit);
  bool outcome = rng.bernoulli(p1);
  BasisState mask = BasisState{1} << qubit;
  double keep_prob = outcome ? p1 : 1.0 - p1;
  double scale = keep_prob > 0 ? 1.0 / std::sqrt(keep_prob) : 0.0;
  for (std::size_t b = 0; b < amplitudes_.size(); ++b) {
    const bool keep = ((b & mask) != 0) == outcome;
    if (real_) {
      reals()[b] = keep ? reals()[b] * scale : 0.0;
    } else {
      amplitudes_[b] = keep ? amplitudes_[b] * scale : Amplitude{0, 0};
    }
  }
  return outcome;
}

BasisState Statevector::sample(util::Rng& rng) const {
  double r = rng.uniform();
  double cumulative = 0.0;
  for (std::size_t b = 0; b < amplitudes_.size(); ++b) {
    cumulative += probability_at(b);
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
    dist[(b & reg_mask) >> first] += probability_at(b);
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
