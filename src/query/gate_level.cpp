#include "src/query/gate_level.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/quantum/arithmetic.hpp"
#include "src/quantum/oracle.hpp"
#include "src/quantum/qft.hpp"
#include "src/quantum/statevector.hpp"
#include "src/util/combinatorics.hpp"

namespace qcongest::query {

using quantum::BasisState;
using quantum::Circuit;

namespace {

/// diag(-1, 1) = X Z X: negates |0>, as Z negates |1>.
const quantum::Gate1 kFlipZero{{quantum::Amplitude{-1, 0}, {0, 0}, {0, 0}, {1, 0}}};
/// -I: the iterate's global -1 as one gate.
const quantum::Gate1 kMinusIdentity{{quantum::Amplitude{-1, 0}, {0, 0}, {0, 0}, {-1, 0}}};

/// Phase-flip of the single basis state `s` on qubits [0, width) as one op:
/// Z (s's top bit is 1) or diag(-1, 1) (it is 0) on the top qubit,
/// controlled on qubits [0, width - 1) with a control firing on |0> wherever
/// s has a 0 bit. At width 1 there are no controls: the op is the gate alone.
void append_flip_of_state(Circuit& c, unsigned width, BasisState s) {
  const unsigned top = width - 1;
  const quantum::Gate1 flip =
      ((s >> top) & 1) != 0 ? quantum::gates::pauli_z() : kFlipZero;
  std::vector<unsigned> controls;
  for (unsigned q = 0; q < top; ++q) controls.push_back(q);
  const BasisState low_bits = (BasisState{1} << top) - 1;
  c.controlled(flip, std::move(controls), top, ~s & low_bits);
}

}  // namespace

Circuit phase_flip_circuit(unsigned width, const std::vector<BasisState>& marked) {
  Circuit c(width);
  for (auto it = marked.begin(); it != marked.end(); ++it) {
    if (*it >= (BasisState{1} << width)) {
      throw std::invalid_argument("phase_flip_circuit: state out of range");
    }
    // A second flip of the same state would undo the first.
    if (std::find(marked.begin(), it, *it) != it) {
      throw std::invalid_argument("phase_flip_circuit: duplicate marked state");
    }
    append_flip_of_state(c, width, *it);
  }
  return c;
}

Circuit amplification_iterate_circuit(const Circuit& prep,
                                      const std::vector<BasisState>& marked) {
  const unsigned width = prep.num_qubits();
  Circuit c(width);
  // S_f
  c.append(phase_flip_circuit(width, marked));
  // A^{-1}
  c.append(prep.inverse());
  // S_0: phase-flip |0...0>
  append_flip_of_state(c, width, 0);
  // A
  c.append(prep);
  // Global -1, so controlled-Q is exact.
  c.gate(kMinusIdentity, 0);
  return c;
}

Circuit grover_iterate_circuit(unsigned width, const std::vector<BasisState>& marked) {
  Circuit prep(width);
  for (unsigned q = 0; q < width; ++q) prep.h(q);
  return amplification_iterate_circuit(prep, marked);
}

BasisState gate_level_grover_search(unsigned width,
                                    const std::vector<BasisState>& marked,
                                    util::Rng& rng) {
  if (marked.empty()) {
    throw std::invalid_argument("gate_level_grover_search: no marked states");
  }
  const double dim = static_cast<double>(BasisState{1} << width);
  const double theta = std::asin(std::sqrt(static_cast<double>(marked.size()) / dim));
  const auto iterations =
      static_cast<std::size_t>(std::floor(M_PI / (4.0 * theta)));

  quantum::Statevector state(width);
  state.h_all();
  Circuit q = grover_iterate_circuit(width, marked);
  for (std::size_t i = 0; i < iterations; ++i) q.apply_to(state);
  return state.measure_all(rng);
}

double gate_level_phase_estimation(const Circuit& u, const Circuit& prep,
                                   unsigned precision, util::Rng& rng) {
  const unsigned m = u.num_qubits();
  if (prep.num_qubits() != m) {
    throw std::invalid_argument("phase estimation: prep/u width mismatch");
  }
  const unsigned total = m + precision;
  quantum::Statevector state(total);
  prep.embedded(total, 0).apply_to(state);
  state.h_all(m, precision);

  // Controlled powers: qubit m + j controls U^{2^j}.
  Circuit u_embedded = u.embedded(total, 0);
  for (unsigned j = 0; j < precision; ++j) {
    Circuit controlled = u_embedded.controlled_on(m + j);
    const std::uint64_t reps = std::uint64_t{1} << j;
    for (std::uint64_t r = 0; r < reps; ++r) controlled.apply_to(state);
  }

  quantum::inverse_qft_circuit(total, m, precision).apply_to(state);

  // Measure the precision register only (via its marginal distribution).
  std::vector<double> dist = state.marginal(m, precision);
  std::size_t outcome = quantum::CumulativeSampler(dist).sample(rng);
  return static_cast<double>(outcome) / static_cast<double>(dist.size());
}

double gate_level_amplitude_estimation(unsigned width,
                                       const std::vector<BasisState>& marked,
                                       unsigned precision, util::Rng& rng) {
  Circuit prep(width);
  for (unsigned q = 0; q < width; ++q) prep.h(q);
  Circuit q_iterate = grover_iterate_circuit(width, marked);
  double phase = gate_level_phase_estimation(q_iterate, prep, precision, rng);
  // Eigenphases of Q are +-2 theta_a with a = sin^2(theta_a); the measured
  // y/2^t estimates theta_a / pi (or 1 - theta_a / pi).
  double s = std::sin(M_PI * phase);
  return s * s;
}

bool gate_level_deutsch_jozsa_is_constant(
    unsigned width, const std::function<bool(std::uint64_t)>& f) {
  // |0^n>|1>, Hadamard everything, query the bit oracle (phase kickback
  // through the |-> ancilla), Hadamard the index register; the input is
  // constant iff the index register returns to |0^n> (probability exactly
  // 1 or 0 under the promise).
  quantum::Statevector state(width + 1);
  state.x(width);
  state.h_all();
  quantum::apply_bit_oracle(state, 0, width, width, f);
  state.h_all(0, width);

  double p_zero = 0.0;
  for (quantum::BasisState b : {quantum::BasisState{0},
                                quantum::BasisState{1} << width}) {
    p_zero += state.probability(b);
  }
  return p_zero > 0.5;
}

std::size_t gate_level_count_marked(unsigned width,
                                    const std::vector<quantum::BasisState>& marked,
                                    unsigned precision, util::Rng& rng) {
  double a = gate_level_amplitude_estimation(width, marked, precision, rng);
  double dim = static_cast<double>(quantum::BasisState{1} << width);
  return static_cast<std::size_t>(std::lround(a * dim));
}

std::size_t gate_level_minfind(const std::vector<std::uint64_t>& data,
                               unsigned value_width, util::Rng& rng) {
  const std::size_t n = data.size();
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("gate_level_minfind: size must be a power of two");
  }
  const auto idx_w = static_cast<unsigned>(util::ceil_log2(n));
  if (idx_w == 0) return 0;
  for (std::uint64_t v : data) {
    if (v >= (std::uint64_t{1} << value_width)) {
      throw std::invalid_argument("gate_level_minfind: value out of range");
    }
  }
  // Layout: index [0, idx_w), value, work, ancilla, flag.
  const unsigned val_off = idx_w;
  const unsigned work_off = idx_w + value_width;
  const unsigned anc = idx_w + 2 * value_width;
  const unsigned flag = anc + 1;
  const unsigned total = flag + 1;
  if (total > quantum::Statevector::kMaxQubits) {
    throw std::invalid_argument("gate_level_minfind: too many qubits");
  }

  auto apply_threshold_phase = [&](quantum::Statevector& state,
                                   std::uint64_t threshold) {
    quantum::apply_value_oracle(state, 0, idx_w, val_off, value_width,
                                [&](std::uint64_t i) { return data[i]; });
    quantum::Circuit cmp = quantum::less_than_constant_circuit(
        total, val_off, work_off, anc, flag, value_width, threshold);
    cmp.apply_to(state);
    state.z(flag);
    cmp.inverse().apply_to(state);
    quantum::apply_value_oracle(state, 0, idx_w, val_off, value_width,
                                [&](std::uint64_t i) { return data[i]; });
  };
  auto apply_diffusion = [&](quantum::Statevector& state) {
    state.h_all(0, idx_w);
    quantum::apply_phase_oracle(state, 0, idx_w,
                                [](std::uint64_t i) { return i == 0; });
    state.h_all(0, idx_w);
  };

  // Durr-Hoyer descent with a BBHT inner loop, all at gate level.
  std::size_t best_index = rng.index(n);
  std::uint64_t best = data[best_index];
  auto budget = static_cast<std::size_t>(
      24.0 * std::sqrt(static_cast<double>(n)) + 24.0);
  double m = 1.0;
  const double lambda = 6.0 / 5.0;
  while (budget > 0) {
    std::size_t j = rng.index(static_cast<std::size_t>(m) + 1);
    j = std::min(j, budget);
    quantum::Statevector state(total);
    state.h_all(0, idx_w);
    for (std::size_t it = 0; it < j; ++it) {
      apply_threshold_phase(state, best);
      apply_diffusion(state);
    }
    budget -= j;
    if (budget == 0) break;
    --budget;  // the verification query
    std::uint64_t measured = state.measure_all(rng) & ((std::uint64_t{1} << idx_w) - 1);
    if (data[measured] < best) {
      best = data[measured];
      best_index = measured;
      m = 1.0;
    } else {
      m = std::min(lambda * m, std::sqrt(static_cast<double>(n)));
    }
  }
  return best_index;
}

}  // namespace qcongest::query
