#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/query/deutsch_jozsa.hpp"
#include "src/query/gate_level.hpp"
#include "src/query/oracle.hpp"
#include "src/query/parallel_minfind.hpp"
#include "src/query/grover_math.hpp"
#include "src/quantum/statevector.hpp"

namespace qcongest::query {
namespace {

using quantum::BasisState;
using quantum::Circuit;

/// The reference the one-op flips must match bit for bit, the X-conjugated
/// phase flip: X on every qubit where s has a 0 bit, a Z on the top qubit
/// controlled on every lower qubit being |1>, then the same X layer.
Circuit x_conjugated_flip(unsigned width, const std::vector<BasisState>& marked) {
  Circuit c(width);
  for (BasisState s : marked) {
    for (unsigned q = 0; q < width; ++q) {
      if (((s >> q) & 1) == 0) c.x(q);
    }
    if (width == 1) {
      c.z(0);
    } else {
      std::vector<unsigned> controls;
      for (unsigned q = 0; q + 1 < width; ++q) controls.push_back(q);
      c.controlled(quantum::gates::pauli_z(), controls, width - 1);
    }
    for (unsigned q = 0; q < width; ++q) {
      if (((s >> q) & 1) == 0) c.x(q);
    }
  }
  return c;
}

/// The Grover iterate built from x_conjugated_flip, with the global -1 as
/// X Z X Z.
Circuit x_conjugated_grover_iterate(unsigned width,
                                    const std::vector<BasisState>& marked) {
  Circuit prep(width);
  for (unsigned q = 0; q < width; ++q) prep.h(q);
  Circuit c(width);
  c.append(x_conjugated_flip(width, marked));
  c.append(prep.inverse());
  c.append(x_conjugated_flip(width, {0}));
  c.append(prep);
  c.x(0).z(0).x(0).z(0);
  return c;
}

/// Probabilities after `circuit` runs on a seeded dense state and an H layer
/// turns the phases it wrote into probabilities.
std::vector<double> probabilities_after(const Circuit& circuit, std::uint64_t seed) {
  const unsigned width = circuit.num_qubits();
  util::Rng rng(seed);
  Circuit prep(width);
  for (unsigned q = 0; q < width; ++q) prep.ry(q, 0.2 + 2.5 * rng.uniform());
  for (unsigned q = 0; q + 1 < width; ++q) prep.cnot(q, q + 1);
  quantum::Statevector state = prep.simulate();
  circuit.apply_to(state);
  state.h_all();
  std::vector<double> probabilities(state.dimension());
  for (BasisState b = 0; b < state.dimension(); ++b) {
    probabilities[b] = state.probability(b);
  }
  return probabilities;
}

void expect_same_probability_bytes(const Circuit& got, const Circuit& want,
                                   std::uint64_t seed, const std::string& label) {
  const std::vector<double> a = probabilities_after(got, seed);
  const std::vector<double> b = probabilities_after(want, seed);
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0) << label;
}

/// S_f and the Grover iterate against the X-conjugated reference: directly,
/// inverted, and embedded under one more control (amplitude estimation's
/// controlled powers).
void expect_matches_x_conjugated(unsigned width, const std::vector<BasisState>& marked,
                                 std::uint64_t seed) {
  const std::string where = "width " + std::to_string(width) + " first marked " +
                            std::to_string(marked.front());
  const std::pair<Circuit, Circuit> pairs[] = {
      {phase_flip_circuit(width, marked), x_conjugated_flip(width, marked)},
      {grover_iterate_circuit(width, marked), x_conjugated_grover_iterate(width, marked)},
  };
  for (const auto& [got, want] : pairs) {
    expect_same_probability_bytes(got, want, seed, where);
    expect_same_probability_bytes(got.inverse(), want.inverse(), seed,
                                  where + " inverse");
    expect_same_probability_bytes(got.embedded(width + 1, 0).controlled_on(width),
                                  want.embedded(width + 1, 0).controlled_on(width),
                                  seed, where + " controlled");
  }
}

TEST(PhaseFlip, BitIdenticalToXConjugatedReference) {
  for (unsigned width = 1; width <= 8; ++width) {
    for (BasisState s = 0; s < (BasisState{1} << width); ++s) {
      expect_matches_x_conjugated(width, {s}, 100 * width + s);
    }
  }
  util::Rng rng(12);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const BasisState first = rng.index(4096);
    std::vector<BasisState> marked{first};
    if (seed % 2 == 1) marked.push_back((first + 1 + rng.index(4095)) % 4096);
    expect_matches_x_conjugated(12, marked, seed);
  }
}

TEST(PhaseFlip, OneOpPerMarkedState) {
  for (unsigned width : {1u, 4u, 16u}) {
    for (const std::vector<BasisState>& marked :
         {std::vector<BasisState>{0}, std::vector<BasisState>{0, 1}}) {
      EXPECT_EQ(phase_flip_circuit(width, marked).size(), marked.size());
      EXPECT_EQ(grover_iterate_circuit(width, marked).size(),
                2 * width + marked.size() + 2);
    }
  }
}

TEST(PhaseFlip, IterateMakesGroupedKernelCalls) {
  // The iterate's two H layers run as ceil(w/3) runs of up to three gates
  // each, and the closing -I on qubit 0 joins the last run of A's layer
  // when that run has room (3 does not divide w) and does not hold qubit 0
  // already, which is every w >= 4: |M| + 1 + 2 ceil(w/3) calls, plus one
  // when 3 divides w. Below that the count is |M| + 4: at w = 3 the runs
  // are full, at w = 2 A's run holds qubit 0, and at w = 1 every op is an
  // uncontrolled gate on qubit 0, so none group.
  auto grouped = [](unsigned w, std::size_t m) -> std::size_t {
    if (w <= 3) return m + 4;
    return m + 1 + 2 * ((w + 2) / 3) + (w % 3 == 0 ? 1 : 0);
  };
  for (unsigned width : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 14u, 16u}) {
    for (const std::vector<BasisState>& marked :
         {std::vector<BasisState>{0}, std::vector<BasisState>{0, 1},
          std::vector<BasisState>{1, 2, 3}}) {
      if (marked.back() >= (BasisState{1} << width)) continue;
      quantum::Statevector sv(width);
      EXPECT_EQ(grover_iterate_circuit(width, marked).apply_to(sv),
                grouped(width, marked.size()))
          << "w " << width << " |M| " << marked.size();
    }
  }
  // The pinned sizes: 2w + |M| + 2 ops in 15 calls at w = 16 and 13 at
  // w = 14 with two marked states.
  quantum::Statevector sixteen(16);
  EXPECT_EQ(grover_iterate_circuit(16, {5, 65530}).apply_to(sixteen), 15u);
  quantum::Statevector fourteen(14);
  EXPECT_EQ(grover_iterate_circuit(14, {5, 16378}).apply_to(fourteen), 13u);
}

TEST(PhaseFlip, RejectsDuplicateAndOutOfRangeStates) {
  EXPECT_THROW(phase_flip_circuit(3, {2, 5, 2}), std::invalid_argument);
  EXPECT_THROW(phase_flip_circuit(3, {8}), std::invalid_argument);
  // A repeated state would cancel its own flip while still counting in the
  // iteration count; the search refuses it instead.
  util::Rng rng(26);
  EXPECT_THROW(gate_level_grover_search(4, {3, 3}, rng), std::invalid_argument);
}

TEST(PhaseFlip, FlipsExactlyMarkedStates) {
  quantum::Statevector sv(3);
  sv.h_all();
  phase_flip_circuit(3, {2, 5}).apply_to(sv);
  for (BasisState b = 0; b < 8; ++b) {
    double expected = (b == 2 || b == 5) ? -1.0 : 1.0;
    EXPECT_NEAR(sv.amplitude(b).real(), expected / std::sqrt(8.0), 1e-10) << b;
  }
}

TEST(GateLevelGrover, FindsMarkedState) {
  util::Rng rng(21);
  int hits = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    BasisState found = gate_level_grover_search(5, {19}, rng);
    if (found == 19) ++hits;
  }
  // 5 qubits, 1 marked: optimal iterations give success ~ 0.999.
  EXPECT_GE(hits, 22);
}

TEST(GateLevelGrover, MatchesAnalytic2DModel) {
  // Amplitude of the marked subspace after j iterations must equal
  // sin((2j+1) theta) from grover_math — cross-validation of the scaled
  // simulation against the gate-level truth.
  const unsigned width = 4;
  const std::vector<BasisState> marked{3, 9, 12};
  const double dim = 16.0;
  double theta = grover_angle(static_cast<double>(marked.size()) / dim);

  quantum::Statevector sv(width);
  sv.h_all();
  Circuit q = grover_iterate_circuit(width, marked);
  for (std::uint64_t j = 0; j <= 3; ++j) {
    double p_marked = 0.0;
    for (BasisState m : marked) p_marked += sv.probability(m);
    EXPECT_NEAR(p_marked, grover_success_probability(j, theta), 1e-9) << "j=" << j;
    q.apply_to(sv);
  }
}

TEST(AmplificationIterate, GeneralPrepFollowsRotationLaw) {
  // Lemma 27's iterate with a *biased* preparation A (not H^{otimes n}):
  // the marked amplitude must still rotate by exactly 2 theta per iterate,
  // theta = asin(sqrt(<marked|A|0>^2)).
  const unsigned width = 3;
  Circuit prep(width);
  prep.ry(0, 0.9).ry(1, 2.1).ry(2, 0.4).cnot(0, 1);
  const std::vector<BasisState> marked{1, 6};

  quantum::Statevector state = prep.simulate();
  double a0 = 0.0;
  for (BasisState m : marked) a0 += state.probability(m);
  double theta = grover_angle(a0);

  Circuit iterate = amplification_iterate_circuit(prep, marked);
  for (std::uint64_t j = 1; j <= 4; ++j) {
    iterate.apply_to(state);
    double p = 0.0;
    for (BasisState m : marked) p += state.probability(m);
    EXPECT_NEAR(p, grover_success_probability(j, theta), 1e-9) << "j=" << j;
  }
}

TEST(GateLevelPhaseEstimation, RecoversExactPhase) {
  util::Rng rng(22);
  // U = phase(2 pi * 5/16) on one qubit, eigenstate |1>.
  Circuit u(1);
  u.phase(0, 2.0 * M_PI * 5.0 / 16.0);
  Circuit prep(1);
  prep.x(0);
  // 4 precision bits represent 5/16 exactly -> deterministic outcome.
  for (int t = 0; t < 5; ++t) {
    EXPECT_NEAR(gate_level_phase_estimation(u, prep, 4, rng), 5.0 / 16.0, 1e-12);
  }
}

TEST(GateLevelPhaseEstimation, ApproximatesInexactPhase) {
  util::Rng rng(23);
  double phi = 0.2137;
  Circuit u(1);
  u.phase(0, 2.0 * M_PI * phi);
  Circuit prep(1);
  prep.x(0);
  int close = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    double est = gate_level_phase_estimation(u, prep, 6, rng);
    double err = std::min(std::abs(est - phi), 1.0 - std::abs(est - phi));
    if (err <= 1.0 / 64.0) ++close;
  }
  // QPE lands within one grid cell with probability >= 8/pi^2 ~ 0.81.
  EXPECT_GE(close, 2 * trials / 3);
}

TEST(GateLevelAmplitudeEstimation, EstimatesMarkedFraction) {
  util::Rng rng(24);
  // 4 qubits, 4 marked of 16: a = 0.25, theta = pi/6. With 5 precision
  // bits the estimate concentrates near 0.25.
  int close = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    double a = gate_level_amplitude_estimation(4, {1, 6, 11, 14}, 5, rng);
    if (std::abs(a - 0.25) < 0.08) ++close;
  }
  EXPECT_GE(close, 2 * trials / 3);
}

TEST(GateLevelDeutschJozsa, ExactOnAllSmallPromiseInputs) {
  // Exhaustively test every balanced and constant f on 3 qubits (k = 8).
  const unsigned width = 3;
  const std::uint64_t k = 8;
  // Constant inputs.
  EXPECT_TRUE(gate_level_deutsch_jozsa_is_constant(width,
                                                   [](std::uint64_t) { return false; }));
  EXPECT_TRUE(gate_level_deutsch_jozsa_is_constant(width,
                                                   [](std::uint64_t) { return true; }));
  // Every balanced input: subsets of size 4 out of 8.
  for (std::uint64_t mask = 0; mask < (1u << k); ++mask) {
    if (__builtin_popcountll(mask) != 4) continue;
    auto f = [mask](std::uint64_t i) { return ((mask >> i) & 1) != 0; };
    EXPECT_FALSE(gate_level_deutsch_jozsa_is_constant(width, f)) << mask;
  }
}

TEST(GateLevelDeutschJozsa, AgreesWithQuditImplementation) {
  // The scaled C^k implementation and the gate-level qubit implementation
  // must produce identical verdicts.
  util::Rng rng(26);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t k = 16;
    std::vector<Value> x(k, 0);
    bool balanced = trial % 2 == 0;
    if (balanced) {
      auto ones = rng.sample_without_replacement(k, k / 2);
      for (auto i : ones) x[i] = 1;
    } else if (rng.bernoulli(0.5)) {
      x.assign(k, 1);
    }
    InMemoryOracle oracle(x, 1);
    auto qudit_verdict = deutsch_jozsa(oracle);
    bool gate_constant = gate_level_deutsch_jozsa_is_constant(
        4, [&](std::uint64_t i) { return x[i] != 0; });
    EXPECT_EQ(qudit_verdict == DjVerdict::kConstant, gate_constant);
  }
}

TEST(GateLevelCounting, CountsMarkedItemsExactly) {
  util::Rng rng(30);
  // 4 qubits, 7 precision bits: the estimate resolves single items.
  for (std::size_t t : {0u, 1u, 4u, 8u, 16u}) {
    std::vector<BasisState> marked;
    for (BasisState b = 0; b < t; ++b) marked.push_back(b);
    int exact = 0;
    const int trials = 10;
    for (int trial = 0; trial < trials; ++trial) {
      if (gate_level_count_marked(4, marked, 7, rng) == t) ++exact;
    }
    EXPECT_GE(exact, 8) << "t=" << t;
  }
}

TEST(GateLevelMinfind, FindsMinimumWithPromisedProbability) {
  util::Rng rng(27);
  int successes = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::uint64_t> data(16);
    for (auto& v : data) v = 2 + rng.index(13);
    std::size_t min_at = rng.index(16);
    data[min_at] = 1;
    if (gate_level_minfind(data, 4, rng) == min_at) ++successes;
  }
  EXPECT_GE(successes, 2 * trials / 3);
}

TEST(GateLevelMinfind, AgreesWithScaledMinfindInDistribution) {
  // Success rates of the gate-level and the distribution-exact minfind
  // should be comparable on the same instances.
  util::Rng rng(28);
  int gate_hits = 0, scaled_hits = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::uint64_t> data(16);
    for (auto& v : data) v = 3 + rng.index(10);
    std::size_t min_at = rng.index(16);
    data[min_at] = 0;
    if (gate_level_minfind(data, 4, rng) == min_at) ++gate_hits;
    std::vector<Value> as_values(data.begin(), data.end());
    InMemoryOracle oracle(as_values, 1);
    if (minfind(oracle, rng) == min_at) ++scaled_hits;
  }
  EXPECT_GE(gate_hits, 2 * trials / 3);
  EXPECT_GE(scaled_hits, 2 * trials / 3);
}

TEST(GateLevelMinfind, Validation) {
  util::Rng rng(29);
  EXPECT_THROW(gate_level_minfind({1, 2, 3}, 2, rng), std::invalid_argument);
  EXPECT_THROW(gate_level_minfind({1, 5}, 2, rng), std::invalid_argument);  // 5 >= 4
  std::vector<std::uint64_t> single{3};
  EXPECT_EQ(gate_level_minfind(single, 2, rng), 0u);
}

TEST(Lemma7FanOut, CnotCopyDuplicatesBasisStatesCoherently) {
  // Lemma 7's local step: CNOT fan-out copies a *basis-state register*
  // (not an arbitrary state — no cloning) so each tree child receives
  // |i>. Verify on a superposition: sum_i a_i |i> -> sum_i a_i |i>|i>.
  quantum::Statevector state(4);
  state.h(0);
  state.apply(quantum::gates::rz(0.7), 0);
  state.h(1);
  // Fan out qubits {0,1} onto {2,3}.
  state.cnot(0, 2);
  state.cnot(1, 3);
  for (quantum::BasisState b = 0; b < 16; ++b) {
    quantum::BasisState low = b & 0b11, high = (b >> 2) & 0b11;
    if (low != high) {
      EXPECT_NEAR(state.probability(b), 0.0, 1e-12) << b;
    }
  }
  // Undoing the fan-out restores the original product state.
  state.cnot(1, 3);
  state.cnot(0, 2);
  quantum::Statevector expected(4);
  expected.h(0);
  expected.apply(quantum::gates::rz(0.7), 0);
  expected.h(1);
  EXPECT_NEAR(state.fidelity(expected), 1.0, 1e-12);
}

TEST(GateLevelAmplitudeEstimation, ZeroAndFullAmplitude) {
  util::Rng rng(25);
  EXPECT_NEAR(gate_level_amplitude_estimation(3, {}, 4, rng), 0.0, 1e-9);
  std::vector<BasisState> all;
  for (BasisState b = 0; b < 8; ++b) all.push_back(b);
  EXPECT_NEAR(gate_level_amplitude_estimation(3, all, 4, rng), 1.0, 1e-9);
}

}  // namespace
}  // namespace qcongest::query
