#include <gtest/gtest.h>

#include <cmath>

#include "src/quantum/circuit.hpp"
#include "src/quantum/gates.hpp"
#include "src/quantum/oracle.hpp"
#include "src/quantum/qft.hpp"
#include "src/quantum/qudit.hpp"
#include "src/quantum/statevector.hpp"

namespace qcongest::quantum {
namespace {

constexpr double kTol = 1e-10;

TEST(Gates, AllNamedGatesAreUnitary) {
  using namespace gates;
  for (const Gate1& g : {identity(), hadamard(), pauli_x(), pauli_y(), pauli_z(), s(),
                         s_dagger(), t(), t_dagger(), rx(0.3), ry(1.1), rz(-2.0),
                         phase(0.7)}) {
    EXPECT_TRUE(is_unitary(g));
  }
}

TEST(Gates, HadamardSelfInverse) {
  Statevector sv(1);
  sv.h(0);
  sv.h(0);
  EXPECT_NEAR(sv.probability(0), 1.0, kTol);
}

TEST(Statevector, InitialState) {
  Statevector sv(3);
  EXPECT_EQ(sv.dimension(), 8u);
  EXPECT_NEAR(sv.probability(0), 1.0, kTol);
  EXPECT_NEAR(sv.norm(), 1.0, kTol);
}

TEST(Statevector, BasisConstructor) {
  Statevector sv(3, 5);
  EXPECT_NEAR(sv.probability(5), 1.0, kTol);
  EXPECT_THROW(Statevector(2, 4), std::invalid_argument);
}

TEST(Statevector, RejectsBadQubitCounts) {
  EXPECT_THROW(Statevector(0), std::invalid_argument);
  EXPECT_THROW(Statevector(Statevector::kMaxQubits + 1), std::invalid_argument);
}

TEST(Statevector, HadamardCreatesUniform) {
  Statevector sv(4);
  sv.h_all();
  for (BasisState b = 0; b < 16; ++b) EXPECT_NEAR(sv.probability(b), 1.0 / 16, kTol);
}

TEST(Statevector, CnotEntangles) {
  Statevector sv(2);
  sv.h(0);
  sv.cnot(0, 1);
  EXPECT_NEAR(sv.probability(0b00), 0.5, kTol);
  EXPECT_NEAR(sv.probability(0b11), 0.5, kTol);
  EXPECT_NEAR(sv.probability(0b01), 0.0, kTol);
  EXPECT_NEAR(sv.probability(0b10), 0.0, kTol);
}

TEST(Statevector, ToffoliTruthTable) {
  for (BasisState in = 0; in < 8; ++in) {
    Statevector sv(3, in);
    sv.ccx(0, 1, 2);
    BasisState expected = in;
    if ((in & 0b11) == 0b11) expected ^= 0b100;
    EXPECT_NEAR(sv.probability(expected), 1.0, kTol) << "input " << in;
  }
}

TEST(Statevector, SwapQubits) {
  Statevector sv(2, 0b01);
  sv.swap_qubits(0, 1);
  EXPECT_NEAR(sv.probability(0b10), 1.0, kTol);
}

TEST(Statevector, MeasureQubitCollapses) {
  util::Rng rng(11);
  Statevector sv(2);
  sv.h(0);
  sv.cnot(0, 1);
  bool outcome = sv.measure_qubit(0, rng);
  // After measuring one half of a Bell pair, the other half matches.
  EXPECT_NEAR(sv.probability_of_one(1), outcome ? 1.0 : 0.0, kTol);
  EXPECT_NEAR(sv.norm(), 1.0, kTol);
}

TEST(Statevector, MeasureAllStatistics) {
  util::Rng rng(12);
  int ones = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    Statevector sv(1);
    sv.h(0);
    ones += static_cast<int>(sv.measure_all(rng));
  }
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.05);
}

TEST(Statevector, MarginalDistribution) {
  Statevector sv(3);
  sv.h(1);
  auto dist = sv.marginal(1, 1);
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_NEAR(dist[0], 0.5, kTol);
  EXPECT_NEAR(dist[1], 0.5, kTol);
}

TEST(Statevector, InnerProductAndFidelity) {
  Statevector a(2), b(2);
  a.h(0);
  EXPECT_NEAR(a.fidelity(b), 0.5, kTol);
  EXPECT_NEAR(a.fidelity(a), 1.0, kTol);
}

TEST(Statevector, PermutationRejectsNonBijection) {
  Statevector sv(2);
  sv.h_all();
  EXPECT_THROW(sv.apply_permutation([](BasisState) { return BasisState{0}; }),
               std::invalid_argument);
}

TEST(Statevector, PermutationRejectsCollisionOfZeroAmplitudes) {
  // From |00>, sources 1 and 2 both carry amplitude 0, so sending both to
  // 2 keeps the norm at 1: only a check of the images themselves sees it.
  Statevector sv(2);
  EXPECT_THROW(sv.apply_permutation([](BasisState b) {
                 return b == 1 ? BasisState{2} : b;
               }),
               std::invalid_argument);
  EXPECT_EQ(sv.amplitude(0), Amplitude(1, 0));  // the state is unchanged
  // The same check on a complex state, with the collision on the last image.
  sv.apply(gates::t(), 0);
  ASSERT_FALSE(sv.is_real());
  EXPECT_THROW(sv.apply_permutation([](BasisState b) {
                 return b == 3 ? BasisState{0} : b;
               }),
               std::invalid_argument);
  EXPECT_EQ(sv.probability(0), 1.0);
}

TEST(Circuit, InverseUndoesCircuit) {
  Circuit c(3);
  c.h(0).cnot(0, 1).rz(2, 0.7).ccx(0, 1, 2).ry(1, 1.3).cphase(2, 0, 0.9);
  Statevector sv = c.simulate();
  c.inverse().apply_to(sv);
  EXPECT_NEAR(sv.probability(0), 1.0, kTol);
}

TEST(Circuit, AppendComposes) {
  Circuit a(1), b(1);
  a.h(0);
  b.h(0);
  a.append(b);
  Statevector sv = a.simulate();
  EXPECT_NEAR(sv.probability(0), 1.0, kTol);
}

TEST(Circuit, RejectsOutOfRangeQubits) {
  Circuit c(2);
  EXPECT_THROW(c.h(2), std::invalid_argument);
  EXPECT_THROW(c.cnot(0, 2), std::invalid_argument);
  EXPECT_THROW(c.cnot(1, 1), std::invalid_argument);
}

TEST(Statevector, OpenControlsFireOnZero) {
  // X on qubit 2, controlled on qubit 0 = 1 and qubit 1 = 0 (open): only
  // basis states with bits (q1, q0) = (0, 1) flip their qubit 2.
  const unsigned controls[] = {0, 1};
  for (BasisState b = 0; b < 8; ++b) {
    Statevector sv(3, b);
    sv.apply_controlled(gates::pauli_x(), controls, 2, BasisState{1} << 1);
    const BasisState expected = (b & 0b011) == 0b001 ? b ^ 0b100 : b;
    EXPECT_NEAR(sv.probability(expected), 1.0, kTol) << "b=" << b;
  }
  Statevector sv(3);
  EXPECT_THROW(sv.apply_controlled(gates::pauli_x(), controls, 2, BasisState{1} << 2),
               std::invalid_argument);
}

TEST(Circuit, OpenControlsSurviveInverseEmbedAndControl) {
  // Z on qubit 1 controlled on qubit 0 = 0 negates exactly |10>; Ry on
  // qubit 0 controlled on qubit 1 = 0 rotates only the |0x> pair.
  Circuit c(2);
  EXPECT_THROW(c.controlled(gates::pauli_z(), {0}, 1, BasisState{1} << 1),
               std::invalid_argument);
  c.controlled(gates::pauli_z(), {0}, 1, BasisState{1} << 0);
  c.controlled(gates::ry(0.6), {1}, 0, BasisState{1} << 1);
  Circuit prep(2);
  prep.h(0).h(1);
  Statevector sv = prep.simulate();
  c.apply_to(sv);
  EXPECT_NEAR(sv.amplitude(0b10).real(), -0.5, kTol);
  EXPECT_NEAR(sv.amplitude(0b11).real(), 0.5, kTol);
  c.inverse().apply_to(sv);
  EXPECT_NEAR(sv.fidelity(prep.simulate()), 1.0, kTol);

  // Embedded at offset 1 with qubit 0 as an added control on |1>: the open
  // controls move with their qubits, the new control fires on |1> only.
  Circuit lifted = c.embedded(3, 1).controlled_on(0);
  for (BasisState b = 0; b < 8; ++b) {
    Statevector got(3, b);
    lifted.apply_to(got);
    Statevector want(3, b);
    if ((b & 1) != 0) c.embedded(3, 1).apply_to(want);
    for (BasisState k = 0; k < 8; ++k) {
      EXPECT_NEAR(std::abs(got.amplitude(k) - want.amplitude(k)), 0.0, kTol)
          << "b=" << b << " k=" << k;
    }
  }
  Statevector negated(3, 0b101);  // control on, c's input |10>
  lifted.apply_to(negated);
  EXPECT_NEAR(negated.amplitude(0b101).real(), -1.0, kTol);
}

TEST(Oracle, BitOracleMarksCorrectIndex) {
  // 2-qubit index register, 1 answer qubit. f(i) = (i == 2).
  Statevector sv(3);
  sv.h(0);
  sv.h(1);
  apply_bit_oracle(sv, 0, 2, 2, [](std::uint64_t i) { return i == 2; });
  // Only the branch |i=2>|1> should have the answer bit set.
  EXPECT_NEAR(sv.probability(0b110), 0.25, kTol);
  EXPECT_NEAR(sv.probability(0b010), 0.0, kTol);
  EXPECT_NEAR(sv.probability(0b000), 0.25, kTol);
}

TEST(Oracle, PhaseOracleFlipsSign) {
  Statevector sv(2);
  sv.h(0);
  sv.h(1);
  apply_phase_oracle(sv, 0, 2, [](std::uint64_t i) { return i == 3; });
  EXPECT_NEAR(sv.amplitude(3).real(), -0.5, kTol);
  EXPECT_NEAR(sv.amplitude(0).real(), 0.5, kTol);
}

TEST(Oracle, ValueOracleXorsValue) {
  // index: qubits [0,2), value: qubits [2,4). x_i = i + 1 mod 4.
  Statevector sv(4, 0b0001);  // |i=1>|y=0>
  apply_value_oracle(sv, 0, 2, 2, 2,
                     [](std::uint64_t i) { return (i + 1) % 4; });
  EXPECT_NEAR(sv.probability(0b1001), 1.0, kTol);  // y = 2
  // Applying twice uncomputes.
  apply_value_oracle(sv, 0, 2, 2, 2,
                     [](std::uint64_t i) { return (i + 1) % 4; });
  EXPECT_NEAR(sv.probability(0b0001), 1.0, kTol);
}

TEST(Qft, TransformsBasisStateToFourierState) {
  const unsigned w = 3;
  const std::uint64_t N = 1 << w;
  for (std::uint64_t j : {std::uint64_t{0}, std::uint64_t{3}, std::uint64_t{7}}) {
    Statevector sv(w, j);
    qft_circuit(w, 0, w).apply_to(sv);
    for (std::uint64_t k = 0; k < N; ++k) {
      Amplitude expected =
          std::polar(1.0 / std::sqrt(static_cast<double>(N)),
                     2.0 * M_PI * static_cast<double>(j * k) / static_cast<double>(N));
      EXPECT_NEAR(std::abs(sv.amplitude(k) - expected), 0.0, 1e-9)
          << "j=" << j << " k=" << k;
    }
  }
}

TEST(Qft, InverseRoundTrip) {
  Circuit c(4);
  c.h(0).cnot(0, 2).ry(3, 0.4);
  Statevector sv = c.simulate();
  Statevector original = sv;
  qft_circuit(4, 0, 4).apply_to(sv);
  inverse_qft_circuit(4, 0, 4).apply_to(sv);
  EXPECT_NEAR(sv.fidelity(original), 1.0, 1e-9);
}

TEST(Qudit, UniformStateProperties) {
  auto s = QuditState::uniform(10);
  EXPECT_NEAR(s.norm(), 1.0, kTol);
  EXPECT_NEAR(std::abs(s.overlap_with_uniform()), 1.0, kTol);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(s.probability(i), 0.1, kTol);
}

TEST(Qudit, PhaseOracleAndReflectionImplementGroverStep) {
  // One Grover iteration on k = 4 with a single marked element finds it
  // with certainty.
  auto s = QuditState::uniform(4);
  s.apply_phase_oracle([](std::size_t i) { return i == 2; });
  s.reflect_about_uniform();
  EXPECT_NEAR(s.probability(2), 1.0, kTol);
}

TEST(Qudit, DeutschJozsaOverlap) {
  // Balanced input: overlap with uniform is 0; constant input: 1.
  auto balanced = QuditState::uniform(8);
  balanced.apply_phase_oracle([](std::size_t i) { return i < 4; });
  EXPECT_NEAR(std::abs(balanced.overlap_with_uniform()), 0.0, kTol);

  auto constant = QuditState::uniform(8);
  constant.apply_phase_oracle([](std::size_t) { return true; });
  EXPECT_NEAR(std::abs(constant.overlap_with_uniform()), 1.0, kTol);
}

TEST(Qudit, SampleMatchesDistribution) {
  util::Rng rng(13);
  auto s = QuditState::uniform(4);
  s.apply_phase_oracle([](std::size_t i) { return i == 1; });
  s.reflect_about_uniform();
  int hits = 0;
  for (int t = 0; t < 500; ++t) {
    if (s.sample(rng) == 1) ++hits;
  }
  EXPECT_EQ(hits, 500);  // amplified to certainty for k = 4, t = 1
}

}  // namespace
}  // namespace qcongest::quantum
