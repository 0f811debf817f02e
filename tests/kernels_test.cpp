// Scalar-vs-SIMD statevector kernel equivalence.
//
// The scalar backend is the oracle (the historical Statevector::apply
// loops, bit-for-bit). Every other backend the build carries and the CPU
// supports is swept against it over qubit counts 1-12, every gate shape
// (generic, diagonal, antidiagonal, rotation), every target position
// (which exercises the unaligned stride-1 lane path and every strided
// width), control sets above, below, and straddling the target, and
// control values that fire on |1>, on |0>, and on a mix of both.
//
// Vector backends mirror the oracle's per-operation rounding (multiply
// then add/sub, never FMA), so agreement is expected at machine precision;
// the tolerance below only allows for association differences in the
// structural fast paths (multiplying by an exact zero versus skipping it).
//
// The two-gate entry (apply_pairs2) is diffed twice: against the scalar
// oracle within that tolerance, and byte for byte against the same
// backend's two one-gate calls, which is what lets Circuit::apply_to and
// Statevector::h_all pair gates without changing a single output byte.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/quantum/circuit.hpp"
#include "src/quantum/gates.hpp"
#include "src/quantum/kernels.hpp"
#include "src/quantum/statevector.hpp"
#include "src/util/rng.hpp"

namespace qcongest::quantum {
namespace {

constexpr double kTol = 1e-13;

std::vector<Amplitude> random_state(unsigned qubits, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Amplitude> amps(std::size_t{1} << qubits);
  double norm2 = 0.0;
  for (auto& a : amps) {
    a = Amplitude{rng.uniform() - 0.5, rng.uniform() - 0.5};
    norm2 += std::norm(a);
  }
  const double scale = 1.0 / std::sqrt(norm2);
  for (auto& a : amps) a *= scale;
  return amps;
}

kernels::Gate1Coeffs coeffs(const Gate1& g) {
  return {g(0, 0), g(0, 1), g(1, 0), g(1, 1)};
}

std::vector<std::pair<const char*, Gate1>> gate_zoo() {
  return {
      {"identity", gates::identity()},
      {"hadamard", gates::hadamard()},
      {"pauli_x", gates::pauli_x()},   // antidiagonal, real
      {"pauli_y", gates::pauli_y()},   // antidiagonal, imaginary
      {"pauli_z", gates::pauli_z()},   // diagonal, real
      {"s", gates::s()},               // diagonal, imaginary
      {"t", gates::t()},               // diagonal, complex
      {"rx", gates::rx(0.37)},         // generic complex
      {"ry", gates::ry(1.11)},         // generic real
      {"rz", gates::rz(2.5)},          // diagonal complex
      {"phase", gates::phase(0.73)},
  };
}

/// Non-scalar backends available in this build on this CPU.
std::vector<std::pair<const char*, const kernels::KernelOps*>> vector_backends() {
  std::vector<std::pair<const char*, const kernels::KernelOps*>> out;
  if (const auto* ops = kernels::avx2_ops_or_null()) out.push_back({"avx2", ops});
  if (const auto* ops = kernels::neon_ops_or_null()) out.push_back({"neon", ops});
  return out;
}

void expect_close(const std::vector<Amplitude>& got,
                  const std::vector<Amplitude>& want, const char* label) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i].real(), want[i].real(), kTol)
        << label << " amplitude " << i;
    ASSERT_NEAR(got[i].imag(), want[i].imag(), kTol)
        << label << " amplitude " << i;
  }
}

TEST(KernelEquivalence, EveryGateEveryTargetQubits1To12) {
  const auto backends = vector_backends();
  if (backends.empty()) GTEST_SKIP() << "no vector backend on this machine";
  for (unsigned qubits = 1; qubits <= 12; ++qubits) {
    const auto base = random_state(qubits, 1000 + qubits);
    for (const auto& [gname, gate] : gate_zoo()) {
      const auto g = coeffs(gate);
      for (unsigned target = 0; target < qubits; ++target) {
        auto oracle = base;
        kernels::scalar_ops().apply_pairs(oracle.data(), oracle.size(),
                                          std::size_t{1} << target, g);
        for (const auto& [bname, ops] : backends) {
          auto vec = base;
          ops->apply_pairs(vec.data(), vec.size(), std::size_t{1} << target, g);
          SCOPED_TRACE(std::string(bname) + " " + gname + " q" +
                       std::to_string(qubits) + " t" + std::to_string(target));
          expect_close(vec, oracle, bname);
        }
      }
    }
  }
}

TEST(KernelEquivalence, ControlledEveryMaskShape) {
  const auto backends = vector_backends();
  if (backends.empty()) GTEST_SKIP() << "no vector backend on this machine";
  for (unsigned qubits = 2; qubits <= 12; ++qubits) {
    const auto base = random_state(qubits, 2000 + qubits);
    for (const auto& [gname, gate] : gate_zoo()) {
      const auto g = coeffs(gate);
      for (unsigned target = 0; target < qubits; ++target) {
        // Control sets: single above, single below, straddling pair, and
        // the densest legal mask (every other qubit) — covers the
        // vectorized whole-run path, the in-run scalar path, and both.
        std::vector<std::vector<unsigned>> control_sets;
        if (target + 1 < qubits) control_sets.push_back({target + 1});
        if (target >= 1) control_sets.push_back({target - 1});
        if (target >= 1 && target + 1 < qubits) {
          control_sets.push_back({target - 1, target + 1});
        }
        std::vector<unsigned> all;
        for (unsigned q = 0; q < qubits; ++q) {
          if (q != target) all.push_back(q);
        }
        control_sets.push_back(all);
        for (const auto& controls : control_sets) {
          BasisState mask = 0;
          BasisState alternating = 0;  // every other control fires on |1>
          for (std::size_t i = 0; i < controls.size(); ++i) {
            mask |= BasisState{1} << controls[i];
            if (i % 2 == 0) alternating |= BasisState{1} << controls[i];
          }
          // Control values: all on |1>, alternating, all on |0> — the
          // whole-run and in-run paths each see matches at both ends.
          for (const BasisState value : {mask, alternating, BasisState{0}}) {
            auto oracle = base;
            kernels::scalar_ops().apply_pairs_controlled(
                oracle.data(), oracle.size(), std::size_t{1} << target, g,
                mask, value);
            for (const auto& [bname, ops] : backends) {
              auto vec = base;
              ops->apply_pairs_controlled(vec.data(), vec.size(),
                                          std::size_t{1} << target, g, mask,
                                          value);
              SCOPED_TRACE(std::string(bname) + " c" + gname + " q" +
                           std::to_string(qubits) + " t" +
                           std::to_string(target) + " mask" +
                           std::to_string(mask) + " value" +
                           std::to_string(value));
              expect_close(vec, oracle, bname);
            }
          }
        }
      }
    }
  }
}

bool same_bytes(std::span<const Amplitude> a, std::span<const Amplitude> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Amplitude)) == 0;
}

std::string pair_label(const char* backend, const char* ga, const char* gb,
                       unsigned qubits, unsigned ta, unsigned tb) {
  return std::string(backend) + " " + ga + "@" + std::to_string(ta) + " then " +
         gb + "@" + std::to_string(tb) + " on " + std::to_string(qubits) +
         " qubits";
}

TEST(KernelEquivalence, TwoGateEntryEveryGatePairEveryTargetPair) {
  const auto backends = vector_backends();
  if (backends.empty()) GTEST_SKIP() << "no vector backend on this machine";
  const auto zoo = gate_zoo();
  for (unsigned qubits = 2; qubits <= 10; ++qubits) {
    const auto base = random_state(qubits, 3000 + qubits);
    for (unsigned ta = 0; ta < qubits; ++ta) {
      for (unsigned tb = 0; tb < qubits; ++tb) {
        if (ta == tb) continue;
        const std::size_t sa = std::size_t{1} << ta;
        const std::size_t sb = std::size_t{1} << tb;
        for (const auto& [na, gate_a] : zoo) {
          for (const auto& [nb, gate_b] : zoo) {
            const auto ga = coeffs(gate_a);
            const auto gb = coeffs(gate_b);
            auto oracle = base;
            kernels::scalar_ops().apply_pairs(oracle.data(), oracle.size(), sa, ga);
            kernels::scalar_ops().apply_pairs(oracle.data(), oracle.size(), sb, gb);
            for (const auto& [bname, ops] : backends) {
              auto vec = base;
              ops->apply_pairs2(vec.data(), vec.size(), sa, ga, sb, gb);
              SCOPED_TRACE(pair_label(bname, na, nb, qubits, ta, tb));
              expect_close(vec, oracle, bname);
            }
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, TwoGateEntryIsItsTwoOneGateCallsByteForByte) {
  auto backends = vector_backends();
  backends.insert(backends.begin(), {"scalar", &kernels::scalar_ops()});
  const auto zoo = gate_zoo();
  for (unsigned qubits = 2; qubits <= 10; ++qubits) {
    const auto base = random_state(qubits, 4000 + qubits);
    for (unsigned ta = 0; ta < qubits; ++ta) {
      for (unsigned tb = 0; tb < qubits; ++tb) {
        if (ta == tb) continue;
        const std::size_t sa = std::size_t{1} << ta;
        const std::size_t sb = std::size_t{1} << tb;
        for (const auto& [na, gate_a] : zoo) {
          for (const auto& [nb, gate_b] : zoo) {
            const auto ga = coeffs(gate_a);
            const auto gb = coeffs(gate_b);
            for (const auto& [bname, ops] : backends) {
              auto two_calls = base;
              ops->apply_pairs(two_calls.data(), two_calls.size(), sa, ga);
              ops->apply_pairs(two_calls.data(), two_calls.size(), sb, gb);
              auto paired = base;
              ops->apply_pairs2(paired.data(), paired.size(), sa, ga, sb, gb);
              ASSERT_TRUE(same_bytes(paired, two_calls))
                  << pair_label(bname, na, nb, qubits, ta, tb);
            }
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, StatevectorLevelCircuitMatchesScalarKernels) {
  // A full circuit through the public Statevector API (whatever backend is
  // active) against the same circuit replayed through the scalar oracle.
  const unsigned qubits = 9;
  Statevector sv(qubits);
  auto mirror = random_state(qubits, 0);  // overwritten below
  {
    // |0...0> start for the mirror too.
    std::fill(mirror.begin(), mirror.end(), Amplitude{0, 0});
    mirror[0] = Amplitude{1, 0};
  }
  auto scalar_apply = [&](const Gate1& gate, unsigned target) {
    kernels::scalar_ops().apply_pairs(mirror.data(), mirror.size(),
                                      std::size_t{1} << target, coeffs(gate));
  };
  auto scalar_ctrl = [&](const Gate1& gate, std::vector<unsigned> cs,
                         unsigned target) {
    BasisState mask = 0;
    for (unsigned c : cs) mask |= BasisState{1} << c;
    kernels::scalar_ops().apply_pairs_controlled(mirror.data(), mirror.size(),
                                                 std::size_t{1} << target,
                                                 coeffs(gate), mask, mask);
  };
  for (unsigned q = 0; q < qubits; ++q) {
    sv.h(q);
    scalar_apply(gates::hadamard(), q);
  }
  for (unsigned q = 0; q + 1 < qubits; ++q) {
    sv.cnot(q, q + 1);
    scalar_ctrl(gates::pauli_x(), {q}, q + 1);
    sv.apply(gates::t(), q);
    scalar_apply(gates::t(), q);
  }
  sv.ccx(0, 4, 8);
  scalar_ctrl(gates::pauli_x(), {0, 4}, 8);
  sv.cz(8, 1);
  scalar_ctrl(gates::pauli_z(), {8}, 1);
  sv.apply(gates::ry(0.9), 3);
  scalar_apply(gates::ry(0.9), 3);

  const auto amps = sv.amplitudes();
  for (std::size_t i = 0; i < mirror.size(); ++i) {
    ASSERT_NEAR(amps[i].real(), mirror[i].real(), kTol) << "amplitude " << i;
    ASSERT_NEAR(amps[i].imag(), mirror[i].imag(), kTol) << "amplitude " << i;
  }
  EXPECT_NEAR(sv.norm(), 1.0, 1e-9);
}

TEST(StatevectorPair, HAllMatchesOneHadamardPerQubit) {
  for (unsigned qubits = 1; qubits <= 11; ++qubits) {
    Statevector all(qubits, (BasisState{1} << qubits) / 3);
    Statevector each = all;
    // A generic state first, so every amplitude and sign is in play.
    for (unsigned q = 0; q < qubits; ++q) {
      all.apply(gates::ry(0.3 + q), q);
      each.apply(gates::ry(0.3 + q), q);
      all.apply(gates::t(), q);
      each.apply(gates::t(), q);
    }
    all.h_all();
    for (unsigned q = 0; q < qubits; ++q) each.h(q);
    EXPECT_TRUE(same_bytes(all.amplitudes(), each.amplitudes())) << qubits;
  }
}

TEST(StatevectorPair, RejectsEqualAndOutOfRangeTargets) {
  Statevector sv(3);
  const Gate1 h = gates::hadamard();
  EXPECT_THROW(sv.apply_pair(h, 1, gates::pauli_x(), 1), std::invalid_argument);
  EXPECT_THROW(sv.apply_pair(h, 3, h, 0), std::invalid_argument);
  EXPECT_THROW(sv.apply_pair(h, 0, h, 3), std::invalid_argument);
  // Nothing was applied: the state is still |000>.
  EXPECT_EQ(sv.amplitude(0), Amplitude(1, 0));
}

/// One op of a random circuit, kept on the test side so it can be replayed
/// through Statevector::apply / apply_controlled one call at a time.
struct TestOp {
  Gate1 g;
  std::vector<unsigned> controls;
  unsigned target;
  BasisState open_controls;
};

/// Kernel calls Circuit::apply_to is specified to make: ops i and i + 1
/// share one call when both are uncontrolled on different targets.
std::size_t expected_calls(const std::vector<TestOp>& ops) {
  std::size_t calls = 0;
  for (std::size_t i = 0; i < ops.size(); ++calls) {
    const bool pairs = ops[i].controls.empty() && i + 1 < ops.size() &&
                       ops[i + 1].controls.empty() &&
                       ops[i + 1].target != ops[i].target;
    i += pairs ? 2 : 1;
  }
  return calls;
}

TEST(CircuitPairing, ApplyToMatchesOneOpAtATimeByteForByte) {
  // Real gates (H, X, Z, RY, -I, diag(-1, 1)) take the AVX2 two-gate
  // sweep; complex ones fall back to two passes; controlled ops break runs.
  auto zoo = gate_zoo();
  zoo.push_back({"minus_identity", Gate1{{Amplitude{-1, 0}, {0, 0}, {0, 0}, {-1, 0}}}});
  zoo.push_back({"flip_zero", Gate1{{Amplitude{-1, 0}, {0, 0}, {0, 0}, {1, 0}}}});
  util::Rng rng(15);
  std::size_t paired_total = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto qubits = static_cast<unsigned>(1 + rng.index(9));
    std::vector<TestOp> ops;
    Circuit circuit(qubits);
    const std::size_t length = 1 + rng.index(40);
    for (std::size_t k = 0; k < length; ++k) {
      const Gate1 g = zoo[rng.index(zoo.size())].second;
      // One op in four repeats the previous target, so same-target
      // neighbours (which must not pair) are common.
      unsigned target = static_cast<unsigned>(rng.index(qubits));
      if (!ops.empty() && rng.index(4) == 0) target = ops.back().target;
      TestOp op{g, {}, target, 0};
      if (qubits > 1 && rng.index(4) == 0) {
        const unsigned control = (target + 1 + static_cast<unsigned>(rng.index(qubits - 1))) % qubits;
        op.controls.push_back(control);
        if (rng.index(2) == 0) op.open_controls = BasisState{1} << control;
        circuit.controlled(g, op.controls, target, op.open_controls);
      } else {
        circuit.gate(g, target);
      }
      ops.push_back(op);
    }
    Statevector paired(qubits, rng.index(std::size_t{1} << qubits));
    Statevector one_at_a_time = paired;
    const std::size_t calls = circuit.apply_to(paired);
    for (const TestOp& op : ops) {
      if (op.controls.empty()) {
        one_at_a_time.apply(op.g, op.target);
      } else {
        one_at_a_time.apply_controlled(op.g, op.controls, op.target,
                                       op.open_controls);
      }
    }
    ASSERT_TRUE(same_bytes(paired.amplitudes(), one_at_a_time.amplitudes()))
        << "trial " << trial;
    EXPECT_EQ(calls, expected_calls(ops)) << "trial " << trial;
    paired_total += ops.size() - calls;
  }
  EXPECT_GT(paired_total, 0u);  // the sweep really ran
}

TEST(CircuitPairing, CountsOneCallPerPairControlledOpAndLoneGate) {
  Circuit c(3);
  c.h(0).h(1).h(2);           // (H0, H1) pair; H2 alone before a controlled op
  c.cnot(0, 2);               // controlled: one call
  c.x(1).x(1).z(2);           // X1 alone (same target next), then (X1, Z2)
  Statevector sv(3);
  EXPECT_EQ(c.apply_to(sv), 5u);
}

TEST(KernelDispatch, ActiveBackendIsCoherent) {
  const auto backend = kernels::active_backend();
  // The active ops table must be the one the named backend provides.
  switch (backend) {
    case kernels::Backend::kScalar:
      EXPECT_EQ(&kernels::active_ops(), &kernels::scalar_ops());
      break;
    case kernels::Backend::kAvx2:
      EXPECT_EQ(&kernels::active_ops(), kernels::avx2_ops_or_null());
      break;
    case kernels::Backend::kNeon:
      EXPECT_EQ(&kernels::active_ops(), kernels::neon_ops_or_null());
      break;
  }
  EXPECT_STRNE(kernels::backend_name(backend), "unknown");
}

TEST(KernelDispatch, NormPreservedOnLargeStateThroughActiveBackend) {
  Statevector sv(12);
  util::Rng rng(7);
  sv.h_all();
  for (int i = 0; i < 50; ++i) {
    const unsigned t = static_cast<unsigned>(rng.index(12));
    unsigned c = static_cast<unsigned>(rng.index(12));
    if (c == t) c = (c + 1) % 12;
    sv.apply(gates::rx(0.1 * static_cast<double>(i)), t);
    sv.cnot(c, t);
  }
  EXPECT_NEAR(sv.norm(), 1.0, 1e-9);
}

}  // namespace
}  // namespace qcongest::quantum
