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

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

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
