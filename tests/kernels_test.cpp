// Statevector kernel equivalence.
//
// Complex gates run one loop on every CPU (kernels::apply_pairs and
// apply_pairs_controlled, the historical Statevector::apply loops). A
// dense-matrix reference, built from each gate's definition without going
// through kernels::, pins them: every complex gate at 1-8 qubits on every
// target, plain and controlled from above, below, both sides and all the
// other qubits, with control values that fire on |1>, alternately and on
// |0>, and the inverse QFT of amplitude estimation.
//
// The real entries (real_run, real_pairs_controlled) run every real gate on
// packed reals and on complex states read as doubles (the shifted view
// Statevector uses), for the scalar backend and the AVX2 one where the CPU
// has it, over qubit counts 1-12, every target, and control sets above,
// below and straddling the target. They leave out only +-0 products, so
// they must equal the complex loops in value, with at most the sign of a
// zero differing. Runs of three gates are also diffed byte for byte against
// the same backend's one-gate calls in order, which is what lets
// Circuit::apply_to and Statevector::h_all group gates without changing a
// single output byte.

#include <gtest/gtest.h>

#include <algorithm>
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
#include "src/quantum/qft.hpp"
#include "src/quantum/statevector.hpp"
#include "src/query/gate_level.hpp"
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

/// Every backend's real entries: the scalar oracle, then AVX2 when this
/// build and this CPU have it.
std::vector<std::pair<const char*, const kernels::KernelOps*>> all_backends() {
  std::vector<std::pair<const char*, const kernels::KernelOps*>> out{
      {"scalar", &kernels::scalar_ops()}};
  if (const auto* ops = kernels::avx2_ops_or_null()) out.push_back({"avx2", ops});
  return out;
}

/// The gates of gate_zoo() whose coefficients are all real (`real`), or
/// the ones with a complex coefficient.
std::vector<std::pair<const char*, Gate1>> zoo_part(bool real) {
  std::vector<std::pair<const char*, Gate1>> out;
  for (const auto& entry : gate_zoo()) {
    bool all_real = true;
    for (const Amplitude& c : entry.second.m) all_real = all_real && c.imag() == 0.0;
    if (all_real == real) out.push_back(entry);
  }
  return out;
}

std::vector<std::pair<const char*, Gate1>> real_zoo() { return zoo_part(true); }

kernels::RealCoeffs real_coeffs(const Gate1& g) {
  return {g(0, 0).real(), g(0, 1).real(), g(1, 0).real(), g(1, 1).real()};
}

/// A state with real amplitudes, as packed reals and as complex numbers.
struct RealState {
  std::vector<double> packed;
  std::vector<Amplitude> complex;
};

RealState random_real_state(unsigned qubits, std::uint64_t seed) {
  RealState out;
  for (const Amplitude& a : random_state(qubits, seed)) {
    out.packed.push_back(a.real());
    out.complex.push_back({out.packed.back(), 0.0});
  }
  return out;
}

/// A complex buffer read as the double array of the shifted view.
double* as_doubles(std::vector<Amplitude>& amps) {
  return reinterpret_cast<double*>(amps.data());
}

/// Equal as values part by part (so -0 == +0): what a real entry owes the
/// complex oracle.
void expect_equal_values(const std::vector<Amplitude>& got,
                         const std::vector<Amplitude>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].real(), want[i].real()) << "amplitude " << i;
    ASSERT_EQ(got[i].imag(), want[i].imag()) << "amplitude " << i;
  }
}

void expect_equal_values(const std::vector<double>& got,
                         const std::vector<Amplitude>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i].real()) << "amplitude " << i;
    ASSERT_EQ(want[i].imag(), 0.0) << "amplitude " << i;
  }
}

/// The fast check behind expect_equal_values, for the suites that compare
/// hundreds of thousands of runs: true when every part is equal as a value.
bool equal_values(const std::vector<Amplitude>& got,
                  const std::vector<Amplitude>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].real() != want[i].real() || got[i].imag() != want[i].imag()) {
      return false;
    }
  }
  return true;
}

bool equal_values(const std::vector<double>& got,
                  const std::vector<Amplitude>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i].real() || want[i].imag() != 0.0) return false;
  }
  return true;
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

bool same_bytes(std::span<const Amplitude> a, std::span<const Amplitude> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Amplitude)) == 0;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The real zoo plus the iterate's -I and diag(-1, 1), a synthetic
/// H-shaped gate (g10 = g00, g11 = -g01) and a near miss one ulp off it in
/// g11, which must take the general butterfly.
std::vector<std::pair<const char*, Gate1>> run_zoo() {
  auto zoo = real_zoo();
  zoo.push_back({"minus_identity", Gate1{{Amplitude{-1, 0}, {0, 0}, {0, 0}, {-1, 0}}}});
  zoo.push_back({"flip_zero", Gate1{{Amplitude{-1, 0}, {0, 0}, {0, 0}, {1, 0}}}});
  zoo.push_back({"h_shaped", Gate1{{Amplitude{0.6, 0}, {0.8, 0}, {0.6, 0}, {-0.8, 0}}}});
  zoo.push_back({"near_miss", Gate1{{Amplitude{0.6, 0},
                                     {0.8, 0},
                                     {0.6, 0},
                                     {std::nextafter(-0.8, -1.0), 0}}}});
  return zoo;
}

/// Calls f(targets) for every ordered triple of distinct targets at
/// `qubits` qubits.
template <typename F>
void for_each_target_triple(unsigned qubits, const F& f) {
  for (unsigned t0 = 0; t0 < qubits; ++t0) {
    for (unsigned t1 = 0; t1 < qubits; ++t1) {
      for (unsigned t2 = 0; t2 < qubits; ++t2) {
        if (t0 == t1 || t0 == t2 || t1 == t2) continue;
        const unsigned targets[] = {t0, t1, t2};
        f(targets);
      }
    }
  }
}

std::string run_label(const char* backend, unsigned qubits,
                      const unsigned* targets, const char* const* names) {
  std::string out = std::string(backend) + " on " + std::to_string(qubits) +
                    " qubits:";
  for (int k = 0; k < 3; ++k) {
    out += std::string(" ") + names[k] + "@" + std::to_string(targets[k]);
  }
  return out;
}

TEST(KernelEquivalence, RealEntryEveryRealGateEveryTargetQubits1To12) {
  for (unsigned qubits = 1; qubits <= 12; ++qubits) {
    const auto base = random_state(qubits, 5000 + qubits);
    const auto real_base = random_real_state(qubits, 6000 + qubits);
    for (const auto& [gname, gate] : real_zoo()) {
      for (unsigned target = 0; target < qubits; ++target) {
        const std::size_t stride = std::size_t{1} << target;
        auto oracle = base;
        kernels::apply_pairs(oracle.data(), oracle.size(), stride, coeffs(gate));
        auto real_oracle = real_base.complex;
        kernels::apply_pairs(real_oracle.data(), real_oracle.size(), stride,
                             coeffs(gate));
        for (const auto& [bname, ops] : all_backends()) {
          SCOPED_TRACE(std::string(bname) + " " + gname + " q" +
                       std::to_string(qubits) + " t" + std::to_string(target));
          const kernels::RealStep viewed{stride << 1, real_coeffs(gate)};
          auto view = base;
          ops->real_run(as_doubles(view), 2 * view.size(), {&viewed, 1});
          expect_equal_values(view, oracle);
          const kernels::RealStep step{stride, real_coeffs(gate)};
          auto packed = real_base.packed;
          ops->real_run(packed.data(), packed.size(), {&step, 1});
          expect_equal_values(packed, real_oracle);
        }
      }
    }
  }
}

TEST(KernelEquivalence, RealControlledEveryMaskShape) {
  for (unsigned qubits = 2; qubits <= 12; ++qubits) {
    const auto base = random_state(qubits, 7000 + qubits);
    const auto real_base = random_real_state(qubits, 8000 + qubits);
    for (const auto& [gname, gate] : real_zoo()) {
      for (unsigned target = 0; target < qubits; ++target) {
        const std::size_t stride = std::size_t{1} << target;
        // Control masks: one qubit above, one below, the straddling pair,
        // and every other qubit.
        std::vector<BasisState> masks;
        if (target + 1 < qubits) masks.push_back(BasisState{1} << (target + 1));
        if (target >= 1) masks.push_back(BasisState{1} << (target - 1));
        if (target >= 1 && target + 1 < qubits) {
          masks.push_back(masks[0] | masks[1]);
        }
        masks.push_back(((BasisState{1} << qubits) - 1) & ~BasisState{stride});
        for (const BasisState mask : masks) {
          // Fire on |1>, on |0>, and on the lowest control alone.
          for (const BasisState value : {mask, BasisState{0}, mask & (~mask + 1)}) {
            auto oracle = base;
            kernels::apply_pairs_controlled(
                oracle.data(), oracle.size(), stride, coeffs(gate), mask, value);
            auto real_oracle = real_base.complex;
            kernels::apply_pairs_controlled(
                real_oracle.data(), real_oracle.size(), stride, coeffs(gate),
                mask, value);
            for (const auto& [bname, ops] : all_backends()) {
              SCOPED_TRACE(std::string(bname) + " c" + gname + " q" +
                           std::to_string(qubits) + " t" +
                           std::to_string(target) + " mask" +
                           std::to_string(mask) + " value" +
                           std::to_string(value));
              auto view = base;
              ops->real_pairs_controlled(as_doubles(view), 2 * view.size(),
                                         stride << 1, real_coeffs(gate),
                                         mask << 1, value << 1);
              expect_equal_values(view, oracle);
              auto packed = real_base.packed;
              ops->real_pairs_controlled(packed.data(), packed.size(), stride,
                                         real_coeffs(gate), mask, value);
              expect_equal_values(packed, real_oracle);
            }
          }
        }
      }
    }
  }
}

/// The real run entry against the complex scalar oracle's three calls at
/// `qubits` qubits: every gate triple of run_zoo() on every ordered target
/// triple, packed and viewed. The oracle after the first one and two gates
/// is shared by every run that starts with them.
void check_run_entry_against_oracle(unsigned qubits) {
  const auto base = random_state(qubits, 3000 + qubits);
  const auto real_base = random_real_state(qubits, 3100 + qubits);
  const auto zoo = run_zoo();
  for_each_target_triple(qubits, [&](const unsigned* targets) {
    // oracle[k] / real_oracle[k]: the view's and the packed state's values
    // after the run's first k gates.
    std::vector<Amplitude> oracle[4] = {base};
    std::vector<Amplitude> real_oracle[4] = {real_base.complex};
    std::vector<Amplitude> view;
    std::vector<double> packed;
    std::size_t pick[3];
    auto extend = [&](int k) {
      const auto g = coeffs(zoo[pick[k]].second);
      const std::size_t stride = std::size_t{1} << targets[k];
      oracle[k + 1] = oracle[k];
      kernels::apply_pairs(oracle[k + 1].data(), oracle[k + 1].size(), stride, g);
      real_oracle[k + 1] = real_oracle[k];
      kernels::apply_pairs(real_oracle[k + 1].data(), real_oracle[k + 1].size(),
                           stride, g);
    };
    for (pick[0] = 0; pick[0] < zoo.size(); ++pick[0]) {
      extend(0);
      for (pick[1] = 0; pick[1] < zoo.size(); ++pick[1]) {
        extend(1);
        for (pick[2] = 0; pick[2] < zoo.size(); ++pick[2]) {
          extend(2);
          kernels::RealStep viewed[3];
          kernels::RealStep steps[3];
          const char* names[3];
          for (int k = 0; k < 3; ++k) {
            const auto r = real_coeffs(zoo[pick[k]].second);
            viewed[k] = {std::size_t{2} << targets[k], r};
            steps[k] = {std::size_t{1} << targets[k], r};
            names[k] = zoo[pick[k]].first;
          }
          for (const auto& [bname, ops] : all_backends()) {
            view = base;
            ops->real_run(as_doubles(view), 2 * view.size(), {viewed, 3});
            packed = real_base.packed;
            ops->real_run(packed.data(), packed.size(), {steps, 3});
            if (!equal_values(view, oracle[3]) ||
                !equal_values(packed, real_oracle[3])) {
              SCOPED_TRACE(run_label(bname, qubits, targets, names));
              expect_equal_values(view, oracle[3]);
              expect_equal_values(packed, real_oracle[3]);
              FAIL();
            }
          }
        }
      }
    }
  });
}

/// Each backend's run against its own one-gate calls in order at `qubits`
/// qubits, on the view and on packed reals; the calls for the first one
/// and two gates are shared by every run that starts with them.
void check_run_entry_against_one_gate_calls(unsigned qubits) {
  const auto base = random_state(qubits, 4000 + qubits);
  const auto real_base = random_real_state(qubits, 4100 + qubits);
  const auto zoo = run_zoo();
  for (const auto& [bname, ops] : all_backends()) {
    for_each_target_triple(qubits, [&](const unsigned* targets) {
      // calls[k] / packed_calls[k]: after the first k one-gate calls.
      std::vector<Amplitude> calls[4] = {base};
      std::vector<double> packed_calls[4] = {real_base.packed};
      std::vector<Amplitude> run;
      std::vector<double> packed;
      kernels::RealStep viewed[3];
      kernels::RealStep steps[3];
      std::size_t pick[3];
      auto extend = [&](int k) {
        const auto r = real_coeffs(zoo[pick[k]].second);
        viewed[k] = {std::size_t{2} << targets[k], r};
        steps[k] = {std::size_t{1} << targets[k], r};
        calls[k + 1] = calls[k];
        ops->real_run(as_doubles(calls[k + 1]), 2 * calls[k + 1].size(),
                      {&viewed[k], 1});
        packed_calls[k + 1] = packed_calls[k];
        ops->real_run(packed_calls[k + 1].data(), packed_calls[k + 1].size(),
                      {&steps[k], 1});
      };
      for (pick[0] = 0; pick[0] < zoo.size(); ++pick[0]) {
        extend(0);
        for (pick[1] = 0; pick[1] < zoo.size(); ++pick[1]) {
          extend(1);
          for (pick[2] = 0; pick[2] < zoo.size(); ++pick[2]) {
            extend(2);
            run = base;
            ops->real_run(as_doubles(run), 2 * run.size(), {viewed, 3});
            packed = real_base.packed;
            ops->real_run(packed.data(), packed.size(), {steps, 3});
            if (!same_bytes(run, calls[3]) || !same_bytes(packed, packed_calls[3])) {
              const char* names[3];
              for (int k = 0; k < 3; ++k) names[k] = zoo[pick[k]].first;
              FAIL() << run_label(bname, qubits, targets, names)
                     << (same_bytes(run, calls[3]) ? ": packed" : ": view");
            }
          }
        }
      }
    });
  }
}

// The run-entry suites at 3-8 qubits, one test case per qubit count: the
// cost grows with qubits^3 * 2^qubits, so one case per count lets the slow
// lanes spread them over cores. 8 qubits, the largest count, runs under the
// plain KernelEquivalence names; 3-7 qubits are the RunEntryByQubits
// instances. Each count's random states are seeded by the count alone.
TEST(KernelEquivalence, RunEntryEveryGateTripleEveryTargetTriple) {
  check_run_entry_against_oracle(8);
}

TEST(KernelEquivalence, RunEntryIsItsOneGateCallsByteForByte) {
  check_run_entry_against_one_gate_calls(8);
}

class RunEntryByQubits : public ::testing::TestWithParam<unsigned> {};

TEST_P(RunEntryByQubits, EveryGateTripleEveryTargetTriple) {
  check_run_entry_against_oracle(GetParam());
}

TEST_P(RunEntryByQubits, IsItsOneGateCallsByteForByte) {
  check_run_entry_against_one_gate_calls(GetParam());
}

INSTANTIATE_TEST_SUITE_P(KernelEquivalence, RunEntryByQubits, ::testing::Range(3u, 8u),
                         [](const auto& info) {
                           return std::to_string(info.param) + "qubits";
                         });

/// A generic complex state through the public API: random RY angles, a
/// CNOT chain, random RY angles again, then a random phase on every basis
/// state.
Statevector random_complex_statevector(unsigned qubits, std::uint64_t seed) {
  util::Rng rng(seed);
  Statevector sv(qubits);
  for (unsigned q = 0; q < qubits; ++q) sv.apply(gates::ry(6.0 * rng.uniform()), q);
  for (unsigned q = 0; q + 1 < qubits; ++q) sv.cnot(q, q + 1);
  for (unsigned q = 0; q < qubits; ++q) sv.apply(gates::ry(6.0 * rng.uniform()), q);
  std::vector<double> phases(sv.dimension());
  for (double& p : phases) p = 2.0 * M_PI * rng.uniform();
  sv.apply_diagonal([&](BasisState b) { return std::polar(1.0, phases[b]); });
  return sv;
}

/// out = M * in for a dense row-major dim x dim matrix.
std::vector<Amplitude> multiply(const std::vector<Amplitude>& m,
                                const std::vector<Amplitude>& in) {
  const std::size_t dim = in.size();
  std::vector<Amplitude> out(dim, Amplitude{0, 0});
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) out[r] += m[r * dim + c] * in[c];
  }
  return out;
}

/// The full 2^q x 2^q matrix of gate g on `target`, controlled on
/// (c & mask) == value, from its definition rather than a pair walk:
/// <r|U|c> is zero unless r and c agree off the target; then it is
/// g(r_t, c_t) where the controls fire on c and the identity elsewhere.
std::vector<Amplitude> dense_gate_matrix(unsigned qubits, const Gate1& g,
                                         unsigned target, BasisState mask,
                                         BasisState value) {
  const std::size_t dim = std::size_t{1} << qubits;
  const BasisState t = BasisState{1} << target;
  std::vector<Amplitude> m(dim * dim, Amplitude{0, 0});
  for (BasisState r = 0; r < dim; ++r) {
    for (BasisState c = 0; c < dim; ++c) {
      if ((r & ~t) != (c & ~t)) continue;
      const auto rt = static_cast<unsigned>((r >> target) & 1);
      const auto ct = static_cast<unsigned>((c >> target) & 1);
      if ((c & mask) == value) {
        m[r * dim + c] = g(rt, ct);
      } else if (rt == ct) {
        m[r * dim + c] = Amplitude{1, 0};
      }
    }
  }
  return m;
}

TEST(ComplexGateReference, EveryComplexGateEveryTargetAndControlShape) {
  const auto zoo = zoo_part(false);
  ASSERT_EQ(zoo.size(), 6u);  // Y, S, T, RX, RZ, phase
  for (unsigned qubits = 1; qubits <= 8; ++qubits) {
    for (const auto& [gname, gate] : zoo) {
      for (unsigned target = 0; target < qubits; ++target) {
        // No controls, then one control above, one below, one on each side
        // of the target, and all the other qubits.
        std::vector<std::vector<unsigned>> control_sets{{}};
        if (target + 1 < qubits) control_sets.push_back({target + 1});
        if (target >= 1) control_sets.push_back({target - 1});
        if (target >= 1 && target + 1 < qubits) {
          control_sets.push_back({target - 1, target + 1});
        }
        std::vector<unsigned> all;
        for (unsigned q = 0; q < qubits; ++q) {
          if (q != target) all.push_back(q);
        }
        if (all.size() >= 2) control_sets.push_back(all);
        for (const auto& controls : control_sets) {
          BasisState mask = 0;
          BasisState alternating = 0;  // every other control fires on |1>
          for (std::size_t i = 0; i < controls.size(); ++i) {
            mask |= BasisState{1} << controls[i];
            if (i % 2 == 0) alternating |= BasisState{1} << controls[i];
          }
          // Fire on |1>, alternately, and on |0>; without controls the
          // three coincide, so that case runs once.
          std::vector<BasisState> values{mask};
          if (!controls.empty()) values.insert(values.end(), {alternating, 0});
          for (const BasisState value : values) {
            SCOPED_TRACE(std::string(gname) + " q" + std::to_string(qubits) +
                         " t" + std::to_string(target) + " mask" +
                         std::to_string(mask) + " value" + std::to_string(value));
            Statevector sv = random_complex_statevector(
                qubits, 100 * qubits + target + 1000 * controls.size());
            const auto want = multiply(
                dense_gate_matrix(qubits, gate, target, mask, value),
                sv.amplitudes());
            if (controls.empty()) {
              sv.apply(gate, target);
            } else {
              sv.apply_controlled(gate, controls, target, mask & ~value);
            }
            expect_close(sv.amplitudes(), want, gname);
          }
        }
      }
    }
  }
}

TEST(ComplexGateReference, AmplitudeEstimationInverseQftMatchesDft) {
  // The inverse QFT paper-sweep's amplitude estimation runs (6 + 6 qubits,
  // its 15 controlled phases the only complex gates src/ builds), on the
  // state it meets there and on a generic complex state. The reference is
  // the inverse DFT of the precision register from its definition,
  // out[j] = 2^{-p/2} sum_k e^{-2 pi i jk / 2^p} in[k], for each value of
  // the other qubits.
  const unsigned m = 6;
  const unsigned precision = 6;
  const unsigned total = m + precision;
  const std::size_t n = std::size_t{1} << precision;
  std::vector<Amplitude> dft(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < n; ++k) {
      const double turns = static_cast<double>((j * k) % n) / static_cast<double>(n);
      dft[j * n + k] = std::polar(1.0 / std::sqrt(static_cast<double>(n)),
                                  -2.0 * M_PI * turns);
    }
  }
  Statevector estimate(total);
  Circuit prep(m);
  for (unsigned q = 0; q < m; ++q) prep.h(q);
  prep.embedded(total, 0).apply_to(estimate);
  for (unsigned j = 0; j < precision; ++j) estimate.h(m + j);
  const Circuit u =
      query::grover_iterate_circuit(m, {3, 17, 40, 61}).embedded(total, 0);
  for (unsigned j = 0; j < precision; ++j) {
    const Circuit controlled = u.controlled_on(m + j);
    for (std::uint64_t r = 0; r < (std::uint64_t{1} << j); ++r) {
      controlled.apply_to(estimate);
    }
  }
  ASSERT_TRUE(estimate.is_real());
  for (Statevector sv : {estimate, random_complex_statevector(total, 12)}) {
    const auto in = sv.amplitudes();
    std::vector<Amplitude> want(in.size(), Amplitude{0, 0});
    const std::size_t low = std::size_t{1} << m;
    for (std::size_t rest = 0; rest < low; ++rest) {
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t k = 0; k < n; ++k) {
          want[(j << m) | rest] += dft[j * n + k] * in[(k << m) | rest];
        }
      }
    }
    inverse_qft_circuit(total, m, precision).apply_to(sv);
    EXPECT_FALSE(sv.is_real());
    expect_close(sv.amplitudes(), want, "inverse qft");
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
    kernels::apply_pairs(mirror.data(), mirror.size(),
                         std::size_t{1} << target, coeffs(gate));
  };
  auto scalar_ctrl = [&](const Gate1& gate, std::vector<unsigned> cs,
                         unsigned target) {
    BasisState mask = 0;
    for (unsigned c : cs) mask |= BasisState{1} << c;
    kernels::apply_pairs_controlled(mirror.data(), mirror.size(),
                                    std::size_t{1} << target, coeffs(gate),
                                    mask, mask);
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
  // The whole register and every range of it, on a real state and on a
  // complex one.
  for (unsigned qubits = 1; qubits <= 11; ++qubits) {
    for (const bool complex : {false, true}) {
      Statevector generic(qubits, (BasisState{1} << qubits) / 3);
      // A generic state first, so every amplitude and sign is in play.
      for (unsigned q = 0; q < qubits; ++q) {
        generic.apply(gates::ry(0.3 + q), q);
        if (complex) generic.apply(gates::t(), q);
      }
      Statevector all = generic;
      Statevector each = generic;
      all.h_all();
      for (unsigned q = 0; q < qubits; ++q) each.h(q);
      EXPECT_TRUE(same_bytes(all.amplitudes(), each.amplitudes())) << qubits;
      for (unsigned first = 0; first <= qubits; ++first) {
        for (unsigned count = 0; first + count <= qubits; ++count) {
          Statevector range = generic;
          Statevector one_by_one = generic;
          range.h_all(first, count);
          for (unsigned q = first; q < first + count; ++q) one_by_one.h(q);
          EXPECT_TRUE(same_bytes(range.amplitudes(), one_by_one.amplitudes()))
              << qubits << " [" << first << ", " << first + count << ")";
          EXPECT_EQ(range.is_real(), !complex);
        }
      }
    }
  }
}

TEST(StatevectorRun, ComplexGateEndsTheRealRunBeforeIt) {
  // A complex gate inside a run widens the state there; the real gates on
  // either side still match their one-gate calls byte for byte.
  const unsigned qubits = 6;
  Statevector generic(qubits, 19);
  for (unsigned q = 0; q < qubits; ++q) generic.apply(gates::ry(0.5 + q), q);
  const std::vector<std::vector<TargetedGate>> runs{
      {{gates::ry(0.7), 2}, {gates::t(), 0}, {gates::hadamard(), 5}},
      {{gates::t(), 1}, {gates::hadamard(), 0}, {gates::pauli_z(), 4}},
      {{gates::hadamard(), 3}, {gates::pauli_x(), 0}, {gates::rx(0.4), 1}},
      {{gates::s(), 5}, {gates::t(), 4}},
  };
  for (const auto& run : runs) {
    Statevector grouped = generic;
    Statevector one_by_one = generic;
    grouped.apply_run(run);
    for (const TargetedGate& t : run) one_by_one.apply(t.g, t.target);
    EXPECT_FALSE(grouped.is_real());
    EXPECT_TRUE(same_bytes(grouped.amplitudes(), one_by_one.amplitudes()));
  }
}

TEST(StatevectorPair, RejectsEqualAndOutOfRangeTargets) {
  Statevector sv(3);
  const Gate1 h = gates::hadamard();
  const TargetedGate equal[] = {{h, 1}, {gates::pauli_x(), 1}};
  const TargetedGate repeated[] = {{h, 0}, {h, 2}, {h, 0}};
  const TargetedGate out_of_range[] = {{h, 3}, {h, 0}};
  const TargetedGate last_out_of_range[] = {{h, 0}, {h, 1}, {h, 3}};
  const TargetedGate four[] = {{h, 0}, {h, 1}, {h, 2}, {h, 0}};
  EXPECT_THROW(sv.apply_run(equal), std::invalid_argument);
  EXPECT_THROW(sv.apply_run(repeated), std::invalid_argument);
  EXPECT_THROW(sv.apply_run(out_of_range), std::invalid_argument);
  EXPECT_THROW(sv.apply_run(last_out_of_range), std::invalid_argument);
  EXPECT_THROW(sv.apply_run(four), std::invalid_argument);
  EXPECT_THROW(sv.h_all(1, 3), std::invalid_argument);
  EXPECT_THROW(sv.h_all(4, 0), std::invalid_argument);
  // Nothing was applied: the state is still |000>.
  EXPECT_EQ(sv.amplitude(0), Amplitude(1, 0));
}

/// Probabilities of every basis state, for a byte comparison.
std::vector<double> probabilities(const Statevector& sv) {
  std::vector<double> out;
  for (std::size_t b = 0; b < sv.dimension(); ++b) out.push_back(sv.probability(b));
  return out;
}

TEST(StatevectorReal, WidenedStateEqualsComplexFromStart) {
  // The same ops on a state that is real until its first complex op and on
  // one made complex from the start by S then S-dagger (which returns every
  // value exactly). The first complex op is a gate or a diagonal phase.
  for (const bool widen_by_diagonal : {false, true}) {
    const unsigned qubits = 7;
    Statevector real_first(qubits);
    Statevector complex_first(qubits);
    complex_first.apply(gates::s(), 3);
    complex_first.apply(gates::s_dagger(), 3);
    ASSERT_FALSE(complex_first.is_real());
    const unsigned controls[] = {0, 4};
    auto ops = [&](Statevector& sv, int part) {
      if (part == 0) {
        sv.h_all();
        sv.apply(gates::ry(0.7), 2);
        sv.cnot(1, 3);
        const TargetedGate run[] = {{gates::ry(1.3), 5}, {gates::pauli_z(), 0},
                                    {gates::hadamard(), 2}};
        sv.apply_run(run);
        sv.apply_controlled(gates::hadamard(), controls, 6, BasisState{1});
        sv.apply_diagonal([](BasisState b) {
          return (b % 3 == 0) ? Amplitude{-1, 0} : Amplitude{1, 0};
        });
        sv.apply_permutation([](BasisState b) { return b ^ ((b & 1) << 5); });
        return;
      }
      if (part == 1) {
        if (widen_by_diagonal) {
          sv.apply_diagonal([](BasisState b) {
            return b < 40 ? Amplitude{1, 0}
                          : std::polar(1.0, 0.1 * static_cast<double>(b));
          });
        } else {
          sv.apply(gates::t(), 4);
        }
        return;
      }
      sv.h_all();
      const TargetedGate run[] = {{gates::ry(0.4), 1}, {gates::rx(0.9), 6}};
      sv.apply_run(run);
      sv.ccx(0, 2, 5);
      sv.apply_controlled(gates::ry(2.2), controls, 3, BasisState{1} << 4);
      sv.apply_permutation([](BasisState b) { return b ^ 0b1010; });
    };
    for (int part = 0; part < 3; ++part) {
      ops(real_first, part);
      ops(complex_first, part);
      EXPECT_EQ(real_first.is_real(), part == 0) << part;
    }
    expect_equal_values(real_first.amplitudes(), complex_first.amplitudes());
    const auto p_real = probabilities(real_first);
    const auto p_complex = probabilities(complex_first);
    EXPECT_TRUE(same_bytes(p_real, p_complex)) << widen_by_diagonal;
  }
}

TEST(StatevectorReal, GroverAndAmplitudeEstimationStayRealUntilInverseQft) {
  // Grover: H layer, iterates, measurement — all real.
  const unsigned width = 6;
  const std::vector<BasisState> marked{5, 40};
  Statevector grover(width);
  grover.h_all();
  const Circuit iterate = query::grover_iterate_circuit(width, marked);
  for (int i = 0; i < 3; ++i) iterate.apply_to(grover);
  EXPECT_TRUE(grover.is_real());
  util::Rng rng(3);
  grover.measure_all(rng);
  EXPECT_TRUE(grover.is_real());

  // Amplitude estimation, the steps of gate_level_phase_estimation: the
  // controlled powers of the iterate are real, the inverse QFT is not.
  const unsigned m = 3;
  const unsigned precision = 3;
  const unsigned total = m + precision;
  Circuit prep(m);
  for (unsigned q = 0; q < m; ++q) prep.h(q);
  const Circuit u = query::grover_iterate_circuit(m, {2}).embedded(total, 0);
  Statevector estimate(total);
  prep.embedded(total, 0).apply_to(estimate);
  for (unsigned j = 0; j < precision; ++j) estimate.h(m + j);
  for (unsigned j = 0; j < precision; ++j) {
    const Circuit controlled = u.controlled_on(m + j);
    for (std::uint64_t r = 0; r < (std::uint64_t{1} << j); ++r) {
      controlled.apply_to(estimate);
    }
  }
  EXPECT_TRUE(estimate.is_real());
  inverse_qft_circuit(total, m, precision).apply_to(estimate);
  EXPECT_FALSE(estimate.is_real());
}

/// One op of a random circuit, kept on the test side so it can be replayed
/// through Statevector::apply / apply_controlled one call at a time.
struct TestOp {
  Gate1 g;
  std::vector<unsigned> controls;
  unsigned target;
  BasisState open_controls;
};

/// Kernel calls Circuit::apply_to is specified to make: each maximal run of
/// up to three consecutive uncontrolled real gates on distinct targets
/// shares one call; a controlled op or a complex gate is a call alone.
/// `longest` receives the most gates one call took.
std::size_t expected_calls(const std::vector<TestOp>& ops,
                           std::size_t* longest) {
  *longest = 0;
  auto groups = [](const TestOp& op) {
    return op.controls.empty() && gates::is_real(op.g);
  };
  std::size_t calls = 0;
  for (std::size_t i = 0; i < ops.size(); ++calls) {
    if (!groups(ops[i])) {
      ++i;
      *longest = std::max<std::size_t>(*longest, 1);
      continue;
    }
    std::vector<unsigned> targets{ops[i++].target};
    while (targets.size() < 3 && i < ops.size() && groups(ops[i]) &&
           std::find(targets.begin(), targets.end(), ops[i].target) ==
               targets.end()) {
      targets.push_back(ops[i++].target);
    }
    *longest = std::max(*longest, targets.size());
  }
  return calls;
}

TEST(CircuitPairing, ApplyToMatchesOneOpAtATimeByteForByte) {
  // Circuits made of stretches of 1-5 uncontrolled gates, where a target
  // often repeats, between controlled ops. Real gates (H, X, Z, RY, -I,
  // diag(-1, 1)) group into runs of up to three; complex ones and
  // controlled ops end a run and take a call of their own.
  auto zoo = gate_zoo();
  zoo.push_back({"minus_identity", Gate1{{Amplitude{-1, 0}, {0, 0}, {0, 0}, {-1, 0}}}});
  zoo.push_back({"flip_zero", Gate1{{Amplitude{-1, 0}, {0, 0}, {0, 0}, {1, 0}}}});
  util::Rng rng(15);
  std::size_t grouped_total = 0;
  std::size_t three_gate_runs = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const auto qubits = static_cast<unsigned>(1 + rng.index(9));
    std::vector<TestOp> ops;
    Circuit circuit(qubits);
    const std::size_t stretches = 1 + rng.index(10);
    for (std::size_t k = 0; k < stretches; ++k) {
      const std::size_t stretch = 1 + rng.index(5);
      for (std::size_t j = 0; j < stretch; ++j) {
        const Gate1 g = zoo[rng.index(zoo.size())].second;
        // One gate in four repeats a target of its stretch, so runs that a
        // repeated target must break are common.
        unsigned target = static_cast<unsigned>(rng.index(qubits));
        if (j > 0 && rng.index(4) == 0) {
          target = ops[ops.size() - 1 - rng.index(j)].target;
        }
        circuit.gate(g, target);
        ops.push_back(TestOp{g, {}, target, 0});
      }
      if (qubits > 1 && rng.index(2) == 0) {
        const Gate1 g = zoo[rng.index(zoo.size())].second;
        const auto target = static_cast<unsigned>(rng.index(qubits));
        const unsigned control =
            (target + 1 + static_cast<unsigned>(rng.index(qubits - 1))) % qubits;
        TestOp op{g, {control}, target, 0};
        if (rng.index(2) == 0) op.open_controls = BasisState{1} << control;
        circuit.controlled(g, op.controls, target, op.open_controls);
        ops.push_back(op);
      }
    }
    Statevector grouped(qubits, rng.index(std::size_t{1} << qubits));
    Statevector one_at_a_time = grouped;
    const std::size_t calls = circuit.apply_to(grouped);
    for (const TestOp& op : ops) {
      if (op.controls.empty()) {
        one_at_a_time.apply(op.g, op.target);
      } else {
        one_at_a_time.apply_controlled(op.g, op.controls, op.target,
                                       op.open_controls);
      }
    }
    ASSERT_TRUE(same_bytes(grouped.amplitudes(), one_at_a_time.amplitudes()))
        << "trial " << trial;
    EXPECT_EQ(grouped.is_real(), one_at_a_time.is_real()) << "trial " << trial;
    std::size_t longest = 0;
    EXPECT_EQ(calls, expected_calls(ops, &longest)) << "trial " << trial;
    grouped_total += ops.size() - calls;
    three_gate_runs += longest == 3 ? 1 : 0;
  }
  EXPECT_GT(grouped_total, 0u);   // runs really formed
  EXPECT_GT(three_gate_runs, 0u);  // and some circuits grouped three gates
}

TEST(CircuitPairing, CountsOneCallPerRunControlledOpAndLoneGate) {
  Circuit c(4);
  c.h(0).h(1).h(2).h(3);    // (H0, H1, H2) full; H3 alone before a controlled op
  c.cnot(0, 2);             // controlled: one call
  c.x(1).x(1).z(2);         // X1 alone (same target next), then (X1, Z2) ...
  c.rz(3, 0.5);             // ... which a complex gate ends; RZ3 alone
  c.h(0).h(1).z(0).ry(2, 0.3);  // (H0, H1), then (Z0, RY2) after the repeat
  Statevector sv(4);
  EXPECT_EQ(c.apply_to(sv), 8u);
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
