// E-hotpath (kernel front) — dense statevector gate throughput under the
// runtime-dispatched kernels. One dense brickwork circuit (H + T + CNOT
// layers, every target position) per qubit count, once through the active
// backend's real entries and once through the scalar ones, so the SIMD
// speedup is a single tracked ratio rather than a claim. T makes the state
// complex, so H and CNOT go the way Statevector routes a real gate on a
// complex state: through the real entries on the buffer read as doubles,
// qubit t at array bit t + 1. The T layer runs the one complex loop on
// both sides, so it adds the same time to each and measures no backend.
// A packed-real sweep (H on every qubit, one two-gate call at strides 1
// and 2, one controlled X) runs on its own array of 2^q doubles, where
// qubit 0 is array bit 0. The run covers the real plain, two-gate and
// controlled entries and the complex loop. The `speedup` counter is
// wall-clock scalar/active; `backend` encodes the dispatched Backend enum
// (0 scalar, 1 avx2) — on a machine without AVX2 both run the same code
// and speedup sits at ~1. Outside the timed region the final active and
// scalar vectors (complex and packed) are diffed; a gap above 1e-13 fails
// the run (SkipWithError), and json_main then exits non-zero.
//
// E-gatelevel — one gate-level Grover search (query/gate_level.hpp) per
// iteration: the query layer's iterate driving the kernels, as paper-sweep
// runs it. `gate_ops` is the iterate's op count, 2w + |marked| + 2, and
// `gate_passes` the kernel calls Circuit::apply_to makes for it,
// w + |marked| + 2 (the H layers go two gates per sweep). Both are
// deterministic counters, so perf_gate fails on any drift in them.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/quantum/circuit.hpp"
#include "src/quantum/gates.hpp"
#include "src/quantum/kernels.hpp"
#include "src/quantum/statevector.hpp"
#include "src/query/gate_level.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace qcongest;
using namespace qcongest::quantum;

/// One brickwork layer sweep over every qubit with the given real entries,
/// from |0...0> into `amps`, and a packed-real sweep into `reals`. On the
/// complex view qubit t is array bit t + 1, so only the packed part reaches
/// array bit 0 (stride 1); it starts from an uneven normalized ramp, where a
/// wrong lane order there changes values.
double run_circuit_ns(unsigned qubits, const kernels::KernelOps& ops,
                      int layers, std::vector<Amplitude>& amps,
                      std::vector<double>& reals) {
  amps.assign(std::size_t{1} << qubits, Amplitude{0, 0});
  amps[0] = Amplitude{1, 0};
  reals.resize(amps.size());
  double norm = 0.0;
  for (std::size_t i = 0; i < reals.size(); ++i) {
    reals[i] = 1.0 + static_cast<double>(i % 5);
    norm += reals[i] * reals[i];
  }
  for (double& r : reals) r /= std::sqrt(norm);
  auto real = [](const Gate1& g) {
    return kernels::RealCoeffs{g(0, 0).real(), g(0, 1).real(),
                               g(1, 0).real(), g(1, 1).real()};
  };
  const auto t = gates::t();
  const kernels::Gate1Coeffs ct{t(0, 0), t(0, 1), t(1, 0), t(1, 1)};
  const kernels::RealCoeffs h = real(gates::hadamard());
  const kernels::RealCoeffs x = real(gates::pauli_x());
  double* view = reinterpret_cast<double*>(amps.data());
  const std::size_t len = 2 * amps.size();
  const auto start = std::chrono::steady_clock::now();
  for (int layer = 0; layer < layers; ++layer) {
    for (unsigned q = 0; q < qubits; ++q) {
      ops.real_pairs(view, len, std::size_t{2} << q, h);
    }
    for (unsigned q = 0; q < qubits; ++q) {
      kernels::apply_pairs(amps.data(), amps.size(), std::size_t{1} << q, ct);
    }
    for (unsigned q = 0; q + 1 < qubits; ++q) {
      ops.real_pairs_controlled(view, len, std::size_t{2} << (q + 1), x,
                                BasisState{2} << q, BasisState{2} << q);
    }
    for (unsigned q = 0; q < qubits; ++q) {
      ops.real_pairs(reals.data(), reals.size(), std::size_t{1} << q, h);
    }
    ops.real_pairs2(reals.data(), reals.size(), 1, h, 2, x);
    ops.real_pairs_controlled(reals.data(), reals.size(), 1, x, 2, 2);
  }
  const auto end = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(amps.data());
  benchmark::DoNotOptimize(reals.data());
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

void BM_DenseGateKernels(benchmark::State& state) {
  const auto qubits = static_cast<unsigned>(state.range(0));
  const int layers = 8;
  double active_ns = 0, scalar_ns = 0;
  std::vector<Amplitude> active, scalar;
  std::vector<double> active_reals, scalar_reals;
  for (auto _ : state) {
    active_ns = bench::median_of(5, [&] {
      return run_circuit_ns(qubits, kernels::active_ops(), layers, active,
                            active_reals);
    });
    scalar_ns = bench::median_of(5, [&] {
      return run_circuit_ns(qubits, kernels::scalar_ops(), layers, scalar,
                            scalar_reals);
    });
  }
  double gap = 0.0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    gap = std::max({gap, std::abs(active[i].real() - scalar[i].real()),
                    std::abs(active[i].imag() - scalar[i].imag()),
                    std::abs(active_reals[i] - scalar_reals[i])});
  }
  if (gap > 1e-13) {
    state.SkipWithError("active backend disagrees with the scalar oracle");
  }
  state.counters["active_ns"] = active_ns;
  state.counters["scalar_ns"] = scalar_ns;
  state.counters["speedup"] = scalar_ns > 0 ? scalar_ns / active_ns : 0.0;
  state.counters["backend"] =
      static_cast<double>(static_cast<int>(kernels::active_backend()));
}
BENCHMARK(BM_DenseGateKernels)
    ->ArgName("qubits")
    ->Arg(10)
    ->Arg(14)
    ->Arg(18)
    ->Iterations(1);

void BM_GroverIterate(benchmark::State& state) {
  const auto qubits = static_cast<unsigned>(state.range(0));
  // Two marked states, each with zero bits.
  const std::vector<BasisState> marked{5, (BasisState{1} << qubits) - 6};
  util::Rng rng(14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::gate_level_grover_search(qubits, marked, rng));
  }
  const Circuit iterate = query::grover_iterate_circuit(qubits, marked);
  Statevector probe(qubits);
  state.counters["gate_ops"] = static_cast<double>(iterate.size());
  state.counters["gate_passes"] = static_cast<double>(iterate.apply_to(probe));
}
BENCHMARK(BM_GroverIterate)->ArgName("qubits")->Arg(14)->Unit(benchmark::kMillisecond);

}  // namespace
