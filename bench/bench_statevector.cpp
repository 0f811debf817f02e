// E-hotpath (kernel front) — dense statevector gate throughput under the
// runtime-dispatched kernels. One dense brickwork circuit (H + T + CNOT
// layers, every target position) per qubit count, once through the active
// backend's real entries and once through the scalar ones. T makes the state
// complex, so H and CNOT go the way Statevector routes a real gate on a
// complex state: through the real entries on the buffer read as doubles,
// qubit t at array bit t + 1. A packed-real sweep (H on every qubit, runs of
// two and three gates, one controlled X) runs on its own array of 2^q
// doubles, where qubit 0 is array bit 0. The three-gate runs mix an H-shaped
// (H), a general (RY) and a diagonal (Z) gate over array bits 0, 1 and >= 2
// in several orders on the packed reals, and one covers qubits 0-2 (array
// bits 1-3) on the complex view. The real entries and the T layer's complex
// loop run on separate clocks: `speedup` is wall-clock scalar/active over
// the real entries alone, and `complex_ns` reports the complex loop, the
// same scalar code on both sides. `backend` encodes the dispatched Backend
// enum (0 scalar, 1 avx2) — on a machine without AVX2 both run the same
// code and speedup sits at ~1. Outside the timed region the final active
// and scalar vectors (complex and packed) are diffed, and the active run is
// replayed with every run split into its one-gate calls, which must give
// the same bytes; a gap above 1e-13 or any byte difference fails the run
// (SkipWithError), and json_main then exits non-zero.
//
// E-gatelevel — one gate-level Grover search (query/gate_level.hpp) per
// iteration: the query layer's iterate driving the kernels, as paper-sweep
// runs it, at 14 qubits and at 16 (paper-sweep's slowest trial). `gate_ops`
// is the iterate's op count, 2w + |marked| + 2, and `gate_passes` the
// kernel calls Circuit::apply_to makes for it: the H layers go up to three
// gates per sweep, and the closing -I joins the last H run when it has
// room, so for w >= 4 it is |marked| + 1 + 2*ceil(w/3), plus 1 when 3
// divides w. Both are deterministic counters, so perf_gate fails on any
// drift in them.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/quantum/circuit.hpp"
#include "src/quantum/gates.hpp"
#include "src/quantum/kernels.hpp"
#include "src/quantum/statevector.hpp"
#include "src/query/gate_level.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"

namespace {

using namespace qcongest;
using namespace qcongest::quantum;

/// Wall-clock time of one brickwork run, per entry family.
struct CircuitTimes {
  double real_ns = 0;     // real_run and real_pairs_controlled
  double complex_ns = 0;  // the T layer's complex loop
};

/// One brickwork layer sweep over every qubit with the given real entries,
/// from |0...0> into `amps`, and a packed-real sweep into `reals`. On the
/// complex view qubit t is array bit t + 1, so only the packed part reaches
/// array bit 0 (stride 1); it starts from an uneven normalized ramp, where a
/// wrong lane order there changes values. `split_runs` makes every run its
/// one-gate calls in order.
CircuitTimes run_circuit(unsigned qubits, const kernels::KernelOps& ops,
                         int layers, bool split_runs,
                         std::vector<Amplitude>& amps,
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
  const kernels::RealCoeffs ry = real(gates::ry(0.83));
  const kernels::RealCoeffs z = real(gates::pauli_z());
  const std::size_t top = std::size_t{1} << (qubits - 1);
  // Packed runs: array bits 0, 1 and 2 in and out of order, in-vector steps
  // around across ones, three across steps, two of them far apart, and
  // three across H gates out of stride order, as in an H layer.
  const std::vector<std::vector<kernels::RealStep>> packed_runs{
      {{1, h}, {2, x}},
      {{1, h}, {2, ry}, {4, z}},
      {{4, ry}, {1, z}, {2, h}},
      {{top, h}, {2, z}, {8, ry}},
      {{32, ry}, {4, h}, {top, z}},
      {{2, z}, {top, ry}, {1, h}},
      {{16, h}, {top, h}, {4, h}},
  };
  // Qubits 0-2 on the complex view: array bits 1-3.
  const std::vector<kernels::RealStep> view_run{{2, h}, {4, ry}, {8, z}};
  double* view = reinterpret_cast<double*>(amps.data());
  const std::size_t len = 2 * amps.size();
  auto run = [&](double* array, std::size_t array_len,
                 const std::vector<kernels::RealStep>& steps) {
    if (!split_runs) {
      ops.real_run(array, array_len, steps);
      return;
    }
    for (const kernels::RealStep& step : steps) {
      ops.real_run(array, array_len, {&step, 1});
    }
  };
  CircuitTimes times;
  auto timed = [](double& ns, const auto& section) {
    const auto start = std::chrono::steady_clock::now();
    section();
    const auto end = std::chrono::steady_clock::now();
    ns += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
  };
  for (int layer = 0; layer < layers; ++layer) {
    timed(times.real_ns, [&] {
      for (unsigned q = 0; q < qubits; ++q) {
        const kernels::RealStep step{std::size_t{2} << q, h};
        ops.real_run(view, len, {&step, 1});
      }
    });
    timed(times.complex_ns, [&] {
      for (unsigned q = 0; q < qubits; ++q) {
        kernels::apply_pairs(amps.data(), amps.size(), std::size_t{1} << q, ct);
      }
    });
    timed(times.real_ns, [&] {
      for (unsigned q = 0; q + 1 < qubits; ++q) {
        ops.real_pairs_controlled(view, len, std::size_t{2} << (q + 1), x,
                                  BasisState{2} << q, BasisState{2} << q);
      }
      run(view, len, view_run);
      for (unsigned q = 0; q < qubits; ++q) {
        const kernels::RealStep step{std::size_t{1} << q, h};
        ops.real_run(reals.data(), reals.size(), {&step, 1});
      }
      for (const auto& steps : packed_runs) run(reals.data(), reals.size(), steps);
      ops.real_pairs_controlled(reals.data(), reals.size(), 1, x, 2, 2);
    });
  }
  benchmark::DoNotOptimize(amps.data());
  benchmark::DoNotOptimize(reals.data());
  return times;
}

bool same_bytes(const void* a, const void* b, std::size_t bytes) {
  return std::memcmp(a, b, bytes) == 0;
}

void BM_DenseGateKernels(benchmark::State& state) {
  const auto qubits = static_cast<unsigned>(state.range(0));
  const int layers = 8;
  const int trials = 5;
  CircuitTimes active_times, scalar_times;
  std::vector<Amplitude> active, scalar, split;
  std::vector<double> active_reals, scalar_reals, split_reals;
  for (auto _ : state) {
    std::vector<double> active_real, active_complex, scalar_real;
    for (int trial = 0; trial < trials; ++trial) {
      const CircuitTimes a = run_circuit(qubits, kernels::active_ops(), layers,
                                         false, active, active_reals);
      active_real.push_back(a.real_ns);
      active_complex.push_back(a.complex_ns);
    }
    for (int trial = 0; trial < trials; ++trial) {
      scalar_real.push_back(run_circuit(qubits, kernels::scalar_ops(), layers,
                                        false, scalar, scalar_reals)
                                .real_ns);
    }
    active_times = {util::median(std::move(active_real)),
                    util::median(std::move(active_complex))};
    scalar_times.real_ns = util::median(std::move(scalar_real));
  }
  run_circuit(qubits, kernels::active_ops(), layers, true, split, split_reals);
  double gap = 0.0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    gap = std::max({gap, std::abs(active[i].real() - scalar[i].real()),
                    std::abs(active[i].imag() - scalar[i].imag()),
                    std::abs(active_reals[i] - scalar_reals[i])});
  }
  if (gap > 1e-13) {
    state.SkipWithError("active backend disagrees with the scalar oracle");
  } else if (!same_bytes(active.data(), split.data(),
                         active.size() * sizeof(Amplitude)) ||
             !same_bytes(active_reals.data(), split_reals.data(),
                         active_reals.size() * sizeof(double))) {
    state.SkipWithError("a run differs from its one-gate calls");
  }
  state.counters["active_ns"] = active_times.real_ns;
  state.counters["scalar_ns"] = scalar_times.real_ns;
  state.counters["complex_ns"] = active_times.complex_ns;
  state.counters["speedup"] =
      scalar_times.real_ns > 0 ? scalar_times.real_ns / active_times.real_ns : 0.0;
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
BENCHMARK(BM_GroverIterate)
    ->ArgName("qubits")
    ->Arg(14)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
