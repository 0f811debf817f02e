// E11 — Lemma 21: diameter and radius in O(sqrt(n D)) rounds.
//
// Reproduces: quantum O(sqrt(n D)) vs classical Theta(n + D) (full APSP)
// measured rounds on low-diameter graphs; the success rates; and the
// radius variant the paper adds over [LM18].
//
// BM_ClassicalApsp times the classical baseline alone, over as many
// iterations as a steady time needs: the perf smoke pins its
// topology:1/n:128 row, whose `rounds` and `words` are deterministic.

#include <cmath>

#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/apps/eccentricity.hpp"
#include "src/net/generators.hpp"

namespace {

using namespace qcongest;
using namespace qcongest::apps;

net::Graph make_topology(std::size_t kind, std::size_t n, util::Rng& rng) {
  switch (kind) {
    case 0:
      return net::two_stars_graph(n / 2 - 1, n / 2 - 1, 2);  // D = 4
    case 1:
      return net::random_connected_graph(n, 3 * n, rng);     // low diameter
    default:
      return net::grid_graph(n / 8, 8);                      // D ~ n/8
  }
}

void BM_Diameter(benchmark::State& state) {
  const auto kind = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  util::Rng rng(1);
  net::Graph g = make_topology(kind, n, rng);
  const double d = static_cast<double>(g.diameter());

  double quantum = 0, classical = 0;
  int successes = 0, trials = 0;
  for (auto _ : state) {
    classical = static_cast<double>(diameter_classical(g).cost.rounds);
    quantum = bench::median_of(5, [&] {
      auto result = diameter_quantum(g, rng);
      ++trials;
      if (result.value == g.diameter()) ++successes;
      return static_cast<double>(result.cost.rounds);
    });
  }
  bench::report(state, quantum, std::sqrt(static_cast<double>(g.num_nodes()) * d));
  state.counters["classical"] = classical;
  state.counters["classical_bound"] = static_cast<double>(g.num_nodes()) + d;
  state.counters["quantum_wins"] = quantum < classical ? 1.0 : 0.0;
  state.counters["success_rate"] =
      trials > 0 ? static_cast<double>(successes) / trials : 0.0;
}
BENCHMARK(BM_Diameter)
    ->ArgNames({"topology", "n"})
    ->Args({0, 64})
    ->Args({0, 128})
    ->Args({0, 256})
    ->Args({0, 512})
    ->Args({1, 64})
    ->Args({1, 128})
    ->Args({2, 64})
    ->Iterations(1);

void BM_ClassicalApsp(benchmark::State& state) {
  const auto kind = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  util::Rng rng(1);
  const net::Graph g = make_topology(kind, n, rng);
  EccentricityResult result;
  for (auto _ : state) {
    result = diameter_classical(g);
    benchmark::DoNotOptimize(result.value);
  }
  state.counters["rounds"] = static_cast<double>(result.cost.rounds);
  state.counters["words"] = static_cast<double>(result.cost.classical_words);
}
BENCHMARK(BM_ClassicalApsp)
    ->ArgNames({"topology", "n"})
    ->Args({1, 128})
    ->Unit(benchmark::kMillisecond);

void BM_DiameterEchoAblation(benchmark::State& state) {
  // Ablation: the paper's literal "queried node computes its own
  // eccentricity" (Lemma 20 echo) vs letting the framework's
  // max-convergecast assemble it from raw distances.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  net::Graph g = net::two_stars_graph(n / 2 - 1, n / 2 - 1, 2);
  double echo = 0, assembled = 0;
  for (auto _ : state) {
    echo = bench::median_of(5, [&] {
      return static_cast<double>(diameter_quantum_echo(g, rng).cost.rounds);
    });
    assembled = bench::median_of(5, [&] {
      return static_cast<double>(diameter_quantum(g, rng).cost.rounds);
    });
  }
  state.counters["echo_rounds"] = echo;
  state.counters["assembled_rounds"] = assembled;
}
BENCHMARK(BM_DiameterEchoAblation)
    ->ArgName("n")
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Iterations(1);

void BM_Radius(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  net::Graph g = net::two_stars_graph(n / 2 - 1, n / 2 - 1, 2);
  double quantum = 0, classical = 0;
  int successes = 0, trials = 0;
  for (auto _ : state) {
    classical = static_cast<double>(radius_classical(g).cost.rounds);
    quantum = bench::median_of(5, [&] {
      auto result = radius_quantum(g, rng);
      ++trials;
      if (result.value == g.radius()) ++successes;
      return static_cast<double>(result.cost.rounds);
    });
  }
  bench::report(state, quantum,
                std::sqrt(static_cast<double>(g.num_nodes()) *
                          static_cast<double>(g.diameter())));
  state.counters["classical"] = classical;
  state.counters["success_rate"] =
      trials > 0 ? static_cast<double>(successes) / trials : 0.0;
}
BENCHMARK(BM_Radius)->ArgName("n")->Arg(64)->Arg(128)->Arg(256)->Iterations(1);

}  // namespace
