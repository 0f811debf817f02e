// E6 — Theorem 8 / Corollary 9: the distributed-query framework itself.
//
// Reproduces: per-batch measured rounds vs the theorem's
// (D + p) ceil(q / log n) + p ceil(log k / log n) formula, plus the p-sweep
// ablation showing that p ~ D minimizes total rounds for a fixed query
// budget (the paper's motivation for parallel batches: smaller p idles the
// network, larger p pays the pipeline without reducing the batch count).

#include <cmath>

#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/framework/distributed_oracle.hpp"
#include "src/framework/distributed_state.hpp"
#include "src/net/generators.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/round_profiler.hpp"
#include "src/query/parallel_minfind.hpp"
#include "src/util/combinatorics.hpp"

namespace {

using namespace qcongest;

framework::OracleConfig sum_config(std::size_t k, std::size_t p, std::size_t bits) {
  framework::OracleConfig config;
  config.domain_size = k;
  config.parallelism = p;
  config.value_bits = bits;
  config.combine = [](std::int64_t a, std::int64_t b) { return a + b; };
  config.identity = 0;
  return config;
}

void BM_BatchCost(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto p = static_cast<std::size_t>(state.range(2));
  const auto q = static_cast<std::size_t>(state.range(3));
  net::Graph g = net::path_graph(n);
  net::Engine engine(g, 1, 1);
  net::BfsTree tree = net::build_bfs_tree(engine, 0);
  std::vector<std::vector<query::Value>> data(n, std::vector<query::Value>(k, 1));

  // Profile the charged batch (not the BFS setup above): per-round traffic
  // plus the Theorem 8 phase spans, deposited into the session run report.
  obs::RoundProfiler profiler;
  engine.set_observers({&profiler});
  framework::OracleConfig config = sum_config(k, p, q);
  config.profiler = &profiler;

  double measured = 0;
  net::RunResult cost;
  for (auto _ : state) {
    profiler.reset();
    framework::DistributedOracle oracle(engine, tree, config, data);
    oracle.charge_batch();
    cost = oracle.total_cost();
    measured = static_cast<double>(cost.rounds);
  }
  engine.set_observers({});
  double d = static_cast<double>(tree.height);
  double w_val = static_cast<double>(framework::words_for_bits(q, n));
  double w_idx =
      static_cast<double>(framework::words_for_bits(util::ceil_log2(k), n));
  double pd = static_cast<double>(p);
  // Factor 2 for the uncompute mirrors, as in the Theorem 8 constant.
  double bound = 2.0 * ((d + pd) * w_val + pd * w_idx + d);
  bench::report(state, measured, bound);

  const std::string section_name = "BM_BatchCost/n:" + std::to_string(n) +
                                   "/k:" + std::to_string(k) + "/p:" + std::to_string(p) +
                                   "/q:" + std::to_string(q);
  obs::RunReport& report = bench::session_report();
  bool already = false;
  for (const obs::RunReport::Section& s : report.sections()) {
    if (s.name() == section_name) already = true;
  }
  if (!already) {
    obs::RunReport::Section& section = report.add_section(section_name);
    section.set_label("n", std::to_string(n));
    section.set_label("k", std::to_string(k));
    section.set_label("p", std::to_string(p));
    section.set_label("q", std::to_string(q));
    section.set_outcome(measured <= bound);
    section.set_result(cost);
    section.set_profile(profiler);
    obs::MetricsRegistry metrics;
    metrics.set_gauge("measured", measured);
    metrics.set_gauge("bound", bound);
    metrics.set_gauge("ratio", bound > 0 ? measured / bound : 0.0);
    section.set_metrics(metrics);
  }
}
BENCHMARK(BM_BatchCost)
    ->ArgNames({"n", "k", "p", "q"})
    ->Args({32, 1024, 8, 10})
    ->Args({64, 1024, 8, 10})
    ->Args({128, 1024, 8, 10})
    ->Args({64, 1024, 32, 10})
    ->Args({64, 1024, 128, 10})
    ->Args({64, 1024, 8, 40})
    ->Args({64, 1024, 8, 160})
    ->Args({64, 65536, 8, 10})
    ->Iterations(1);

void BM_ParallelismSweep(benchmark::State& state) {
  // Fixed problem (minimum finding over k slots on a path of diameter D);
  // sweep p. Total rounds = b(p) * batch_cost(p) bottoms out near p ~ D.
  const auto p = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 33, k = 4096;
  net::Graph g = net::path_graph(n);  // D = 32

  // Trials are fully independent — own engine, own RNG forked from the
  // trial index — so median_of may fan them out across
  // QCONGEST_BENCH_THREADS workers without changing the reported median.
  double measured = 0, batches = 0;
  std::vector<double> trial_batches(7, 0.0);
  for (auto _ : state) {
    measured = bench::median_of(7, [&](int t) {
      util::Rng rng(3 + static_cast<std::uint64_t>(t));
      net::Engine engine(g, 1, 1);
      net::BfsTree tree = net::build_bfs_tree(engine, 0);
      std::vector<std::vector<query::Value>> data(n,
                                                  std::vector<query::Value>(k, 0));
      for (std::size_t j = 0; j < k; ++j) {
        data[j % n][j] = static_cast<query::Value>(rng.index(10000)) + 1;
      }
      framework::DistributedOracle oracle(engine, tree, sum_config(k, p, 16), data);
      (void)query::minfind(oracle, rng);
      trial_batches[static_cast<std::size_t>(t)] =
          static_cast<double>(oracle.ledger().batches);
      return static_cast<double>(oracle.total_cost().rounds);
    });
    batches = trial_batches[trial_batches.size() / 2];
  }
  state.counters["rounds"] = measured;
  state.counters["batches"] = batches;
}
BENCHMARK(BM_ParallelismSweep)
    ->ArgName("p")
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(32)   // ~ D
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Iterations(1);

}  // namespace
