// E-fault — the price of reliability: measured round overhead of the
// ack/retransmit link layer (src/net/reliable.hpp) as the deterministic
// fault rate rises, for representative communication patterns (BFS-tree
// construction and the Lemma 7 pipelined downcast), and its fault-free
// cost against the direct transport as the diameter grows.
//
// Reports, per fault level: median rounds over the reliable transport, the
// clean-network baseline, their ratio (the overhead curve chaos_run plots),
// and retransmissions per run. The drop rate is the knob; corruption and
// duplication ride along at rate/5 and rate/10 like in tools/chaos_run.cpp.

#include <numeric>

#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/net/bfs.hpp"
#include "src/net/fault.hpp"
#include "src/net/generators.hpp"
#include "src/net/pipeline.hpp"

namespace {

using namespace qcongest;

net::FaultPlan plan_for(double rate_permille, std::uint64_t seed) {
  net::FaultPlan plan;
  plan.link.drop = rate_permille / 1000.0;
  plan.link.corrupt = plan.link.drop / 5.0;
  plan.link.duplicate = plan.link.drop / 10.0;
  plan.seed = seed;
  return plan;
}

net::Engine make_engine(const net::Graph& graph, double rate_permille,
                        std::uint64_t seed) {
  net::Engine engine(graph, 1, seed);
  net::FaultPlan plan = plan_for(rate_permille, seed * 31 + 7);
  if (plan.active()) engine.set_fault_plan(plan);
  engine.set_transport(net::Transport::kReliable);
  return engine;
}

void BM_FaultOverheadBfs(benchmark::State& state) {
  const auto rate_permille = static_cast<double>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  net::Graph g = net::binary_tree(n);

  // Per-trial seeds derive from the trial index, so median_of can run the
  // trials concurrently (QCONGEST_BENCH_THREADS) with unchanged results.
  double rounds = 0, retrans = 0;
  std::vector<double> trial_retrans(5, 0.0);
  for (auto _ : state) {
    rounds = bench::median_of(5, [&](int t) {
      net::Engine engine =
          make_engine(g, rate_permille, static_cast<std::uint64_t>(t) + 1);
      net::BfsTree tree = net::build_bfs_tree(engine, 0);
      trial_retrans[static_cast<std::size_t>(t)] =
          static_cast<double>(tree.cost.retransmissions);
      return static_cast<double>(tree.cost.rounds);
    });
    retrans = trial_retrans[trial_retrans.size() / 2];
  }
  net::Engine clean_engine = make_engine(g, 0.0, 1);
  double clean = static_cast<double>(net::build_bfs_tree(clean_engine, 0).cost.rounds);
  bench::report(state, rounds, clean);
  state.counters["retransmissions"] = retrans;
}
BENCHMARK(BM_FaultOverheadBfs)
    ->ArgNames({"drop_permille", "n"})
    ->Args({0, 31})
    ->Args({10, 31})
    ->Args({20, 31})
    ->Args({50, 31})
    ->Args({100, 31})
    ->Args({50, 63})
    ->Args({100, 63});

// The synchronizer's tax at depth: fault-free BFS-tree construction on a
// path, reliable rounds (measured) against the direct transport's rounds
// of the same protocol (bound). The ratio is the physical-per-virtual
// round cost; the horizon rule keeps it constant (about 4 at B = 1)
// instead of growing with the diameter.
void BM_FaultOverheadDepth(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  net::Graph g = net::path_graph(n);
  double rounds = 0;
  for (auto _ : state) {
    net::Engine engine = make_engine(g, 0.0, 1);
    rounds = static_cast<double>(net::build_bfs_tree(engine, 0).cost.rounds);
  }
  net::Engine direct(g, 1, 1);
  bench::report(state, rounds,
                static_cast<double>(net::build_bfs_tree(direct, 0).cost.rounds));
}
BENCHMARK(BM_FaultOverheadDepth)->ArgNames({"n"})->Arg(64)->Arg(128)->Arg(256);

void BM_FaultOverheadDowncast(benchmark::State& state) {
  const auto rate_permille = static_cast<double>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto words = static_cast<std::size_t>(state.range(2));
  net::Graph g = net::binary_tree(n);
  std::vector<std::int64_t> payload(words);
  std::iota(payload.begin(), payload.end(), 1);

  double rounds = 0, retrans = 0;
  std::vector<double> trial_retrans(5, 0.0);
  for (auto _ : state) {
    rounds = bench::median_of(5, [&](int t) {
      net::Engine engine =
          make_engine(g, rate_permille, static_cast<std::uint64_t>(t) + 1);
      net::BfsTree tree = net::build_bfs_tree(engine, 0);
      auto down = net::pipelined_downcast(engine, tree, payload, /*quantum=*/false);
      trial_retrans[static_cast<std::size_t>(t)] =
          static_cast<double>(down.cost.retransmissions);
      return static_cast<double>(down.cost.rounds);
    });
    retrans = trial_retrans[trial_retrans.size() / 2];
  }
  net::Engine clean_engine = make_engine(g, 0.0, 1);
  net::BfsTree clean_tree = net::build_bfs_tree(clean_engine, 0);
  double clean = static_cast<double>(
      net::pipelined_downcast(clean_engine, clean_tree, payload, false).cost.rounds);
  bench::report(state, rounds, clean);
  state.counters["retransmissions"] = retrans;
}
BENCHMARK(BM_FaultOverheadDowncast)
    ->ArgNames({"drop_permille", "n", "words"})
    ->Args({0, 31, 64})
    ->Args({10, 31, 64})
    ->Args({20, 31, 64})
    ->Args({50, 31, 64})
    ->Args({100, 31, 64})
    ->Args({50, 31, 256});

// The retransmission-backoff satellite: at a punishing drop rate, sweep the
// backoff cap (ReliableParams::rto_cap). The doubling RTO is capped there
// and deterministically jittered per link, so repeated losses neither back
// off unboundedly (a capped link retries within rto_cap rounds of any
// delivery) nor resynchronise into lockstep retry bursts. A tight cap buys
// rounds with duplicate traffic; a loose cap the reverse — the sweep shows
// the curve the default (128) sits on.
void BM_FaultOverheadBackoffCap(benchmark::State& state) {
  const auto rate_permille = static_cast<double>(state.range(0));
  const auto cap = static_cast<std::size_t>(state.range(1));
  net::Graph g = net::binary_tree(31);

  double rounds = 0, retrans = 0;
  std::vector<double> trial_retrans(5, 0.0);
  for (auto _ : state) {
    rounds = bench::median_of(5, [&](int t) {
      net::Engine engine(g, 1, static_cast<std::uint64_t>(t) + 1);
      net::FaultPlan plan =
          plan_for(rate_permille, static_cast<std::uint64_t>(t) * 31 + 7);
      engine.set_fault_plan(plan);
      net::ReliableParams params;
      params.rto_cap = cap;
      engine.set_transport(net::Transport::kReliable, params);
      net::BfsTree tree = net::build_bfs_tree(engine, 0);
      trial_retrans[static_cast<std::size_t>(t)] =
          static_cast<double>(tree.cost.retransmissions);
      return static_cast<double>(tree.cost.rounds);
    });
    retrans = trial_retrans[trial_retrans.size() / 2];
  }
  net::Engine clean_engine = make_engine(g, 0.0, 1);
  double clean = static_cast<double>(net::build_bfs_tree(clean_engine, 0).cost.rounds);
  bench::report(state, rounds, clean);
  state.counters["retransmissions"] = retrans;
}
BENCHMARK(BM_FaultOverheadBackoffCap)
    ->ArgNames({"drop_permille", "rto_cap"})
    ->Args({100, 8})
    ->Args({100, 32})
    ->Args({100, 128})
    ->Args({100, 1024});

}  // namespace
