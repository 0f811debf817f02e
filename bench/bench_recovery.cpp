// E-recover — the recovery tax: measured cost of surviving a
// crash-with-amnesia window (src/recover) relative to the fault-free run
// and to a with-state restart of the same schedule.
//
// Two knobs. The checkpoint cadence (CheckpointPolicy::every_rounds, with
// 0 = checkpoint only at phase start, forcing a full replay from round 0)
// trades steady-state checkpointing work against the length of the
// neighbor-assisted replay a wipe triggers; the sweep should show
// recovery_words shrinking as checkpoints get denser. The amnesia flag
// itself isolates what the wipe costs on top of the outage: a with-state
// restart of the identical window pays zero recovery words by definition.
//
// Counters per benchmark: measured median rounds, the clean baseline
// (bench::report's bound — ratio is the round-count tax), plus the honest
// recovery counters RunResult::recovery_rounds / recovery_words.

#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/net/bfs.hpp"
#include "src/net/fault.hpp"
#include "src/net/generators.hpp"
#include "src/recover/checkpoint.hpp"

namespace {

using namespace qcongest;

// Outage window in physical rounds: late enough that committed virtual
// rounds of protocol state are lost, early enough that BFS construction on
// every swept graph is still in flight when it opens (cf. tools/chaos_run).
constexpr std::size_t kCrashRound = 6;
constexpr std::size_t kRestartRound = 30;

net::FaultPlan outage(net::NodeId victim, bool amnesia) {
  net::FaultPlan plan;
  plan.crashes.push_back(net::CrashEvent{victim, kCrashRound, kRestartRound});
  plan.crashes[0].amnesia = amnesia;
  return plan;
}

// The victim is an interior node of the heap-ordered binary tree (depth 2,
// with a subtree below it): it accumulates parent/child BFS state worth
// losing. A leaf wiped in the same window restores a checkpoint that is
// already current and pays no replay at all — true, but a boring benchmark.
constexpr net::NodeId kVictim = 3;

net::Engine make_engine(const net::Graph& graph, std::uint64_t seed,
                        bool amnesia, std::size_t every_rounds) {
  net::Engine engine(graph, 1, seed);
  engine.set_fault_plan(outage(kVictim, amnesia));
  engine.set_transport(net::Transport::kReliable);
  recover::RecoveryPolicy recovery;
  recovery.enabled = true;
  recovery.checkpoint.every_rounds = every_rounds;
  engine.set_recovery(recovery);
  return engine;
}

struct Tax {
  double rounds = 0;
  double recovery_rounds = 0;
  double recovery_words = 0;
};

/// Median rounds (and the matching trial's recovery counters) of five BFS
/// builds under the amnesia outage. Per-trial seeds derive from the trial
/// index so median_of can fan trials out (QCONGEST_BENCH_THREADS).
Tax measure_bfs(const net::Graph& graph, bool amnesia, std::size_t every_rounds) {
  Tax tax;
  std::vector<net::RunResult> costs(5);
  tax.rounds = bench::median_of(5, [&](int t) {
    net::Engine engine =
        make_engine(graph, static_cast<std::uint64_t>(t) + 1, amnesia, every_rounds);
    costs[static_cast<std::size_t>(t)] = net::build_bfs_tree(engine, 0).cost;
    return static_cast<double>(costs[static_cast<std::size_t>(t)].rounds);
  });
  const net::RunResult& mid = costs[costs.size() / 2];
  tax.recovery_rounds = static_cast<double>(mid.recovery_rounds);
  tax.recovery_words = static_cast<double>(mid.recovery_words);
  return tax;
}

double clean_bfs_rounds(const net::Graph& graph) {
  net::Engine engine(graph, 1, 1);
  engine.set_transport(net::Transport::kReliable);
  return static_cast<double>(net::build_bfs_tree(engine, 0).cost.rounds);
}

void BM_RecoveryTaxBfs(benchmark::State& state) {
  const auto every_rounds = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  net::Graph g = net::binary_tree(n);
  Tax tax;
  for (auto _ : state) tax = measure_bfs(g, /*amnesia=*/true, every_rounds);
  bench::report(state, tax.rounds, clean_bfs_rounds(g));
  state.counters["recovery_rounds"] = tax.recovery_rounds;
  state.counters["recovery_words"] = tax.recovery_words;
}
BENCHMARK(BM_RecoveryTaxBfs)
    ->ArgNames({"ckpt_every", "n"})
    ->Args({0, 31})  // phase-start checkpoint only: full replay from round 0
    ->Args({1, 31})
    ->Args({2, 31})
    ->Args({4, 31})
    ->Args({2, 63});

void BM_RecoveryAmnesiaVsStateful(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  net::Graph g = net::binary_tree(n);
  Tax tax;
  for (auto _ : state) tax = measure_bfs(g, /*amnesia=*/true, /*every_rounds=*/2);
  // The bound here is the with-state restart of the same outage, not the
  // fault-free run: the ratio isolates the amnesia surcharge.
  Tax stateful = measure_bfs(g, /*amnesia=*/false, /*every_rounds=*/2);
  bench::report(state, tax.rounds, stateful.rounds);
  state.counters["recovery_rounds"] = tax.recovery_rounds;
  state.counters["recovery_words"] = tax.recovery_words;
}
BENCHMARK(BM_RecoveryAmnesiaVsStateful)->ArgNames({"n"})->Arg(31)->Arg(63);

}  // namespace
