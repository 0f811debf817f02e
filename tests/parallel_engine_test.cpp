// Deterministic parallel execution: the sharded round scheduler
// (Engine::set_threads) must be observationally identical to the serial
// engine — byte-identical delivery transcripts and equal RunResults for
// every thread count, on clean and faulty networks alike. This is the
// property the chaos_run --audit-determinism --threads mode checks
// end-to-end and the TSan CI lane checks for data races; here it is pinned
// as a unit test so a violation names the exact divergence.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/bfs.hpp"
#include "src/net/engine.hpp"
#include "src/net/fault.hpp"
#include "src/net/generators.hpp"
#include "src/net/pipeline.hpp"
#include "src/net/trace.hpp"
#include "src/util/thread_pool.hpp"

namespace qcongest {
namespace {

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossCalls) {
  util::ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  for (int repeat = 0; repeat < 20; ++repeat) {
    sum.store(0);
    pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 5050u);
  }
}

TEST(ThreadPool, PropagatesSmallestIndexException) {
  util::ThreadPool pool(4);
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 7 || i == 50) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7");
  }
}

TEST(ThreadPool, SerialFallbackWithoutWorkers) {
  // threads <= 1 spawns nothing; parallel_for degrades to a plain loop on
  // the calling thread.
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// --- serial vs sharded parity ------------------------------------------------

struct WorkloadRun {
  std::string transcript;
  net::RunResult bfs_cost;
  net::RunResult down_cost;
};

std::string render(const net::Trace& trace) {
  std::string s;
  for (const net::TraceEvent& e : trace.events()) {
    s += std::to_string(e.round) + ' ' + std::to_string(e.from) + ' ' +
         std::to_string(e.to) + ' ' + std::to_string(e.tag) + ' ' +
         (e.quantum ? '1' : '0') + '\n';
  }
  return s;
}

/// A second tap behind the trace: appends every callback it hears, so the
/// transcript pins the whole stream each observer on the list sees.
class CallbackLog final : public net::EngineObserver {
 public:
  std::string text;

  void on_send(std::size_t round, net::NodeId from, net::NodeId to,
               const net::Word& word, std::size_t edge_words) override {
    text += "send " + std::to_string(round) + ' ' + std::to_string(from) + ' ' +
            std::to_string(to) + ' ' + std::to_string(word.tag) + " edge_words=" +
            std::to_string(edge_words) + '\n';
  }
  void on_delivery(std::size_t round, net::NodeId from, net::NodeId to,
                   net::DeliveryFate fate, bool corrupted, bool duplicated) override {
    text += "fate " + std::to_string(round) + ' ' + std::to_string(from) + ' ' +
            std::to_string(to) + ' ' + std::to_string(static_cast<int>(fate)) + ' ' +
            (corrupted ? 'c' : '-') + (duplicated ? 'd' : '-') + '\n';
  }
  void on_round_end(std::size_t round) override {
    text += "round_end " + std::to_string(round) + '\n';
  }
  void on_run_end(const net::RunResult& stats) override {
    text += "run_end rounds=" + std::to_string(stats.rounds) +
            " messages=" + std::to_string(stats.messages) + '\n';
  }
};

/// BFS-tree construction followed by a pipelined downcast — flood plus
/// pipeline traffic, the two scheduling patterns with the most inter-node
/// ordering to get wrong.
WorkloadRun run_workload(const net::Graph& g, std::size_t threads,
                 const net::FaultPlan* plan) {
  net::Engine engine(g, /*bandwidth=*/1, /*seed=*/42);
  engine.set_threads(threads);
  if (plan != nullptr) engine.set_fault_plan(*plan);
  net::Trace trace;
  CallbackLog log;
  engine.set_observers({&trace, &log});

  WorkloadRun out;
  try {
    net::BfsTree tree = net::build_bfs_tree(engine, 0);
    out.bfs_cost = tree.cost;
    std::vector<std::int64_t> payload(24);
    std::iota(payload.begin(), payload.end(), 1);
    auto down = net::pipelined_downcast(engine, tree, payload, /*quantum=*/false);
    out.down_cost = down.cost;
  } catch (const std::exception& e) {
    // Parity must hold on failing runs too: both engines must fail the
    // same way at the same point.
    out.transcript = std::string("exception: ") + e.what() + '\n';
  }
  out.transcript += render(trace) + log.text;
  return out;
}

void expect_parity(const net::Graph& g, const net::FaultPlan* plan,
                   const std::string& label) {
  WorkloadRun serial = run_workload(g, 1, plan);
  for (std::size_t threads : {2u, 4u, 8u}) {
    WorkloadRun sharded = run_workload(g, threads, plan);
    EXPECT_EQ(serial.transcript, sharded.transcript)
        << label << ": transcript diverged at threads=" << threads;
    EXPECT_EQ(serial.bfs_cost, sharded.bfs_cost)
        << label << ": BFS RunResult diverged at threads=" << threads;
    EXPECT_EQ(serial.down_cost, sharded.down_cost)
        << label << ": downcast RunResult diverged at threads=" << threads;
  }
}

net::FaultPlan lossy_plan() {
  net::FaultPlan plan;
  plan.link.drop = 0.05;
  plan.link.corrupt = 0.01;
  plan.link.duplicate = 0.005;
  plan.seed = 2024;
  return plan;
}

TEST(ParallelEngine, CleanNetworkParity) {
  util::Rng rng(11);
  expect_parity(net::path_graph(17), nullptr, "path");
  expect_parity(net::binary_tree(31), nullptr, "tree");
  expect_parity(net::random_connected_graph(20, 14, rng), nullptr, "random");
}

TEST(ParallelEngine, FaultLotteryParity) {
  net::FaultPlan plan = lossy_plan();
  util::Rng rng(12);
  expect_parity(net::binary_tree(31), &plan, "lossy tree");
  expect_parity(net::random_connected_graph(20, 14, rng), &plan, "lossy random");
}

TEST(ParallelEngine, CrashWindowParity) {
  net::FaultPlan plan;
  plan.crashes.push_back({3, 2, 5});
  plan.crashes.push_back({7, 4, net::CrashEvent::kNeverRestarts});
  plan.seed = 99;
  util::Rng rng(13);
  expect_parity(net::random_connected_graph(16, 12, rng), &plan, "crashes");
}

TEST(ParallelEngine, SingleNodeAndThreadOversubscription) {
  // More threads than nodes: shards degenerate to one node each; a
  // single-node graph exercises the n == 1 serial short-circuit.
  expect_parity(net::path_graph(2), nullptr, "two nodes");
  expect_parity(net::path_graph(3), nullptr, "three nodes");
}

TEST(ParallelEngine, ReliableTransportStaysSerial) {
  // threads > 1 under the reliable transport is a documented no-op (the
  // ack/retransmit layer serializes on link state); the knob must be
  // accepted and the run must match the serial one exactly.
  net::Graph g = net::binary_tree(15);
  auto run_reliable = [&](std::size_t threads) {
    net::Engine engine(g, 1, 7);
    engine.set_transport(net::Transport::kReliable);
    engine.set_threads(threads);
    EXPECT_EQ(engine.threads(), threads);
    net::Trace trace;
    engine.set_observers({&trace});
    net::BfsTree tree = net::build_bfs_tree(engine, 0);
    return render(trace) + " rounds=" + std::to_string(tree.cost.rounds);
  };
  EXPECT_EQ(run_reliable(1), run_reliable(8));
}

TEST(ParallelEngine, RepeatedParallelRunsReplay) {
  // The sharded engine must also replay against itself: same seed, same
  // thread count, identical transcript (no dependence on scheduling).
  net::Graph g = net::binary_tree(31);
  net::FaultPlan plan = lossy_plan();
  WorkloadRun first = run_workload(g, 4, &plan);
  WorkloadRun second = run_workload(g, 4, &plan);
  EXPECT_EQ(first.transcript, second.transcript);
  EXPECT_EQ(first.bfs_cost, second.bfs_cost);
}

}  // namespace
}  // namespace qcongest
