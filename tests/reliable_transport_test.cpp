// The reliable link transport: exactly-once in-order delivery over lossy
// links, unmodified protocol correctness (leader election / BFS) on faulty
// networks, deterministic replay including retransmission counts, and the
// invariance of inner-protocol outputs across fault rates.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "src/apps/eccentricity.hpp"
#include "src/apps/registry.hpp"
#include "src/net/bfs.hpp"
#include "src/net/engine.hpp"
#include "src/net/fault.hpp"
#include "src/net/generators.hpp"

namespace qcongest::net {
namespace {

/// Node 0 streams `count` consecutive integers to node 1 (one per round);
/// node 1 records the exact arrival sequence.
class Streamer final : public NodeProgram {
 public:
  explicit Streamer(std::size_t count) : count_(count) {}
  std::vector<std::int64_t> received;

  void on_round(Context& ctx, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      if (m.word.tag == 7) received.push_back(m.word.a);
    }
    if (ctx.id() == 0) {
      if (ctx.round() < count_) {
        ctx.send(1, Word{7, static_cast<std::int64_t>(ctx.round()), 0, false});
      } else {
        ctx.halt();
      }
    } else if (received.size() == count_) {
      ctx.halt();
    }
  }

 private:
  std::size_t count_;
};

std::vector<std::unique_ptr<NodeProgram>> make_streamers(std::size_t n,
                                                         std::size_t count) {
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (std::size_t i = 0; i < n; ++i) {
    programs.push_back(std::make_unique<Streamer>(count));
  }
  return programs;
}

std::vector<std::int64_t> iota_vector(std::size_t count) {
  std::vector<std::int64_t> expected(count);
  for (std::size_t i = 0; i < count; ++i) expected[i] = static_cast<std::int64_t>(i);
  return expected;
}

FaultPlan lossy_plan(double drop, double corrupt, double duplicate,
                     std::uint64_t seed = 0xFA0175) {
  FaultPlan plan;
  plan.link = FaultRates{drop, corrupt, duplicate};
  plan.seed = seed;
  return plan;
}

TEST(ReliableTransport, PerfectNetworkDeliversExactlyOnceInOrder) {
  Graph g = path_graph(2);
  Engine engine(g, 1, 5);
  engine.set_transport(Transport::kReliable);
  auto programs = make_streamers(2, 30);
  RunResult result = engine.run(programs, 60);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(static_cast<Streamer&>(*programs[1]).received, iota_vector(30));
  EXPECT_EQ(result.retransmissions, 0u);
}

TEST(ReliableTransport, ExactlyOnceInOrderUnderHeavyLoss) {
  Graph g = path_graph(2);
  Engine engine(g, 1, 5);
  engine.set_fault_plan(lossy_plan(0.2, 0.05, 0.1));
  engine.set_transport(Transport::kReliable);
  auto programs = make_streamers(2, 50);
  RunResult result = engine.run(programs, 100);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(static_cast<Streamer&>(*programs[1]).received, iota_vector(50));
  EXPECT_GT(result.dropped_words, 0u);
  EXPECT_GT(result.retransmissions, 0u);
}

TEST(ReliableTransport, SurvivesEveryFaultKindAtOnceOnAWiderGraph) {
  util::Rng topo(5);
  Graph g = random_connected_graph(12, 10, topo);
  Engine engine(g, 2, 5);
  engine.set_fault_plan(lossy_plan(0.15, 0.05, 0.05));
  engine.set_transport(Transport::kReliable);
  auto election = elect_leader(engine);
  EXPECT_TRUE(election.cost.completed);
  EXPECT_EQ(election.leader, g.num_nodes() - 1);  // flood-max picks max id
}

TEST(ReliableTransport, BfsTreeCorrectUnderLoss) {
  util::Rng topo(11);
  Graph g = random_connected_graph(16, 12, topo);
  Engine engine(g, 1, 7);
  engine.set_fault_plan(lossy_plan(0.1, 0.02, 0.05));
  engine.set_transport(Transport::kReliable);
  BfsTree tree = build_bfs_tree(engine, 0);
  EXPECT_TRUE(tree.cost.completed);
  std::vector<std::size_t> truth = g.bfs_distances(0);
  ASSERT_EQ(tree.depth.size(), truth.size());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(tree.depth[v], truth[v]) << "node " << v;
    if (v != 0) {
      EXPECT_EQ(tree.depth[tree.parent[v]] + 1, tree.depth[v]);
    }
  }
}

TEST(ReliableTransport, ReplaysDeterministically) {
  util::Rng topo(13);
  Graph g = random_connected_graph(10, 8, topo);
  auto run = [&] {
    Engine engine(g, 1, 3);
    engine.set_fault_plan(lossy_plan(0.15, 0.03, 0.05));
    engine.set_transport(Transport::kReliable);
    return elect_leader(engine).cost;
  };
  RunResult first = run();
  RunResult second = run();
  EXPECT_EQ(first, second);  // every counter, retransmissions included
  EXPECT_GT(first.retransmissions, 0u);
}

/// Floods two hop-count waves, one from node 0 in round 0 and one from the
/// highest id after three keep_alive rounds, and records every (round,
/// inbox) the node is shown. Both waves can cross an edge in the same
/// round, so it needs B = 2.
class WaveRecorder final : public NodeProgram {
 public:
  using Seen = std::tuple<NodeId, std::int32_t, std::int64_t, std::int64_t>;
  std::vector<std::pair<std::size_t, std::vector<Seen>>> log;

  void on_round(Context& ctx, std::span<const Message> inbox) override {
    std::vector<Seen> seen;
    for (const Message& m : inbox) {
      seen.emplace_back(m.from, m.word.tag, m.word.a, m.word.b);
    }
    log.emplace_back(ctx.round(), std::move(seen));
    auto flood = [&](std::int32_t wave, std::int64_t hops) {
      reached_[wave] = true;
      for (NodeId v : ctx.neighbors()) {
        ctx.send(v, Word{wave, hops, static_cast<std::int64_t>(ctx.id()), false});
      }
    };
    const NodeId last = ctx.num_nodes() - 1;
    if (ctx.id() == 0 && ctx.round() == 0) flood(0, 0);
    if (ctx.id() == last && ctx.round() < 3) ctx.keep_alive();
    if (ctx.id() == last && ctx.round() == 3) flood(1, 0);
    for (const Message& m : inbox) {
      if (!reached_[m.word.tag]) flood(m.word.tag, m.word.a + 1);
    }
  }

 private:
  bool reached_[2] = {false, false};
};

// The synchronizer presents the direct engine's rounds whatever the loss
// rate: every node is shown exactly the (round, inbox) sequence the direct
// transport shows it on a perfect network, inboxes in ascending sender id,
// and the *protocol-level* outcome (here, the BFS depths) is invariant
// across fault plans; only cost counters move.
TEST(ReliableTransport, InnerExecutionInvariantAcrossFaultRates) {
  auto record = [](const Graph& g, Transport transport, double drop) {
    Engine engine(g, 2, 19);
    if (drop > 0) engine.set_fault_plan(lossy_plan(drop, drop / 5, drop / 10));
    engine.set_transport(transport);
    std::vector<std::unique_ptr<NodeProgram>> programs;
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      programs.push_back(std::make_unique<WaveRecorder>());
    }
    EXPECT_TRUE(engine.run(programs, 200).completed);
    std::vector<decltype(WaveRecorder::log)> logs;
    for (const auto& p : programs) logs.push_back(static_cast<WaveRecorder&>(*p).log);
    return logs;
  };
  for (const char* family : {"path", "cycle", "grid", "star", "random", "complete"}) {
    SCOPED_TRACE(family);
    Graph g = apps::make_registry_graph(family, 12, 23);
    auto direct = record(g, Transport::kDirect, 0.0);
    ASSERT_GT(direct[0].size(), 3u);
    EXPECT_EQ(record(g, Transport::kReliable, 0.0), direct);
    EXPECT_EQ(record(g, Transport::kReliable, 0.05), direct);
  }

  util::Rng topo(17);
  Graph g = random_connected_graph(14, 10, topo);
  auto depths = [&](double drop) {
    Engine engine(g, 1, 19);
    if (drop > 0) engine.set_fault_plan(lossy_plan(drop, drop / 5, drop / 10));
    engine.set_transport(Transport::kReliable);
    return build_bfs_tree(engine, 3).depth;
  };
  auto clean = depths(0.0);
  auto lossy = depths(0.2);
  EXPECT_EQ(clean, lossy);
}

// A reliable virtual round costs a constant number of physical rounds, not
// one per hop of diameter: the horizon runs every node through every round,
// so a front moving one hop per round never waits on the idle rest of the
// graph. Fault-free, each app's reliable/direct round ratio stays under 6
// at every depth (4.0-4.5 is what 2-chunk frames, fences and acks cost at
// B = 1).
class FaultFreeRoundRatio : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultFreeRoundRatio, StaysUnderSixAtEveryDepth) {
  for (std::size_t n : {64, 128, 256}) {
    Graph g = apps::make_registry_graph(GetParam(), n, 1);
    for (const char* app : {"leader", "bfs", "downcast", "convergecast", "multibfs"}) {
      SCOPED_TRACE(std::string(app) + " n=" + std::to_string(n));
      apps::NetOptions direct;
      apps::NetOptions reliable;
      reliable.transport = Transport::kReliable;
      apps::AppOutcome base = (*apps::find_app(app))(g, direct);
      apps::AppOutcome out = (*apps::find_app(app))(g, reliable);
      ASSERT_TRUE(base.success);
      ASSERT_TRUE(out.success);
      EXPECT_LE(out.cost.rounds, 6 * base.cost.rounds);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ReliableTransport, FaultFreeRoundRatio,
                         ::testing::Values("path", "cycle", "grid"),
                         [](const auto& info) { return std::string(info.param); });

TEST(ReliableTransport, EveryRegistryAppCompletesOnAPathOf256) {
  Graph g = path_graph(256);
  apps::NetOptions options;
  options.transport = Transport::kReliable;
  for (const apps::RegisteredApp& app : apps::app_registry()) {
    EXPECT_TRUE(app.run(g, options).success) << app.name;
  }
}

TEST(ReliableTransport, StretchedBudgetStillBoundsDivergentRuns) {
  // A crash-stop partner never acks: the sender must retransmit with
  // backoff until the stretched round budget expires, then report failure.
  Graph g = path_graph(2);
  Engine engine(g, 1, 3);
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{1, 0, CrashEvent::kNeverRestarts});
  engine.set_fault_plan(plan);
  ReliableParams params;
  params.round_stretch = 4;
  params.round_slack = 16;
  engine.set_transport(Transport::kReliable, params);
  auto programs = make_streamers(2, 3);
  RunResult result = engine.run(programs, 10);
  EXPECT_FALSE(result.completed);
  EXPECT_GT(result.retransmissions, 0u);
  EXPECT_TRUE(static_cast<Streamer&>(*programs[1]).received.empty());
}

TEST(ReliableTransport, CrashRestartOutageIsBridged) {
  // Node 1 is dark for physical rounds [2, 40); the link layer keeps
  // retransmitting through the outage and completes the stream after the
  // restart — crash-restart looks like a long burst of loss.
  Graph g = path_graph(2);
  Engine engine(g, 1, 3);
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{1, 2, 40});
  engine.set_fault_plan(plan);
  engine.set_transport(Transport::kReliable);
  auto programs = make_streamers(2, 10);
  RunResult result = engine.run(programs, 40);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(static_cast<Streamer&>(*programs[1]).received, iota_vector(10));
  EXPECT_GT(result.retransmissions, 0u);
}

TEST(ReliableTransport, KeepAliveDefersQuiescence) {
  // The wrapper's Context routes keep_alive to the link layer. Node 0 idles
  // on purpose for five virtual rounds, then sends: with keep_alive each
  // silent round raises the horizon to the next one, so every node keeps
  // executing; without it the horizon stays at round 0, no node runs round
  // 5 and the network goes quiet first — the same contract the engine
  // imposes under the direct transport.
  class Sleeper final : public NodeProgram {
   public:
    explicit Sleeper(bool keep_alive) : keep_alive_(keep_alive) {}
    bool delivered = false;
    void on_round(Context& ctx, std::span<const Message> inbox) override {
      if (!inbox.empty()) delivered = true;
      if (ctx.id() != 0) return;
      if (ctx.round() < 5) {
        if (keep_alive_) ctx.keep_alive();
      } else if (ctx.round() == 5) {
        ctx.send(1, Word{3, 1, 0, false});
        ctx.halt();
      }
    }

   private:
    bool keep_alive_;
  };
  for (bool keep_alive : {true, false}) {
    Graph g = path_graph(2);
    Engine engine(g, 1, 3);
    engine.set_fault_plan(lossy_plan(0.2, 0.0, 0.0));
    engine.set_transport(Transport::kReliable);
    std::vector<std::unique_ptr<NodeProgram>> programs;
    programs.push_back(std::make_unique<Sleeper>(keep_alive));
    programs.push_back(std::make_unique<Sleeper>(keep_alive));
    RunResult result = engine.run(programs, 50);
    EXPECT_TRUE(result.completed) << keep_alive;
    EXPECT_EQ(static_cast<Sleeper&>(*programs[1]).delivered, keep_alive);
  }
}

TEST(ReliableTransport, RespectsPhysicalBandwidth) {
  Graph g = path_graph(2);
  Engine engine(g, 3, 5);
  engine.set_fault_plan(lossy_plan(0.1, 0.0, 0.0));
  engine.set_transport(Transport::kReliable);
  auto programs = make_streamers(2, 20);
  RunResult result = engine.run(programs, 80);
  EXPECT_TRUE(result.completed);
  // Acks + chunks + retransmissions all share the B-word edge budget.
  EXPECT_LE(result.max_edge_words, 3u);
}

TEST(ReliableTransport, InnerCongestionViolationStillThrows) {
  class DoubleSend final : public NodeProgram {
    void on_round(Context& ctx, std::span<const Message>) override {
      if (ctx.round() == 0 && ctx.id() == 0) {
        ctx.send(1, Word{});
        ctx.send(1, Word{});  // over the virtual per-round edge budget
      }
    }
  };
  Graph g = path_graph(2);
  Engine engine(g, 1, 3);
  engine.set_transport(Transport::kReliable);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<DoubleSend>());
  programs.push_back(std::make_unique<DoubleSend>());
  EXPECT_THROW(engine.run(programs, 10), std::runtime_error);
}

// A full application — leader election, BFS-tree construction, n-source
// BFS, and a pipelined max-convergecast — run end-to-end over the reliable
// transport on a lossy network, and still producing the exact diameter and
// radius.
TEST(ReliableTransport, EccentricityAppExactUnderLoss) {
  Graph g = binary_tree(15);
  apps::NetOptions options;
  options.seed = 11;
  options.fault_plan.link.drop = 0.05;
  options.fault_plan.link.corrupt = 0.01;
  options.fault_plan.seed = 77;
  options.transport = Transport::kReliable;
  auto diameter = apps::diameter_classical(g, options);
  EXPECT_EQ(diameter.value, g.diameter());
  EXPECT_GT(diameter.cost.retransmissions, 0u);
  auto radius = apps::radius_classical(g, options);
  EXPECT_EQ(radius.value, g.radius());
}

}  // namespace
}  // namespace qcongest::net
