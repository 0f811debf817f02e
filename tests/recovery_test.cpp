// Crash-with-amnesia recovery: checkpoint integrity and store semantics,
// the livelock watchdog's diagnoses, and the equivalence guarantees of the
// two recovery paths — the engine's bounded rollback under the direct
// transport and the reliable transport's neighbor-assisted replay.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/bfs.hpp"
#include "src/net/engine.hpp"
#include "src/net/fault.hpp"
#include "src/net/generators.hpp"
#include "src/net/multi_bfs.hpp"
#include "src/recover/checkpoint.hpp"
#include "src/recover/watchdog.hpp"

namespace qcongest::recover {
namespace {

using net::CrashEvent;
using net::Engine;
using net::FaultPlan;
using net::Graph;
using net::Message;
using net::NodeId;
using net::NodeProgram;
using net::RunResult;
using net::Word;

// --- Snapshot / CheckpointStore / CheckpointPolicy ----------------------

Snapshot make_snapshot(std::vector<std::int64_t> words) {
  Snapshot snap;
  snap.version = 1;
  snap.round = 7;
  snap.words = std::move(words);
  snap.seal();
  return snap;
}

TEST(Snapshot, SealedSnapshotIsIntact) {
  Snapshot snap = make_snapshot({1, -2, 3});
  EXPECT_TRUE(snap.intact());
  Snapshot empty = make_snapshot({});
  EXPECT_TRUE(empty.intact());
}

TEST(Snapshot, DetectsWordCorruption) {
  Snapshot snap = make_snapshot({1, -2, 3});
  snap.words[1] ^= 1;
  EXPECT_FALSE(snap.intact());
}

TEST(Snapshot, DigestCoversRoundAndVersion) {
  Snapshot snap = make_snapshot({4, 5});
  snap.round = 8;
  EXPECT_FALSE(snap.intact());
  snap.round = 7;
  EXPECT_TRUE(snap.intact());
  snap.version = 2;
  EXPECT_FALSE(snap.intact());
}

TEST(CheckpointStore, PutSealsAndLatestReturnsIt) {
  CheckpointStore store;
  store.reset(3);
  EXPECT_EQ(store.latest(1), nullptr);
  EXPECT_EQ(store.stored(), 0u);

  Snapshot snap;
  snap.version = 1;
  snap.round = 4;
  snap.words = {10, 11};
  store.put(1, std::move(snap));
  ASSERT_NE(store.latest(1), nullptr);
  EXPECT_TRUE(store.latest(1)->intact());
  EXPECT_EQ(store.latest(1)->round, 4u);
  EXPECT_EQ(store.stored(), 1u);

  // A newer checkpoint replaces the old one.
  Snapshot newer;
  newer.version = 1;
  newer.round = 9;
  newer.words = {12};
  store.put(1, std::move(newer));
  EXPECT_EQ(store.latest(1)->round, 9u);
  EXPECT_EQ(store.stored(), 1u);

  store.reset(3);
  EXPECT_EQ(store.latest(1), nullptr);
}

TEST(CheckpointPolicy, DueSchedule) {
  CheckpointPolicy none;  // every_rounds = 0: phase-start only
  EXPECT_FALSE(none.periodic());
  EXPECT_FALSE(none.due(0));
  EXPECT_FALSE(none.due(5));

  CheckpointPolicy every3;
  every3.every_rounds = 3;
  EXPECT_TRUE(every3.periodic());
  EXPECT_FALSE(every3.due(0));  // the phase-start checkpoint covers round 0
  EXPECT_FALSE(every3.due(2));
  EXPECT_TRUE(every3.due(3));
  EXPECT_TRUE(every3.due(6));
  EXPECT_FALSE(every3.due(7));
}

// --- Watchdog unit tests (callbacks driven directly) --------------------

TEST(Watchdog, RetransmitStormNamesSuspects) {
  Graph g = net::path_graph(2);
  Engine engine(g);
  Watchdog dog;
  WatchdogConfig config;
  config.stall_rounds = 4;
  dog.set_config(config);
  dog.on_run_begin(engine);

  // Node 1 starts swallowing words at round 1 and never absolves itself.
  for (std::size_t r = 1; r < 5; ++r) {
    dog.on_send(r, 0, 1, Word{}, 1);
    dog.on_delivery(r, 0, 1, net::DeliveryFate::kDroppedCrashed, false, false);
    if (r < 4) {
      EXPECT_NO_THROW(dog.on_round_end(r));
    }
  }
  try {
    dog.on_round_end(5);  // suspect since round 1: 5 - 1 >= stall_rounds
    FAIL() << "expected LivelockError";
  } catch (const LivelockError& e) {
    EXPECT_EQ(e.kind(), LivelockError::Kind::kRetransmitStorm);
    EXPECT_EQ(e.round(), 5u);
    EXPECT_EQ(e.suspects(), (std::vector<NodeId>{1}));
    EXPECT_NE(std::string(e.what()).find("retransmit storm"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("suspected dead: 1"), std::string::npos);
  }
}

TEST(Watchdog, BystanderTrafficDoesNotMaskAStorm) {
  // The failure mode that breaks a run-wide no-delivery clock: distant live
  // nodes keep polling the dead node's neighbors and those polls deliver
  // fine forever. The per-suspect clock must fire regardless.
  Graph g = net::path_graph(3);
  Engine engine(g);
  Watchdog dog;
  WatchdogConfig config;
  config.stall_rounds = 4;
  dog.set_config(config);
  dog.on_run_begin(engine);
  for (std::size_t r = 1; r < 6; ++r) {
    dog.on_delivery(r, 0, 2, net::DeliveryFate::kDelivered, false, false);
    dog.on_delivery(r, 0, 1, net::DeliveryFate::kDroppedCrashed, false, false);
    if (r + 1 < 6) {
      EXPECT_NO_THROW(dog.on_round_end(r));
    }
  }
  try {
    dog.on_round_end(5);
    FAIL() << "expected LivelockError despite the live-live deliveries";
  } catch (const LivelockError& e) {
    EXPECT_EQ(e.kind(), LivelockError::Kind::kRetransmitStorm);
    EXPECT_EQ(e.suspects(), (std::vector<NodeId>{1}));
  }
}

TEST(Watchdog, QuiescentSpinWhenNothingIsSent) {
  Graph g = net::path_graph(2);
  Engine engine(g);
  Watchdog dog;
  WatchdogConfig config;
  config.stall_rounds = 3;
  dog.set_config(config);
  dog.on_run_begin(engine);
  dog.on_round_end(0);
  dog.on_round_end(1);
  try {
    dog.on_round_end(3);
    FAIL() << "expected LivelockError";
  } catch (const LivelockError& e) {
    EXPECT_EQ(e.kind(), LivelockError::Kind::kQuiescentSpin);
    EXPECT_TRUE(e.suspects().empty());
    EXPECT_NE(std::string(e.what()).find("no suspected-dead nodes"),
              std::string::npos);
  }
}

TEST(Watchdog, SuccessfulDeliveryAbsolvesASuspect) {
  // A restart heals the node: a delivered word removes it from the suspect
  // set, so a crash window shorter than stall_rounds never trips.
  Graph g = net::path_graph(2);
  Engine engine(g);
  Watchdog dog;
  WatchdogConfig config;
  config.stall_rounds = 3;
  dog.set_config(config);
  dog.on_run_begin(engine);
  for (std::size_t r = 0; r < 20; ++r) {
    if (r % 2 == 0) {
      dog.on_delivery(r, 0, 1, net::DeliveryFate::kDroppedCrashed, false, false);
    } else {
      dog.on_delivery(r, 0, 1, net::DeliveryFate::kDelivered, false, false);
    }
    EXPECT_NO_THROW(dog.on_round_end(r));
  }
}

TEST(Watchdog, DeadlineExceeded) {
  Graph g = net::path_graph(2);
  Engine engine(g);
  Watchdog dog;
  WatchdogConfig config;
  config.stall_rounds = 0;  // disabled: only the deadline can fire
  config.deadline_rounds = 5;
  dog.set_config(config);
  dog.on_run_begin(engine);
  for (std::size_t r = 0; r < 4; ++r) {
    dog.on_delivery(r, 0, 1, net::DeliveryFate::kDelivered, false, false);
    EXPECT_NO_THROW(dog.on_round_end(r));
  }
  EXPECT_THROW(dog.on_round_end(4), LivelockError);
}

// --- Direct-transport recovery: bounded rollback ------------------------

/// Every node floods a deterministic token to its neighbors for a fixed
/// number of rounds and accumulates everything it hears. The whole evolving
/// state is one word, so a checkpoint-every-round policy makes an amnesia
/// restart land exactly on the with-state restart trajectory.
class RingCounter final : public NodeProgram {
 public:
  explicit RingCounter(std::size_t rounds) : rounds_(rounds) {}

  std::int64_t sum() const { return sum_; }

  void on_round(net::Context& ctx, std::span<const Message> inbox) override {
    for (const Message& m : inbox) sum_ += m.word.a;
    if (ctx.round() < rounds_) {
      auto token = static_cast<std::int64_t>(ctx.id() * 100 + ctx.round());
      for (NodeId u : ctx.neighbors()) ctx.send(u, Word{1, token, 0, false});
    }
  }

  bool snapshot(std::vector<std::int64_t>& out) const override {
    out.push_back(sum_);
    return true;
  }

  bool restore(std::uint32_t version, std::span<const std::int64_t> words) override {
    if (version != 1 || words.size() != 1) return false;
    sum_ = words[0];
    return true;
  }

  std::uint32_t state_version() const override { return 1; }

 private:
  std::size_t rounds_;  // qlint-allow(unsnapshotted-state): factory-reconstructed config
  std::int64_t sum_ = 0;
};

struct RingRun {
  RunResult result;
  std::vector<std::int64_t> sums;
};

constexpr std::size_t kNodes = 5;
constexpr std::size_t kRounds = 12;

RingRun run_ring(const FaultPlan& plan, bool recovery_enabled) {
  Graph g = net::cycle_graph(kNodes);
  Engine engine(g, 1, 11);
  engine.set_fault_plan(plan);
  if (recovery_enabled) {
    RecoveryPolicy recovery;
    recovery.enabled = true;
    recovery.checkpoint.every_rounds = 1;
    engine.set_recovery(recovery);
    engine.set_program_factory(
        [](NodeId) { return std::make_unique<RingCounter>(kRounds); });
  }
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (std::size_t v = 0; v < kNodes; ++v) {
    programs.push_back(std::make_unique<RingCounter>(kRounds));
  }
  RingRun run;
  run.result = engine.run(programs, 64);
  for (std::size_t v = 0; v < kNodes; ++v) {
    run.sums.push_back(static_cast<RingCounter&>(*programs[v]).sum());
  }
  return run;
}

TEST(RecoveryDirect, AmnesiaWithPerRoundCheckpointsMatchesWithStateRestart) {
  FaultPlan with_state;
  with_state.crashes.push_back(CrashEvent{2, 4, 7});
  FaultPlan amnesia = with_state;
  amnesia.crashes[0].amnesia = true;

  RingRun baseline = run_ring(with_state, /*recovery_enabled=*/false);
  RingRun recovered = run_ring(amnesia, /*recovery_enabled=*/true);

  ASSERT_TRUE(baseline.result.completed);
  ASSERT_TRUE(recovered.result.completed);
  // A node that crashed with its state intact and a node that lost its state
  // but restored the last per-round checkpoint resume identically.
  EXPECT_EQ(baseline.sums, recovered.sums);
  EXPECT_EQ(baseline.result.rounds, recovered.result.rounds);
  // The recovery tax is honest in both directions: zero when no recovery
  // machinery ran, nonzero when the amnesia restart used it.
  EXPECT_EQ(baseline.result.recovery_rounds, 0u);
  EXPECT_EQ(baseline.result.recovery_words, 0u);
  EXPECT_GE(recovered.result.recovery_rounds, 1u);
  // The direct-transport path restores from the local checkpoint store — no
  // state-transfer words cross any edge.
  EXPECT_EQ(recovered.result.recovery_words, 0u);
}

TEST(RecoveryDirect, AmnesiaWithoutRecoveryDegradesToCrashStop) {
  FaultPlan amnesia;
  amnesia.crashes.push_back(CrashEvent{2, 4, 7});
  amnesia.crashes[0].amnesia = true;
  FaultPlan stop;
  stop.crashes.push_back(CrashEvent{2, 4, CrashEvent::kNeverRestarts});

  RingRun wiped = run_ring(amnesia, /*recovery_enabled=*/false);
  RingRun stopped = run_ring(stop, /*recovery_enabled=*/false);

  // With no recovery path the restart is moot: the node stays silent and
  // deaf forever, exactly like a crash-stop at the same round.
  EXPECT_EQ(wiped.sums, stopped.sums);
  EXPECT_EQ(wiped.result, stopped.result);
  EXPECT_EQ(wiped.result.recovery_rounds, 0u);
  EXPECT_EQ(wiped.result.recovery_words, 0u);
  EXPECT_EQ(wiped.result.crashed_nodes, 1u);
}

TEST(RecoveryDirect, MultiSourceBfsAmnesiaMidRunKeepsExactDistances) {
  // The star's center relays every leaf's token. After round 1 it holds each
  // source's final distance and a queue of tokens the leaves still need,
  // while everything sent to it is a worse offer, so the window's dropped
  // arrivals are redundant and only the restored queue can finish the BFS.
  const Graph g = net::star_graph(16);
  const std::size_t n = g.num_nodes();
  std::vector<NodeId> sources(n);
  for (NodeId v = 0; v < n; ++v) sources[v] = v;

  auto run = [&](bool with_fault) {
    Engine engine(g, 1, 13);
    if (with_fault) {
      FaultPlan plan;
      plan.crashes.push_back(CrashEvent{0, 4, 8});
      plan.crashes[0].amnesia = true;
      engine.set_fault_plan(plan);
      RecoveryPolicy recovery;
      recovery.enabled = true;
      recovery.checkpoint.every_rounds = 1;
      engine.set_recovery(recovery);
    }
    return net::multi_source_bfs(engine, sources, n);
  };

  net::MultiBfsResult clean = run(false);
  net::MultiBfsResult recovered = run(true);
  ASSERT_TRUE(recovered.cost.completed);
  ASSERT_GT(clean.cost.rounds, 8u);  // the crash lands mid-BFS
  EXPECT_EQ(recovered.dist, clean.dist);
  EXPECT_EQ(recovered.parent, clean.parent);
  for (std::size_t i = 0; i < n; ++i) {
    const auto truth = g.bfs_distances(sources[i]);
    for (NodeId v = 0; v < n; ++v) EXPECT_EQ(recovered.dist[v][i], truth[v]);
  }
  EXPECT_EQ(recovered.cost.crashed_nodes, 1u);
  EXPECT_GE(recovered.cost.recovery_rounds, 1u);
  EXPECT_EQ(recovered.cost.recovery_words, 0u);
}

// --- Reliable-transport recovery: neighbor-assisted replay --------------

TEST(RecoveryReliable, BfsTreeSurvivesAmnesiaWithNonzeroTax) {
  util::Rng topo(17);
  Graph g = net::random_connected_graph(10, 6, topo);

  auto build = [&](bool with_fault) {
    Engine engine(g, 1, 23);
    engine.set_transport(net::Transport::kReliable);
    if (with_fault) {
      FaultPlan plan;
      plan.crashes.push_back(CrashEvent{3, 10, 40});
      plan.crashes[0].amnesia = true;
      engine.set_fault_plan(plan);
      RecoveryPolicy recovery;
      recovery.enabled = true;
      recovery.checkpoint.every_rounds = 2;
      engine.set_recovery(recovery);
    }
    return net::build_bfs_tree(engine, 0);
  };

  net::BfsTree clean = build(false);
  net::BfsTree recovered = build(true);
  ASSERT_TRUE(clean.cost.completed);
  ASSERT_TRUE(recovered.cost.completed);
  // The reliable transport makes virtual rounds loss-free, and the amnesia
  // recovery replays the node back onto its pre-crash trajectory — the tree
  // must be exactly the fault-free one.
  EXPECT_EQ(clean.parent, recovered.parent);
  EXPECT_EQ(clean.depth, recovered.depth);
  EXPECT_EQ(clean.children, recovered.children);
  EXPECT_EQ(clean.cost.recovery_words, 0u);
  EXPECT_EQ(clean.cost.recovery_rounds, 0u);
  // The restart used the recovery machinery (the transfer word count can be
  // zero here when the crash lands exactly on a fresh checkpoint — the
  // ring test below forces a nonempty replay window).
  EXPECT_GT(recovered.cost.recovery_rounds, 0u);
}

TEST(RecoveryReliable, EccentricityEchoSurvivesAmnesiaWithNonzeroTax) {
  // Lemma 20 under an amnesia wipe: the crash window repeats in every engine
  // run, so it lands in the BFS phase and again in the echo phase, where the
  // echo's program factory and EccEchoProgram's snapshot/restore rebuild the
  // victim. Every source must still learn its exact eccentricity.
  util::Rng topo(31);
  Graph g = net::random_connected_graph(12, 8, topo);
  const std::vector<NodeId> sources{0, 5, 11};

  auto run = [&](bool with_fault) {
    Engine engine(g, 1, 37);
    engine.set_transport(net::Transport::kReliable);
    if (with_fault) {
      FaultPlan plan;
      plan.crashes.push_back(CrashEvent{4, 10, 40});
      plan.crashes[0].amnesia = true;
      engine.set_fault_plan(plan);
      RecoveryPolicy recovery;
      recovery.enabled = true;
      recovery.checkpoint.every_rounds = 2;
      engine.set_recovery(recovery);
    }
    return net::multi_source_eccentricities(engine, sources, g.num_nodes());
  };

  net::EccentricityEchoResult clean = run(false);
  net::EccentricityEchoResult recovered = run(true);
  EXPECT_EQ(clean.eccentricity, recovered.eccentricity);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(recovered.eccentricity[i], g.eccentricity(sources[i])) << sources[i];
  }
  EXPECT_EQ(clean.echo_cost.recovery_rounds, 0u);
  // The echo phase itself paid for a recovery, not just the BFS before it.
  EXPECT_GT(recovered.echo_cost.recovery_rounds, 0u);
}

constexpr std::size_t kReliableRounds = 20;

TEST(RecoveryReliable, NeighborAssistedReplayPaysANonzeroWordTax) {
  // Phase-start checkpoints only: an amnesia crash mid-run forces a replay
  // of every executed virtual round, which needs the neighbors' logged
  // sends — a guaranteed-nonempty state transfer.
  auto run = [&](bool with_fault) {
    Graph g = net::cycle_graph(kNodes);
    Engine engine(g, 1, 29);
    engine.set_transport(net::Transport::kReliable);
    if (with_fault) {
      FaultPlan plan;
      plan.crashes.push_back(CrashEvent{2, 30, 60});
      plan.crashes[0].amnesia = true;
      engine.set_fault_plan(plan);
      RecoveryPolicy recovery;
      recovery.enabled = true;  // at_phase_start only: full replay on wipe
      engine.set_recovery(recovery);
      engine.set_program_factory(
          [](NodeId) { return std::make_unique<RingCounter>(kReliableRounds); });
    }
    std::vector<std::unique_ptr<NodeProgram>> programs;
    for (std::size_t v = 0; v < kNodes; ++v) {
      programs.push_back(std::make_unique<RingCounter>(kReliableRounds));
    }
    RingRun out;
    out.result = engine.run(programs, kReliableRounds + 8);
    for (std::size_t v = 0; v < kNodes; ++v) {
      out.sums.push_back(static_cast<RingCounter&>(*programs[v]).sum());
    }
    return out;
  };

  RingRun clean = run(false);
  RingRun recovered = run(true);
  ASSERT_TRUE(clean.result.completed);
  ASSERT_TRUE(recovered.result.completed);
  // Replay re-derives the exact pre-crash trajectory: final states match the
  // fault-free run word for word.
  EXPECT_EQ(clean.sums, recovered.sums);
  EXPECT_EQ(clean.result.recovery_words, 0u);
  EXPECT_GT(recovered.result.recovery_rounds, 0u);
  EXPECT_GT(recovered.result.recovery_words, 0u);
}

}  // namespace
}  // namespace qcongest::recover
