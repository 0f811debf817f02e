// Failure injection: misbehaving node programs must be caught loudly by the
// engine's invariant checks, never silently absorbed — the property that
// lets us trust every measured number.

#include <gtest/gtest.h>

#include <memory>

#include "src/apps/net_options.hpp"
#include "src/net/bfs.hpp"
#include "src/net/engine.hpp"
#include "src/net/fault.hpp"
#include "src/net/generators.hpp"
#include "src/recover/checkpoint.hpp"
#include "src/recover/watchdog.hpp"

namespace qcongest::net {
namespace {

class Flooder final : public NodeProgram {
 public:
  explicit Flooder(std::size_t words_per_round) : words_(words_per_round) {}
  void on_round(Context& ctx, std::span<const Message>) override {
    if (ctx.round() > 2) return;
    for (NodeId u : ctx.neighbors()) {
      for (std::size_t w = 0; w < words_; ++w) ctx.send(u, Word{1, 0, 0, false});
    }
  }

 private:
  std::size_t words_;
};

TEST(FailureInjection, OverBudgetSenderIsRejected) {
  Graph g = cycle_graph(5);
  for (std::size_t bandwidth : {1u, 3u}) {
    Engine engine(g, bandwidth, 1);
    std::vector<std::unique_ptr<NodeProgram>> ok, bad;
    for (int i = 0; i < 5; ++i) {
      ok.push_back(std::make_unique<Flooder>(bandwidth));
      bad.push_back(std::make_unique<Flooder>(bandwidth + 1));
    }
    EXPECT_NO_THROW(engine.run(ok, 20));
    EXPECT_THROW(engine.run(bad, 20), std::runtime_error);
  }
}

class HaltsThenGetsMail final : public NodeProgram {
 public:
  void on_round(Context& ctx, std::span<const Message>) override {
    if (ctx.id() == 1 && ctx.round() == 0) {
      ctx.halt();  // halts while node 0's message is already in flight
      return;
    }
    if (ctx.id() == 0 && ctx.round() == 0) ctx.send(1, Word{1, 0, 0, false});
  }
};

TEST(FailureInjection, MessageToHaltedNodeIsAnError) {
  Graph g = path_graph(2);
  Engine engine(g, 1, 1);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<HaltsThenGetsMail>());
  programs.push_back(std::make_unique<HaltsThenGetsMail>());
  EXPECT_THROW(engine.run(programs, 10), std::logic_error);
}

class ImpersonatingSender final : public NodeProgram {
 public:
  void on_round(Context& ctx, std::span<const Message>) override {
    if (ctx.id() == 0 && ctx.round() == 0) {
      stolen_ = &ctx;  // leak the context to another node's turn
    }
    if (ctx.id() == 1 && ctx.round() == 0 && stolen_ != nullptr) {
      // Sending through node 0's context from node 1's turn must be caught.
      EXPECT_THROW(stolen_->send(1, Word{}), std::logic_error);
    }
  }

 private:
  static Context* stolen_;
};
Context* ImpersonatingSender::stolen_ = nullptr;

TEST(FailureInjection, ContextCannotBeUsedOutOfTurn) {
  Graph g = path_graph(2);
  Engine engine(g, 1, 1);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<ImpersonatingSender>());
  programs.push_back(std::make_unique<ImpersonatingSender>());
  engine.run(programs, 5);
}

TEST(FailureInjection, RoundLimitReportsIncomplete) {
  // An endless ping-pong must hit the round limit with completed = false
  // and rounds equal to the cap's last sending pass.
  class PingPong final : public NodeProgram {
   public:
    void on_round(Context& ctx, std::span<const Message> inbox) override {
      if (ctx.id() == 0 && ctx.round() == 0) {
        ctx.send(1, Word{1, 0, 0, false});
        return;
      }
      for (const Message& m : inbox) ctx.send(m.from, m.word);
    }
  };
  Graph g = path_graph(2);
  Engine engine(g, 1, 1);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<PingPong>());
  programs.push_back(std::make_unique<PingPong>());
  RunResult result = engine.run(programs, 25);
  EXPECT_FALSE(result.completed);
  EXPECT_GE(result.rounds, 25u);
}

TEST(FailureInjection, WrongProgramCountRejected) {
  Graph g = path_graph(3);
  Engine engine(g, 1, 1);
  std::vector<std::unique_ptr<NodeProgram>> two;
  two.push_back(std::make_unique<Flooder>(1));
  two.push_back(std::make_unique<Flooder>(1));
  EXPECT_THROW(engine.run(two, 10), std::invalid_argument);
}

TEST(FailureInjection, CutSpecValidation) {
  Graph g = path_graph(4);
  Engine engine(g, 1, 1);
  EXPECT_THROW(engine.track_cut(std::vector<bool>(3, false)), std::invalid_argument);
  EXPECT_NO_THROW(engine.track_cut(std::vector<bool>(4, false)));
  EXPECT_NO_THROW(engine.track_cut({}));
}

// --- The amnesia-crash matrix -------------------------------------------
//
// One protocol (flood-max leader election over the reliable transport), one
// crash schedule on node 3, four failure severities. The matrix pins down
// the semantics boundary: state survives -> full recovery for free; state
// lost but checkpointed -> full recovery at a measured tax; state lost and
// unrecoverable -> the node is dead and the watchdog says so.

struct MatrixRun {
  NodeId leader = 0;
  RunResult cost;
};

MatrixRun run_election(const FaultPlan& plan, bool recovery_enabled,
                       recover::Watchdog* watchdog) {
  util::Rng topo(41);
  Graph g = random_connected_graph(9, 5, topo);
  Engine engine(g, 1, 37);
  engine.set_transport(Transport::kReliable);
  engine.set_fault_plan(plan);
  if (recovery_enabled) {
    recover::RecoveryPolicy recovery;
    recovery.enabled = true;
    recovery.checkpoint.every_rounds = 3;
    engine.set_recovery(recovery);
  }
  engine.set_observers({watchdog});
  MatrixRun run;
  auto election = elect_leader(engine);
  run.leader = election.leader;
  run.cost = election.cost;
  return run;
}

FaultPlan amnesia_window_plan(std::size_t crash, std::size_t restart, bool amnesia) {
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{3, crash, restart});
  plan.crashes[0].amnesia = amnesia;
  return plan;
}

TEST(AmnesiaMatrix, RestartWithStateRecoversForFree) {
  MatrixRun run = run_election(amnesia_window_plan(12, 48, false), false, nullptr);
  EXPECT_TRUE(run.cost.completed);
  EXPECT_EQ(run.leader, 8u);
  EXPECT_EQ(run.cost.crashed_nodes, 1u);
  EXPECT_EQ(run.cost.recovery_words, 0u);
  EXPECT_EQ(run.cost.recovery_rounds, 0u);
}

TEST(AmnesiaMatrix, AmnesiaWithCheckpointsRecoversAtATax) {
  MatrixRun baseline = run_election(amnesia_window_plan(12, 48, false), false, nullptr);
  MatrixRun run = run_election(amnesia_window_plan(12, 48, true), true, nullptr);
  EXPECT_TRUE(run.cost.completed);
  // Identical final output as the with-state restart of the same schedule.
  EXPECT_EQ(run.leader, baseline.leader);
  EXPECT_EQ(run.cost.crashed_nodes, 1u);
  // The tax is honest: the amnesia run paid recovery rounds, the with-state
  // run did not (its counters are asserted zero above).
  EXPECT_GT(run.cost.recovery_rounds, 0u);
}

TEST(AmnesiaMatrix, AmnesiaWithoutRecoveryIsDiagnosedAsDead) {
  recover::Watchdog watchdog(recover::WatchdogConfig{/*stall_rounds=*/96,
                                                     /*deadline_rounds=*/0});
  try {
    run_election(amnesia_window_plan(12, 48, true), false, &watchdog);
    FAIL() << "expected LivelockError: the wiped node can never rejoin";
  } catch (const recover::LivelockError& e) {
    EXPECT_EQ(e.kind(), recover::LivelockError::Kind::kRetransmitStorm);
    EXPECT_EQ(e.suspects(), (std::vector<NodeId>{3}));
  }
}

TEST(AmnesiaMatrix, NeverRestartingCrashIsDiagnosedNotHung) {
  recover::Watchdog watchdog(recover::WatchdogConfig{/*stall_rounds=*/96,
                                                     /*deadline_rounds=*/0});
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{3, 12, CrashEvent::kNeverRestarts});
  try {
    run_election(plan, false, &watchdog);
    FAIL() << "expected LivelockError instead of burning the round budget";
  } catch (const recover::LivelockError& e) {
    EXPECT_EQ(e.kind(), recover::LivelockError::Kind::kRetransmitStorm);
    EXPECT_GE(e.round(), 96u);  // the stall clock ran after the last delivery
    EXPECT_EQ(e.suspects(), (std::vector<NodeId>{3}));
    EXPECT_NE(std::string(e.what()).find("suspected dead: 3"), std::string::npos);
  }
}

TEST(AmnesiaMatrix, WatchdogThrowsAfterEveryOtherTap) {
  // NetOptions puts the watchdog last on the observer list, so the round it
  // gives up on has reached the metrics tap and the observer before the
  // throw: every report of the aborted run ends on the error's round.
  class LastRoundEnd final : public EngineObserver {
   public:
    std::size_t round = 0;
    void on_round_end(std::size_t r) override { round = r; }
  };
  recover::Watchdog watchdog(recover::WatchdogConfig{/*stall_rounds=*/96,
                                                     /*deadline_rounds=*/0});
  obs::RoundProfiler profiler;
  LastRoundEnd recorder;
  apps::NetOptions options;
  options.transport = Transport::kReliable;
  options.fault_plan.crashes.push_back(CrashEvent{3, 12, CrashEvent::kNeverRestarts});
  options.metrics = &profiler;
  options.observer = &recorder;
  options.watchdog = &watchdog;
  util::Rng topo(41);
  Graph g = random_connected_graph(9, 5, topo);
  Engine engine(g, 1, 37);
  options.configure(engine);
  try {
    (void)elect_leader(engine);
    FAIL() << "expected LivelockError";
  } catch (const recover::LivelockError& e) {
    EXPECT_EQ(recorder.round, e.round());
    // The aborted run's automatic span starts at its round 0 and stays open;
    // its length stops at the last on_round_end the profiler heard.
    ASSERT_FALSE(profiler.phases().empty());
    EXPECT_EQ(profiler.phases().back().rounds, e.round() + 1);
  }
}

}  // namespace
}  // namespace qcongest::net
