#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/check/quantum_checks.hpp"
#include "src/check/verifier.hpp"
#include "src/net/engine.hpp"
#include "src/net/generators.hpp"
#include "src/net/violation.hpp"
#include "src/quantum/circuit.hpp"
#include "src/quantum/sparse_statevector.hpp"
#include "src/quantum/statevector.hpp"

namespace qcongest::check {
namespace {

using net::Context;
using net::Engine;
using net::Graph;
using net::Message;
using net::NodeId;
using net::NodeProgram;
using net::Word;

/// Floods a token from node 0; a well-behaved protocol for clean-run tests.
class Flood final : public NodeProgram {
 public:
  void on_round(Context& ctx, std::span<const Message> inbox) override {
    if (ctx.round() == 0 && ctx.id() == 0 && !seen_) {
      seen_ = true;
      for (NodeId u : ctx.neighbors()) ctx.send(u, Word{1, 7, 0, false});
      return;
    }
    for (const Message& m : inbox) {
      if (m.word.tag == 1 && !seen_) {
        seen_ = true;
        for (NodeId u : ctx.neighbors()) {
          if (u != m.from) ctx.send(u, Word{1, m.word.a, 0, false});
        }
      }
    }
  }

 private:
  bool seen_ = false;
};

/// Sends two words down the same unit-bandwidth edge in round 0.
class OverBudget final : public NodeProgram {
 public:
  void on_round(Context& ctx, std::span<const Message>) override {
    if (ctx.round() == 0 && ctx.id() == 0) {
      ctx.send(1, Word{});
      ctx.send(1, Word{});
    }
  }
};

std::vector<std::unique_ptr<NodeProgram>> make_programs(std::size_t n, auto factory) {
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (std::size_t i = 0; i < n; ++i) programs.push_back(factory());
  return programs;
}

bool has_kind(const Verifier& v, InvariantKind kind) {
  for (const Violation& violation : v.violations()) {
    if (violation.kind == kind) return true;
  }
  return false;
}

/// Run `programs` the way chaos_run does: an exception aborts the run and
/// goes to the verifier, which records it if it is a model rule.
net::RunResult run_observed(Engine& engine, Verifier& verifier,
                            std::vector<std::unique_ptr<NodeProgram>>& programs,
                            std::size_t max_rounds) {
  try {
    return engine.run(programs, max_rounds);
  } catch (const std::exception& e) {
    verifier.abandon_run(e);
    return net::RunResult{};
  }
}

TEST(Verifier, CleanRunHasNoViolations) {
  Graph g = net::path_graph(5);
  Verifier verifier;
  Engine engine(g, /*bandwidth_words=*/1, /*seed=*/3);
  engine.set_observers({&verifier});
  auto programs = make_programs(5, [] { return std::make_unique<Flood>(); });
  auto result = run_observed(engine, verifier, programs, 20);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(verifier.ok()) << verifier.report();
  EXPECT_EQ(verifier.runs_verified(), 1u);
  EXPECT_NE(verifier.report().find("all invariants held"), std::string::npos);
}

TEST(Verifier, CleanRunUnderFaultsConserved) {
  // Fault-counter conservation: with an aggressive drop/corrupt/duplicate
  // lottery, sent must still equal delivered + dropped and every RunResult
  // counter must match the observer's independent tally.
  Graph g = net::path_graph(4);
  Verifier verifier;
  Engine engine(g, /*bandwidth_words=*/1, /*seed=*/11);
  engine.set_observers({&verifier});
  net::FaultPlan plan;
  plan.link = net::FaultRates{0.3, 0.2, 0.2};
  engine.set_fault_plan(plan);
  auto programs = make_programs(4, [] { return std::make_unique<Flood>(); });
  (void)run_observed(engine, verifier, programs, 20);
  EXPECT_EQ(verifier.runs_verified(), 1u);
  EXPECT_TRUE(verifier.ok()) << verifier.report();
}

TEST(Verifier, ReliableTransportRetransmissionsAccounted) {
  Graph g = net::path_graph(3);
  Verifier verifier;
  Engine engine(g, /*bandwidth_words=*/1, /*seed=*/5);
  engine.set_observers({&verifier});
  net::FaultPlan plan;
  plan.link = net::FaultRates{0.3, 0.0, 0.0};
  engine.set_fault_plan(plan);
  engine.set_transport(net::Transport::kReliable);
  auto programs = make_programs(3, [] { return std::make_unique<Flood>(); });
  auto result = run_observed(engine, verifier, programs, 10);
  EXPECT_TRUE(verifier.ok()) << verifier.report();
  EXPECT_GT(result.retransmissions + result.dropped_words, 0u);
}

TEST(Verifier, CatchesOverBudgetSend) {
  // The engine enforces the bandwidth rule by throwing; the catch site's
  // abandon_run(e) is what turns the exception into a violation with
  // provenance (chaos_run's sweep and recovery lane do exactly this).
  Graph g = net::path_graph(2);
  Verifier verifier;
  Engine engine(g, /*bandwidth_words=*/1);
  engine.set_observers({&verifier});
  auto programs = make_programs(2, [] { return std::make_unique<OverBudget>(); });
  EXPECT_THROW((void)engine.run(programs, 10), net::CongestViolation);
  EXPECT_TRUE(verifier.ok());  // nothing recorded until the catch site says so
  (void)run_observed(engine, verifier, programs, 10);
  EXPECT_FALSE(verifier.ok());
  ASSERT_TRUE(has_kind(verifier, InvariantKind::kBandwidthPerRound));
  ASSERT_EQ(verifier.violations().size(), 1u);
  const Violation& v = verifier.violations().front();
  EXPECT_TRUE(v.has_round);
  EXPECT_EQ(v.round, 0u);
  EXPECT_TRUE(v.has_edge);
  EXPECT_EQ(v.from, 0u);
  EXPECT_EQ(v.to, 1u);
  EXPECT_NE(verifier.report().find("bandwidth"), std::string::npos);
  // An exception that is not a model rule (a watchdog diagnosis, an app's
  // own failure) only abandons the run.
  verifier.abandon_run(std::runtime_error("app gave up"));
  EXPECT_EQ(verifier.violations().size(), 1u);
}

TEST(Verifier, CatchesConservationBreak) {
  // Drive the observer hooks directly with a stream where one admitted word
  // has no recorded fate — a lying engine that loses a word silently.
  Graph g = net::path_graph(2);
  Engine engine(g, 1);
  Verifier verifier;
  verifier.on_run_begin(engine);
  verifier.on_send(0, 0, 1, Word{}, 1);
  // No on_delivery for the word above.
  verifier.on_round_end(0);
  net::RunResult stats;
  stats.rounds = 1;
  stats.messages = 1;
  stats.max_edge_words = 1;
  verifier.on_run_end(stats);
  EXPECT_FALSE(verifier.ok());
  EXPECT_TRUE(has_kind(verifier, InvariantKind::kConservation));
}

TEST(Verifier, CatchesCounterMismatch) {
  // Consistent send/delivery stream, but the engine's RunResult claims a
  // different message count than what actually crossed the wire.
  Graph g = net::path_graph(2);
  Engine engine(g, 1);
  Verifier verifier;
  verifier.on_run_begin(engine);
  verifier.on_send(0, 0, 1, Word{}, 1);
  verifier.on_delivery(0, 0, 1, net::DeliveryFate::kDelivered, false, false);
  verifier.on_round_end(0);
  verifier.on_round_end(1);
  net::RunResult stats;
  stats.rounds = 1;
  stats.messages = 2;  // lie: only one word was admitted
  stats.max_edge_words = 1;
  verifier.on_run_end(stats);
  EXPECT_FALSE(verifier.ok());
  EXPECT_TRUE(has_kind(verifier, InvariantKind::kCounterMismatch));
}

TEST(Verifier, CatchesQuiescenceInconsistency) {
  // The reported round count must be last_send_round + 1; claiming more
  // means the run kept counting after going quiet.
  Graph g = net::path_graph(2);
  Engine engine(g, 1);
  Verifier verifier;
  verifier.on_run_begin(engine);
  verifier.on_send(0, 0, 1, Word{}, 1);
  verifier.on_delivery(0, 0, 1, net::DeliveryFate::kDelivered, false, false);
  verifier.on_round_end(0);
  verifier.on_round_end(1);
  net::RunResult stats;
  stats.rounds = 5;  // lie: the last send was in round 0
  stats.messages = 1;
  stats.max_edge_words = 1;
  verifier.on_run_end(stats);
  EXPECT_FALSE(verifier.ok());
  EXPECT_TRUE(has_kind(verifier, InvariantKind::kQuiescence));
}

TEST(Verifier, ResetForgetsEverything) {
  Graph g = net::path_graph(2);
  Verifier verifier;
  Engine engine(g, /*bandwidth_words=*/1);
  engine.set_observers({&verifier});
  auto flood = make_programs(2, [] { return std::make_unique<Flood>(); });
  (void)run_observed(engine, verifier, flood, 10);
  auto programs = make_programs(2, [] { return std::make_unique<OverBudget>(); });
  (void)run_observed(engine, verifier, programs, 10);
  ASSERT_FALSE(verifier.ok());
  ASSERT_EQ(verifier.runs_verified(), 1u);
  verifier.reset();
  EXPECT_TRUE(verifier.ok());
  EXPECT_EQ(verifier.runs_verified(), 0u);
}

// --- Quantum invariants -----------------------------------------------------

quantum::Gate1 shrink_gate() {
  // Diagonal contraction diag(0.5, 0.5): manifestly not unitary.
  return quantum::Gate1{{quantum::Amplitude{0.5, 0}, {0, 0}, {0, 0}, {0.5, 0}}};
}

TEST(QuantumChecks, NormalizedStatePasses) {
  quantum::Statevector state(3);
  state.h(0);
  state.cnot(0, 1);
  EXPECT_FALSE(check_state_norm(state, "bell").has_value());
  quantum::SparseStatevector sparse(8, 5);
  sparse.h(2);
  EXPECT_FALSE(check_state_norm(sparse, "sparse").has_value());
}

TEST(QuantumChecks, NormBreakingGateCaught) {
  quantum::Statevector state(1);
  state.apply(shrink_gate(), 0);  // norm is now 0.5
  auto violation = check_state_norm(state, "after shrink");
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->kind, InvariantKind::kStateNorm);
  EXPECT_NE(violation->detail.find("after shrink"), std::string::npos);

  quantum::SparseStatevector sparse(4);
  sparse.apply(shrink_gate(), 0);
  EXPECT_TRUE(check_state_norm(sparse, "sparse shrink").has_value());
}

TEST(QuantumChecks, UnitaryCircuitPasses) {
  quantum::Circuit circuit(3);
  circuit.h(0).cnot(0, 1).ccx(0, 1, 2).rz(2, 0.7).swap(0, 2);
  EXPECT_FALSE(check_circuit_unitary(circuit, "ghz-ish").has_value());
}

TEST(QuantumChecks, NonUnitaryCircuitCaught) {
  quantum::Circuit circuit(2);
  circuit.h(0).gate(shrink_gate(), 1);
  auto violation = check_circuit_unitary(circuit, "lossy");
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->kind, InvariantKind::kCircuitUnitarity);
}

TEST(QuantumChecks, UnitarityCheckRefusesLargeCircuits) {
  quantum::Circuit circuit(kMaxUnitarityQubits + 1);
  EXPECT_THROW((void)check_circuit_unitary(circuit, "too big"), std::invalid_argument);
}

TEST(Verifier, QuantumChecksLandInViolationList) {
  Verifier verifier;
  quantum::Statevector state(1);
  state.apply(shrink_gate(), 0);
  verifier.check_state(state, "seeded norm break");
  quantum::Circuit circuit(1);
  circuit.gate(shrink_gate(), 0);
  verifier.check_circuit(circuit, "seeded non-unitary");
  EXPECT_FALSE(verifier.ok());
  EXPECT_TRUE(has_kind(verifier, InvariantKind::kStateNorm));
  EXPECT_TRUE(has_kind(verifier, InvariantKind::kCircuitUnitarity));
}

}  // namespace
}  // namespace qcongest::check
