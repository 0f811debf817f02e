#pragma once

#include <exception>
#include <string>
#include <vector>

#include "src/check/invariant.hpp"
#include "src/net/engine.hpp"

namespace qcongest::quantum {
class Statevector;
class Circuit;
}  // namespace qcongest::quantum

namespace qcongest::check {

/// Model-conformance verifier: an EngineObserver that re-derives the
/// engine's accounting independently from the raw send/delivery stream and
/// checks, every round and at every run end, that the CONGEST rules held —
/// per-edge bandwidth, word conservation through the fault lottery,
/// counter honesty, and quiescence consistency. Violations are collected
/// with full provenance (round, edge, numbers) instead of aborting the run;
/// `ok()` / `report()` give the verdict. Install it with
/// Engine::set_observers (or apps::NetOptions::observer); a caller that
/// catches a run's exception hands it to abandon_run, which is how the
/// rules the engine enforces by throwing reach the violation list.
///
/// The same object also fronts the quantum-layer checks (state norm,
/// circuit unitarity): call check_state / check_circuit at the points a
/// protocol materializes quantum state and the outcomes land in the same
/// violation list.
class Verifier final : public net::EngineObserver {
 public:
  Verifier() = default;

  // --- EngineObserver -----------------------------------------------------
  void on_run_begin(const net::Engine& engine) override;
  void on_send(std::size_t round, net::NodeId from, net::NodeId to,
               const net::Word& word, std::size_t edge_words) override;
  void on_delivery(std::size_t round, net::NodeId from, net::NodeId to,
                   net::DeliveryFate fate, bool corrupted, bool duplicated) override;
  void on_retransmission(std::size_t round) override;
  void on_round_end(std::size_t round) override;
  void on_run_end(const net::RunResult& stats) override;

  /// Record a violation (the quantum-layer checks and abandon_run land here).
  void note(Violation violation);

  /// The current run exited by exception: drop its half-finished tallies so
  /// the end-of-run cross-checks don't fire spuriously on the next run, and
  /// record `cause` when it is a model rule the engine enforced by throwing
  /// (a net::CongestViolation carries its round and edge as provenance).
  void abandon_run(const std::exception& cause);

  // --- Quantum-layer invariants -------------------------------------------
  /// Norm within `tol` of 1 (1e-9 per the simulation contract).
  void check_state(const quantum::Statevector& state, const std::string& where,
                   double tol = 1e-9);
  /// Reconstructs the circuit's matrix by simulation (small scale,
  /// <= 10 qubits) and checks unitarity column-by-column.
  void check_circuit(const quantum::Circuit& circuit, const std::string& where,
                     double tol = 1e-9);

  // --- Verdict ------------------------------------------------------------
  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  std::size_t runs_verified() const { return runs_verified_; }
  /// Human-readable multi-line report ("all invariants held over N runs" or
  /// one provenance line per violation).
  std::string report() const;
  /// Forget all recorded violations and run statistics (per-run state too).
  void reset();

 private:
  void bind_graph(const net::Graph& graph);
  std::size_t slot(net::NodeId from, net::NodeId to) const;

  const net::Graph* graph_ = nullptr;
  std::size_t bandwidth_ = 0;
  std::vector<std::size_t> slot_offset_;

  // Per-run tallies, reset by on_run_begin.
  bool run_active_ = false;
  std::vector<std::size_t> edge_words_round_;
  std::vector<std::size_t> edge_words_total_;
  std::size_t sends_ = 0;
  std::size_t delivered_ = 0;
  std::size_t dropped_ = 0;
  std::size_t corrupted_ = 0;
  std::size_t duplicated_ = 0;
  std::size_t retransmissions_ = 0;
  std::size_t max_edge_words_ = 0;
  std::size_t passes_ = 0;
  bool any_send_ = false;
  std::size_t last_send_round_ = 0;

  std::vector<Violation> violations_;
  std::size_t runs_verified_ = 0;
};

}  // namespace qcongest::check
