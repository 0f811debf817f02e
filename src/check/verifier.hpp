#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/check/invariant.hpp"
#include "src/net/engine.hpp"
#include "src/net/violation.hpp"

namespace qcongest::quantum {
class Statevector;
class SparseStatevector;
class Circuit;
}  // namespace qcongest::quantum

namespace qcongest::check {

/// Model-conformance verifier: an EngineObserver that re-derives the
/// engine's accounting independently from the raw send/delivery stream and
/// checks, every round and at every run end, that the CONGEST rules held —
/// per-edge bandwidth, word conservation through the fault lottery,
/// counter honesty, and quiescence consistency. Violations are collected
/// with full provenance (round, edge, numbers) instead of aborting the run;
/// `ok()` / `report()` give the verdict.
///
/// The same object also fronts the quantum-layer checks (state norm,
/// circuit unitarity): call check_state / check_circuit at the points a
/// protocol materializes quantum state and the outcomes land in the same
/// violation list.
class Verifier final : public net::EngineObserver {
 public:
  Verifier() = default;

  /// Start observing `engine` as its only observer (replaces the engine's
  /// observer list). The verifier must outlive every run of the engine.
  void attach(net::Engine& engine);
  void detach();

  // --- EngineObserver -----------------------------------------------------
  void on_run_begin(const net::Engine& engine) override;
  void on_send(std::size_t round, net::NodeId from, net::NodeId to,
               const net::Word& word, std::size_t edge_words) override;
  void on_delivery(std::size_t round, net::NodeId from, net::NodeId to,
                   net::DeliveryFate fate, bool corrupted, bool duplicated) override;
  void on_retransmission(std::size_t round) override;
  void on_round_end(std::size_t round) override;
  void on_run_end(const net::RunResult& stats) override;

  /// Record a model rule the engine enforced by throwing (bandwidth /
  /// non-neighbor violations carry their provenance in the exception).
  void note(const net::CongestViolation& violation);
  void note(Violation violation);

  /// The current run exited by exception: drop its half-finished tallies so
  /// the end-of-run cross-checks don't fire spuriously on the next run.
  void abandon_run();

  // --- Quantum-layer invariants -------------------------------------------
  /// Norm within `tol` of 1 (1e-9 per the simulation contract).
  void check_state(const quantum::Statevector& state, const std::string& where,
                   double tol = 1e-9);
  void check_state(const quantum::SparseStatevector& state, const std::string& where,
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

/// An Engine with the conformance verifier permanently attached. Drop-in
/// where a protocol would build its own Engine: configure through engine(),
/// run through run() — engine-thrown CongestViolations are caught, recorded
/// in the verifier's report with provenance, and surfaced as an incomplete
/// RunResult instead of unwinding the caller.
class VerifiedEngine {
 public:
  explicit VerifiedEngine(const net::Graph& graph, std::size_t bandwidth_words = 1,
                          std::uint64_t seed = 1)
      : engine_(graph, bandwidth_words, seed) {
    verifier_.attach(engine_);
  }

  net::Engine& engine() { return engine_; }
  const net::Engine& engine() const { return engine_; }
  Verifier& verifier() { return verifier_; }
  const Verifier& verifier() const { return verifier_; }

  net::RunResult run(std::span<const std::unique_ptr<net::NodeProgram>> programs,
                     std::size_t max_rounds);

 private:
  net::Engine engine_;
  Verifier verifier_;
};

}  // namespace qcongest::check
