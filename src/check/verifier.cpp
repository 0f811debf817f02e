#include "src/check/verifier.hpp"

#include <algorithm>

#include "src/check/quantum_checks.hpp"
#include "src/net/violation.hpp"

namespace qcongest::check {

const char* invariant_name(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kBandwidthPerRound:
      return "bandwidth-per-round";
    case InvariantKind::kBandwidthAggregate:
      return "bandwidth-aggregate";
    case InvariantKind::kConservation:
      return "conservation";
    case InvariantKind::kCounterMismatch:
      return "counter-mismatch";
    case InvariantKind::kQuiescence:
      return "quiescence";
    case InvariantKind::kStateNorm:
      return "state-norm";
    case InvariantKind::kCircuitUnitarity:
      return "circuit-unitarity";
    case InvariantKind::kModelRule:
      return "model-rule";
  }
  return "unknown";
}

std::string Violation::to_string() const {
  std::string out = "[";
  out += invariant_name(kind);
  out += "]";
  if (has_round) out += " round " + std::to_string(round) + ",";
  if (has_edge) {
    out += " edge " + std::to_string(from) + " -> " + std::to_string(to) + ",";
  }
  if (out.back() == ',') out.pop_back();
  out += ": " + detail;
  return out;
}

void Verifier::bind_graph(const net::Graph& graph) {
  graph_ = &graph;
  const std::size_t n = graph_->num_nodes();
  slot_offset_.assign(n + 1, 0);
  for (net::NodeId v = 0; v < n; ++v) {
    slot_offset_[v + 1] = slot_offset_[v] + graph_->degree(v);
  }
}

std::size_t Verifier::slot(net::NodeId from, net::NodeId to) const {
  const auto& adj = graph_->neighbors(from);
  auto it = std::find(adj.begin(), adj.end(), to);
  // The engine rejects non-neighbor sends before notifying us, so a miss
  // here means the graph changed under the verifier — report against slot 0
  // rather than crash.
  if (it == adj.end()) return slot_offset_[from];
  return slot_offset_[from] + static_cast<std::size_t>(it - adj.begin());
}

void Verifier::on_run_begin(const net::Engine& engine) {
  // Self-initializing: a verifier on an engine's observer list
  // (Engine::set_observers, or apps::NetOptions::observer where the engine is
  // built deep inside an application) binds to the graph on the first run —
  // and re-binds when a new engine on a different graph picks it up.
  if (graph_ != &engine.graph()) bind_graph(engine.graph());
  bandwidth_ = engine.bandwidth();
  edge_words_round_.assign(slot_offset_.empty() ? 0 : slot_offset_.back(), 0);
  edge_words_total_.assign(edge_words_round_.size(), 0);
  sends_ = delivered_ = dropped_ = corrupted_ = duplicated_ = 0;
  retransmissions_ = max_edge_words_ = passes_ = 0;
  any_send_ = false;
  last_send_round_ = 0;
  run_active_ = true;
}

void Verifier::on_send(std::size_t round, net::NodeId from, net::NodeId to,
                       const net::Word& word, std::size_t edge_words) {
  (void)word;
  if (!run_active_) return;
  const std::size_t s = slot(from, to);
  ++edge_words_round_[s];
  ++edge_words_total_[s];
  ++sends_;
  any_send_ = true;
  last_send_round_ = round;
  max_edge_words_ = std::max(max_edge_words_, edge_words_round_[s]);
  if (edge_words_round_[s] > bandwidth_) {
    note(Violation{InvariantKind::kBandwidthPerRound, true, round, true, from, to,
                   std::to_string(edge_words_round_[s]) + " words on one edge, budget " +
                       std::to_string(bandwidth_)});
  }
  if (edge_words != edge_words_round_[s]) {
    note(Violation{InvariantKind::kCounterMismatch, true, round, true, from, to,
                   "engine counts " + std::to_string(edge_words) +
                       " words on this edge this round, observer counts " +
                       std::to_string(edge_words_round_[s])});
  }
}

void Verifier::on_delivery(std::size_t round, net::NodeId from, net::NodeId to,
                           net::DeliveryFate fate, bool corrupted, bool duplicated) {
  (void)round, (void)from, (void)to;
  if (!run_active_) return;
  switch (fate) {
    case net::DeliveryFate::kDelivered:
      ++delivered_;
      if (corrupted) ++corrupted_;
      if (duplicated) ++duplicated_;
      break;
    case net::DeliveryFate::kDroppedLottery:
    case net::DeliveryFate::kDroppedCrashed:
      ++dropped_;
      break;
  }
}

void Verifier::on_retransmission(std::size_t round) {
  (void)round;
  if (run_active_) ++retransmissions_;
}

void Verifier::on_round_end(std::size_t round) {
  (void)round;
  if (!run_active_) return;
  ++passes_;
  std::fill(edge_words_round_.begin(), edge_words_round_.end(), 0);
}

void Verifier::on_run_end(const net::RunResult& stats) {
  if (!run_active_) return;
  run_active_ = false;
  ++runs_verified_;

  // A pass that sent something is always followed by its on_round_end —
  // except the very last one when the run ends at the round limit, so give
  // the aggregate budget the benefit of that one pass.
  const std::size_t elapsed = std::max(passes_, any_send_ ? last_send_round_ + 1 : 0);

  // Per-edge aggregate budget: total words on a directed edge (reliable-
  // transport retransmissions included, since they are ordinary sends)
  // cannot exceed B x elapsed rounds.
  for (std::size_t s = 0; s < edge_words_total_.size(); ++s) {
    if (edge_words_total_[s] <= bandwidth_ * elapsed) continue;
    // Recover the edge from the slot for the report.
    net::NodeId from = 0;
    while (from + 1 < graph_->num_nodes() && slot_offset_[from + 1] <= s) ++from;
    net::NodeId to = graph_->neighbors(from)[s - slot_offset_[from]];
    note(Violation{InvariantKind::kBandwidthAggregate, false, 0, true, from, to,
                   std::to_string(edge_words_total_[s]) + " words over " +
                       std::to_string(elapsed) + " rounds, budget " +
                       std::to_string(bandwidth_) + "/round"});
  }
  if (retransmissions_ > sends_) {
    note(Violation{InvariantKind::kConservation, false, 0, false, 0, 0,
                   std::to_string(retransmissions_) + " retransmissions but only " +
                       std::to_string(sends_) + " sends — a retransmission is a send"});
  }

  // Word conservation through the fault lottery: every admitted word is
  // delivered or dropped, exactly once.
  if (sends_ != delivered_ + dropped_) {
    note(Violation{InvariantKind::kConservation, false, 0, false, 0, 0,
                   "sent " + std::to_string(sends_) + " != delivered " +
                       std::to_string(delivered_) + " + dropped " +
                       std::to_string(dropped_)});
  }

  // Counter honesty: the engine's public RunResult must match the tally
  // re-derived from the raw event stream.
  auto expect = [&](std::size_t engine_count, std::size_t observed, const char* name) {
    if (engine_count == observed) return;
    note(Violation{InvariantKind::kCounterMismatch, false, 0, false, 0, 0,
                   std::string(name) + ": engine reports " +
                       std::to_string(engine_count) + ", observer counted " +
                       std::to_string(observed)});
  };
  expect(stats.messages, sends_, "messages");
  expect(stats.dropped_words, dropped_, "dropped_words");
  expect(stats.corrupted_words, corrupted_, "corrupted_words");
  expect(stats.duplicated_words, duplicated_, "duplicated_words");
  expect(stats.retransmissions, retransmissions_, "retransmissions");
  expect(stats.max_edge_words, max_edge_words_, "max_edge_words");

  // Quiescence consistency: the round complexity the engine reports is the
  // index of the last pass that sent anything — nothing was sent after it,
  // and if anything was sent at all the count is that send's pass.
  const std::size_t expected_rounds = any_send_ ? last_send_round_ + 1 : 0;
  if (stats.rounds != expected_rounds) {
    note(Violation{InvariantKind::kQuiescence, true, expected_rounds, false, 0, 0,
                   "engine reports " + std::to_string(stats.rounds) +
                       " rounds, last observed send was in round " +
                       std::to_string(expected_rounds)});
  }
}

void Verifier::note(Violation violation) { violations_.push_back(std::move(violation)); }

void Verifier::abandon_run(const std::exception& cause) {
  run_active_ = false;
  const auto* violation = dynamic_cast<const net::CongestViolation*>(&cause);
  if (violation == nullptr) return;
  InvariantKind kind = violation->kind() == net::CongestViolation::Kind::kBandwidthExceeded
                           ? InvariantKind::kBandwidthPerRound
                           : InvariantKind::kModelRule;
  note(Violation{kind, true, violation->round(), true, violation->from(), violation->to(),
                 violation->what()});
}

void Verifier::check_state(const quantum::Statevector& state, const std::string& where,
                           double tol) {
  if (auto v = check_state_norm(state, where, tol)) note(std::move(*v));
}

void Verifier::check_circuit(const quantum::Circuit& circuit, const std::string& where,
                             double tol) {
  if (auto v = check_circuit_unitary(circuit, where, tol)) note(std::move(*v));
}

std::string Verifier::report() const {
  if (violations_.empty()) {
    return "verifier: all invariants held over " + std::to_string(runs_verified_) +
           " run(s)";
  }
  std::string out = "verifier: " + std::to_string(violations_.size()) +
                    " violation(s) over " + std::to_string(runs_verified_) + " run(s)\n";
  for (const Violation& v : violations_) out += "  " + v.to_string() + "\n";
  return out;
}

void Verifier::reset() {
  violations_.clear();
  runs_verified_ = 0;
  run_active_ = false;
}

}  // namespace qcongest::check
