#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/net/engine.hpp"
#include "src/net/graph.hpp"

namespace qcongest::net {

/// One recorded message delivery.
struct TraceEvent {
  std::size_t round = 0;
  NodeId from = 0;
  NodeId to = 0;
  std::int32_t tag = 0;
  bool quantum = false;
};

/// Message-level execution trace for observability and debugging: an
/// EngineObserver that records every admitted send with its round. Install
/// it with Engine::set_observers; the engine never clears it, so the runs
/// of a multi-phase protocol accumulate.
class Trace final : public EngineObserver {
 public:
  void clear() { events_.clear(); }
  void record(const TraceEvent& event) { events_.push_back(event); }

  void on_send(std::size_t round, NodeId from, NodeId to, const Word& word,
               std::size_t edge_words) override;

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Messages sent per round (index = round; may have trailing zeros
  /// trimmed).
  std::vector<std::size_t> per_round_counts() const;

  /// The `top` most-used directed edges as ((from, to), count), busiest
  /// first.
  std::vector<std::pair<std::pair<NodeId, NodeId>, std::size_t>> busiest_edges(
      std::size_t top) const;

  /// Message counts per protocol tag.
  std::map<std::int32_t, std::size_t> per_tag_counts() const;

  /// ASCII activity timeline: one line per round, a bar of '#' scaled to
  /// `width` columns, annotated with the message count. Handy in examples
  /// and failure logs.
  std::string render_timeline(std::size_t width = 50) const;

  /// Undirected per-edge message totals keyed by (min, max) endpoints —
  /// directly consumable by Graph::to_dot as edge labels.
  std::map<std::pair<NodeId, NodeId>, std::size_t> edge_totals() const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace qcongest::net
