#include "src/net/trace.hpp"

#include <algorithm>

namespace qcongest::net {

void Trace::on_send(std::size_t round, NodeId from, NodeId to, const Word& word,
                    std::size_t edge_words) {
  (void)edge_words;
  record(TraceEvent{round, from, to, word.tag, word.quantum});
}

std::vector<std::size_t> Trace::per_round_counts() const {
  std::size_t max_round = 0;
  for (const TraceEvent& e : events_) max_round = std::max(max_round, e.round);
  std::vector<std::size_t> counts(events_.empty() ? 0 : max_round + 1, 0);
  for (const TraceEvent& e : events_) ++counts[e.round];
  return counts;
}

std::vector<std::pair<std::pair<NodeId, NodeId>, std::size_t>> Trace::busiest_edges(
    std::size_t top) const {
  std::map<std::pair<NodeId, NodeId>, std::size_t> counts;
  for (const TraceEvent& e : events_) ++counts[{e.from, e.to}];
  std::vector<std::pair<std::pair<NodeId, NodeId>, std::size_t>> sorted(
      counts.begin(), counts.end());
  // Total order — count descending, then (from, to) ascending — so tied
  // edges come back in the same order on every STL implementation (the
  // comparator alone makes the result unique; sort stability is moot).
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (sorted.size() > top) sorted.resize(top);
  return sorted;
}

std::map<std::int32_t, std::size_t> Trace::per_tag_counts() const {
  std::map<std::int32_t, std::size_t> counts;
  for (const TraceEvent& e : events_) ++counts[e.tag];
  return counts;
}

std::map<std::pair<NodeId, NodeId>, std::size_t> Trace::edge_totals() const {
  std::map<std::pair<NodeId, NodeId>, std::size_t> totals;
  for (const TraceEvent& e : events_) {
    ++totals[{std::min(e.from, e.to), std::max(e.from, e.to)}];
  }
  return totals;
}

std::string Trace::render_timeline(std::size_t width) const {
  auto counts = per_round_counts();
  std::size_t peak = 0;
  for (std::size_t c : counts) peak = std::max(peak, c);
  std::string out;
  for (std::size_t round = 0; round < counts.size(); ++round) {
    std::size_t bar =
        peak == 0 ? 0 : (counts[round] * width + peak - 1) / peak;
    out += "r";
    out += std::to_string(round);
    out += " |";
    out.append(bar, '#');
    out += " ";
    out += std::to_string(counts[round]);
    out += "\n";
  }
  return out;
}

}  // namespace qcongest::net
