#include "src/recover/watchdog.hpp"

#include <algorithm>

namespace qcongest::recover {

std::string LivelockError::describe(Kind kind, std::size_t round,
                                    const std::vector<net::NodeId>& suspects) {
  std::string what;
  switch (kind) {
    case Kind::kRetransmitStorm:
      what = "livelock: retransmit storm (sends but no deliveries)";
      break;
    case Kind::kQuiescentSpin:
      what = "livelock: quiescence without termination";
      break;
    case Kind::kDeadlineExceeded:
      what = "livelock: round deadline exceeded";
      break;
  }
  what += " at round ";
  what += std::to_string(round);
  if (suspects.empty()) {
    what += ", no suspected-dead nodes";
  } else {
    what += ", suspected dead:";
    for (net::NodeId v : suspects) {
      what += ' ';
      what += std::to_string(v);
    }
  }
  return what;
}

std::string Diagnosis::to_string() const {
  std::string out = subsystem;
  out += ' ';
  out += kind;
  if (!subject.empty()) {
    out += " [";
    out += subject;
    out += ']';
  }
  if (!detail.empty()) {
    out += ": ";
    out += detail;
  }
  return out;
}

void Watchdog::on_run_begin(const net::Engine& engine) {
  (void)engine;
  last_traffic_round_ = 0;
  suspects_.clear();
}

void Watchdog::on_send(std::size_t round, net::NodeId from, net::NodeId to,
                       const net::Word& word, std::size_t edge_words) {
  (void)from, (void)to, (void)word, (void)edge_words;
  last_traffic_round_ = round;
}

void Watchdog::on_delivery(std::size_t round, net::NodeId from, net::NodeId to,
                           net::DeliveryFate fate, bool corrupted, bool duplicated) {
  (void)from, (void)corrupted, (void)duplicated;
  last_traffic_round_ = round;
  auto it = std::lower_bound(
      suspects_.begin(), suspects_.end(), to,
      [](const auto& entry, net::NodeId node) { return entry.first < node; });
  if (fate == net::DeliveryFate::kDelivered) {
    // A word got through: the receiver is alive (restarted); absolve it.
    if (it != suspects_.end() && it->first == to) suspects_.erase(it);
  } else if (fate == net::DeliveryFate::kDroppedCrashed) {
    if (it == suspects_.end() || it->first != to) {
      suspects_.insert(it, {to, round});
    }
  }
}

std::vector<net::NodeId> Watchdog::suspect_nodes() const {
  std::vector<net::NodeId> nodes;
  nodes.reserve(suspects_.size());
  for (const auto& [node, since] : suspects_) nodes.push_back(node);
  return nodes;
}

void Watchdog::on_round_end(std::size_t round) {
  if (config_.deadline_rounds > 0 && round + 1 >= config_.deadline_rounds) {
    throw LivelockError(LivelockError::Kind::kDeadlineExceeded, round,
                        suspect_nodes());
  }
  if (config_.stall_rounds == 0) return;
  // A suspect that has been swallowing words for stall_rounds without one
  // successful delivery is dead for good; everything still addressed to it
  // is a retransmit storm.
  for (const auto& [node, since] : suspects_) {
    if (round >= since && round - since >= config_.stall_rounds) {
      throw LivelockError(LivelockError::Kind::kRetransmitStorm, round,
                          suspect_nodes());
    }
  }
  // No traffic at all (no sends, no deliveries) for stall_rounds: the run
  // is spinning on keep_alive (or idling toward a restart that is further
  // away than any configured outage should be).
  if (round >= last_traffic_round_ &&
      round - last_traffic_round_ >= config_.stall_rounds) {
    throw LivelockError(LivelockError::Kind::kQuiescentSpin, round, suspect_nodes());
  }
}

}  // namespace qcongest::recover
