#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/engine.hpp"
#include "src/net/graph.hpp"

namespace qcongest::recover {

/// The watchdog concluded the run is no longer making progress. Like
/// net::CongestViolation, the error carries full provenance — which liveness
/// rule tripped, at which round, and which nodes are suspected dead — so
/// callers diagnose the hang structurally instead of parsing a message.
class LivelockError : public std::runtime_error {
 public:
  enum class Kind {
    /// Rounds keep burning with sends (retransmissions) but nothing
    /// has been delivered for stall_rounds — the signature of a retransmit
    /// storm aimed at a dead node.
    kRetransmitStorm,
    /// Rounds keep burning with neither sends nor deliveries — nodes are
    /// spinning on keep_alive (or the engine idles toward a restart that
    /// cannot help) without ever terminating.
    kQuiescentSpin,
    /// The absolute round deadline was exceeded.
    kDeadlineExceeded,
  };

  LivelockError(Kind kind, std::size_t round, std::vector<net::NodeId> suspects)
      : std::runtime_error(describe(kind, round, suspects)),
        kind_(kind),
        round_(round),
        suspects_(std::move(suspects)) {}

  Kind kind() const { return kind_; }
  /// Round at which the watchdog gave up.
  std::size_t round() const { return round_; }
  /// Nodes that swallowed words while crashed since the last delivery,
  /// ascending — the likely-dead peers the network is still talking to.
  const std::vector<net::NodeId>& suspects() const { return suspects_; }

  static std::string describe(Kind kind, std::size_t round,
                              const std::vector<net::NodeId>& suspects);

 private:
  Kind kind_;
  std::size_t round_;
  std::vector<net::NodeId> suspects_;
};

/// A structured recovery diagnosis, the non-throwing sibling of
/// LivelockError for subsystems that must keep going after noticing damage
/// (the job journal's replay scan, checkpoint loaders). Like the livelock
/// path it carries provenance as fields — which subsystem, which invariant,
/// which object — so callers log or count structurally instead of parsing
/// prose; to_string renders the one-line form that ends up on stderr.
struct Diagnosis {
  /// Subsystem that noticed the damage, e.g. "journal".
  std::string subsystem;
  /// Invariant that failed, a stable lowercase token, e.g. "orphan_record",
  /// "invalid_spec", "corrupt_segment".
  std::string kind;
  /// The damaged object: a journal key, a segment file name, a node id.
  std::string subject;
  /// Free-form human detail (never parsed).
  std::string detail;

  std::string to_string() const;
};

/// Liveness thresholds, all in rounds (never wall clock — the watchdog must
/// stay seed-deterministic and thread-count independent). Zero disables a
/// check. stall_rounds must comfortably exceed any legitimate outage: the
/// longest crash window the fault plan schedules, plus the reliable
/// transport's retransmission backoff cap (ReliableParams::rto_cap).
struct WatchdogConfig {
  /// Rounds a node may continuously swallow words while crashed (without a
  /// single successful delivery to it) before the run is declared
  /// livelocked; also the bound on rounds with no traffic at all.
  std::size_t stall_rounds = 1024;
  /// Absolute cap on the run's rounds (0 = no deadline).
  std::size_t deadline_rounds = 0;
};

/// Run-level liveness monitor on the engine observer hook. A permanently
/// crashed neighbor (CrashEvent::kNeverRestarts) under the reliable
/// transport otherwise livelocks a run — peers retransmit into the void
/// until the stretched round budget finally expires, reporting only a
/// bland incomplete run. The watchdog instead converts the hang into a
/// LivelockError naming the suspected-dead nodes.
///
/// Detection is per suspect, not per run: a node enters the suspect set
/// when it swallows a word while crashed and leaves it on the next
/// successful delivery to it (a restart heals it); a suspect that stays in
/// the set for stall_rounds trips kRetransmitStorm. A run-wide no-delivery
/// clock would be fooled by traffic that keeps flowing among live nodes
/// elsewhere in the network.
///
/// Install it last in the engine's observer list (Engine::set_observers;
/// NetOptions::configure does): it throws from on_round_end, and the
/// observers before it have then seen the round it gives up on. All state
/// is derived from callback order alone.
class Watchdog : public net::EngineObserver {
 public:
  Watchdog() = default;
  explicit Watchdog(WatchdogConfig config) : config_(config) {}

  void set_config(WatchdogConfig config) { config_ = config; }
  const WatchdogConfig& config() const { return config_; }

  void on_run_begin(const net::Engine& engine) override;
  void on_send(std::size_t round, net::NodeId from, net::NodeId to,
               const net::Word& word, std::size_t edge_words) override;
  void on_delivery(std::size_t round, net::NodeId from, net::NodeId to,
                   net::DeliveryFate fate, bool corrupted, bool duplicated) override;
  /// Throws LivelockError when a liveness rule trips.
  void on_round_end(std::size_t round) override;

 private:
  WatchdogConfig config_;

  // Per-run state, reset in on_run_begin.
  std::size_t last_traffic_round_ = 0;
  /// Crashed receivers still swallowing words, ascending without
  /// duplicates, each with the round it entered the set.
  std::vector<std::pair<net::NodeId, std::size_t>> suspects_;

  std::vector<net::NodeId> suspect_nodes() const;
};

}  // namespace qcongest::recover
