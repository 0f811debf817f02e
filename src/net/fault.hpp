#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/net/graph.hpp"
#include "src/util/rng.hpp"

namespace qcongest::net {

/// Per-word fault probabilities on a directed link. All probabilities are
/// independent per word: a word is first subjected to the drop lottery; a
/// surviving word may be corrupted (random payload bit flips) and/or
/// duplicated (a second copy of the — possibly corrupted — word arrives).
/// Corruption never touches the protocol tag: headers are assumed to be
/// protected by heavier coding, the standard link-layer fault model.
struct FaultRates {
  double drop = 0.0;
  double corrupt = 0.0;
  double duplicate = 0.0;

  bool any() const { return drop > 0.0 || corrupt > 0.0 || duplicate > 0.0; }
};

/// A scheduled node outage. The node executes no rounds in
/// [crash_round, restart_round): its program is not invoked and every word
/// that would arrive in that window is dropped (counted as dropped_words).
/// By default program state is preserved across the outage (crash-restart);
/// with restart_round == kNeverRestarts the node is crash-stopped for the
/// rest of the run. Rounds are the values Context::round() reports.
struct CrashEvent {
  static constexpr std::size_t kNeverRestarts = static_cast<std::size_t>(-1);

  NodeId node = 0;
  std::size_t crash_round = 0;
  std::size_t restart_round = kNeverRestarts;
  /// Crash-with-amnesia: at restart the node's volatile program state is
  /// destroyed and a fresh program is reconstructed from the run's program
  /// factory. The node survives only if recovery is enabled
  /// (Engine::set_recovery) — restoring its last checkpoint and replaying
  /// forward with neighbor-assisted state transfer (see src/recover and
  /// DESIGN.md §11); otherwise the restart leaves it effectively
  /// crash-stopped. Meaningless combined with kNeverRestarts.
  bool amnesia = false;
};

/// A deterministic, seeded fault schedule for one engine. The fault lottery
/// uses its own RNG (seeded from `seed`), independent of the node RNGs, so
/// identical (plan, engine seed, programs) triples reproduce bit-identical
/// RunResults including every fault counter. A plan whose rates are all zero
/// and whose crash list is empty is exactly the perfect network: the engine
/// draws no lottery and all counters stay zero.
struct FaultPlan {
  /// Default rates applied to every directed edge.
  FaultRates link;
  /// Per-directed-edge overrides (from, to) -> rates; replaces `link` for
  /// that direction only.
  std::vector<std::pair<std::pair<NodeId, NodeId>, FaultRates>> edge_overrides;
  /// Scheduled outages. Multiple events per node are allowed as long as
  /// their [crash, restart) windows are disjoint.
  std::vector<CrashEvent> crashes;
  /// Seed of the fault lottery.
  std::uint64_t seed = 0x0fa17ab1e5eedULL;

  /// True when the plan can affect a run at all.
  bool active() const;

  /// Throws std::invalid_argument on out-of-range probabilities, unknown
  /// nodes, or overlapping crash windows.
  void validate(std::size_t num_nodes) const;
};

/// Batched per-edge fault lottery.
///
/// One independent raw-u64 stream per directed edge slot, forked in slot
/// order from the plan seed — an edge's draws depend only on its own
/// traffic order, never on how sends across edges interleave, which is the
/// property that keeps faulty runs byte-identical between the serial and
/// sharded engine paths. Each stream pre-generates draws in blocks of
/// kBatch into a reusable flat buffer, so the per-(edge, round) cost in the
/// delivery loop is an index bump and a compare instead of a
/// std::bernoulli_distribution construction; the k-th draw of a slot is the
/// same number whether it was buffered or generated on demand.
///
/// Bernoulli trials are fixed-point: a draw fires when the raw u64 is
/// below threshold(p) = round-down(p * 2^64). p <= 0 and p >= 1
/// short-circuit without consuming a draw, preserving the guarantee that a
/// plan with all-zero rates leaves every counter and stream byte-identical
/// to the unfaulted engine.
class FaultLottery {
 public:
  static constexpr std::size_t kBatch = 16;
  static constexpr std::uint64_t kNever = 0;
  static constexpr std::uint64_t kAlways = ~std::uint64_t{0};

  /// Fixed-point threshold for probability p (see class comment). Values
  /// that would collide with the kAlways sentinel clamp one below it.
  static std::uint64_t threshold(double p);

  /// Fork `slots` per-edge streams from `seed` and mark all buffers empty.
  void reset(std::uint64_t seed, std::size_t slots);
  void clear();

  /// Bernoulli trial on `slot`'s stream. kNever / kAlways short-circuit
  /// without consuming a draw.
  bool draw(std::size_t slot, std::uint64_t threshold) {
    if (threshold == kNever) return false;
    if (threshold == kAlways) return true;
    return draw_raw(slot) < threshold;
  }

  /// Next raw u64 of `slot`'s stream (e.g. for corrupt-bit selection).
  std::uint64_t draw_raw(std::size_t slot) {
    std::uint32_t& pos = pos_[slot];
    if (pos == kBatch) refill(slot);
    return buffer_[slot * kBatch + pos++];
  }

 private:
  void refill(std::size_t slot);  // bulk-generate kBatch draws, pos -> 0

  std::vector<util::Rng> streams_;     // one per directed edge slot
  std::vector<std::uint64_t> buffer_;  // slots x kBatch raw draws
  std::vector<std::uint32_t> pos_;     // next unconsumed; kBatch = empty
};

}  // namespace qcongest::net
