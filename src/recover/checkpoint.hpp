#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/net/graph.hpp"

namespace qcongest::recover {

/// One durable program snapshot: the word-serialized state a NodeProgram
/// opted to persist (NodeProgram::snapshot), tagged with the program's
/// state-format version and the round the state is valid for, and sealed
/// with a checksum so stable storage that rotted is detected at restore
/// time instead of silently resurrecting garbage state.
struct Snapshot {
  /// The program's state_version() at snapshot time; restore() refuses a
  /// version it does not understand.
  std::uint32_t version = 0;
  /// The snapshot captures the state after executing rounds [0, round).
  std::size_t round = 0;
  std::vector<std::int64_t> words;
  std::uint64_t checksum = 0;

  /// Compute and store the checksum over (version, round, words).
  void seal();
  /// True when the stored checksum matches the contents.
  bool intact() const;
};

/// Per-node stable storage for checkpoints. The store is owned by the
/// engine — NOT by the programs — which is exactly what makes it survive an
/// amnesia crash: the node's volatile program state is destroyed, the
/// store's copy is not. Only the latest snapshot per node is retained (a
/// recovering node always replays forward from its newest checkpoint).
class CheckpointStore {
 public:
  /// Drop everything and size the store for `num_nodes` slots. Called at
  /// the start of every engine run: checkpoints never leak across protocol
  /// phases (each framework phase is its own run and recovers within it).
  void reset(std::size_t num_nodes);

  /// Seal and store `snapshot` as node `node`'s latest checkpoint.
  void put(net::NodeId node, Snapshot snapshot);

  /// The node's latest checkpoint, or nullptr when it never checkpointed.
  /// The caller must still verify intact() — a rotted checkpoint is
  /// returned so the failure can be diagnosed, not hidden.
  const Snapshot* latest(net::NodeId node) const;

  /// Number of nodes currently holding a checkpoint.
  std::size_t stored() const;

 private:
  std::vector<Snapshot> slots_;
  std::vector<unsigned char> present_;
};

/// When checkpoints are written.
struct CheckpointPolicy {
  /// Snapshot every k rounds (virtual rounds under the reliable transport,
  /// physical rounds under the direct transport). 0 disables periodic
  /// checkpoints — recovery then replays from the start of the phase and
  /// per-link send logs are never pruned.
  std::size_t every_rounds = 0;
  /// Snapshot the initial state at the start of every engine run. Framework
  /// phases are separate engine runs whose boundaries the RoundProfiler
  /// marks as phase spans, so this is exactly the "checkpoint at framework
  /// phase boundaries" knob.
  bool at_phase_start = true;

  bool periodic() const { return every_rounds > 0; }
  /// True when a periodic checkpoint is due after executing `rounds` rounds.
  bool due(std::size_t rounds) const {
    return every_rounds > 0 && rounds > 0 && rounds % every_rounds == 0;
  }
};

/// Engine-level recovery configuration (apps wire it via NetOptions). The
/// per-run program factory is separate — protocol library functions install
/// it with Engine::set_program_factory for the duration of their run.
struct RecoveryPolicy {
  /// Master switch: amnesia crashes are survivable only when enabled (and a
  /// program factory is installed for the run).
  bool enabled = false;
  CheckpointPolicy checkpoint;
};

}  // namespace qcongest::recover
