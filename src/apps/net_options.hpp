#pragma once

#include <cstdint>
#include <vector>

#include "src/net/engine.hpp"
#include "src/net/fault.hpp"
#include "src/net/trace.hpp"
#include "src/obs/round_profiler.hpp"
#include "src/recover/checkpoint.hpp"
#include "src/recover/watchdog.hpp"

namespace qcongest::apps {

/// Network-simulation options shared by the applications.
struct NetOptions {
  /// CONGEST(B): words per edge per direction per round.
  std::size_t bandwidth = 1;
  /// Engine seed (node-local randomness).
  std::uint64_t seed = 1;
  /// When non-empty (one bit per node), the run reports the words crossing
  /// this bipartition in RunResult::cut_words — the induced two-party
  /// communication of the reduction arguments (Lemmas 11/13/15, Thm 18).
  std::vector<bool> tracked_cut;
  /// Deterministic fault schedule applied to every delivery (drops,
  /// corruption, duplication, crash windows). Default: perfect network.
  net::FaultPlan fault_plan;
  /// kReliable runs every protocol over the ack/retransmit link layer
  /// (src/net/reliable.hpp) — required for correctness under an active
  /// fault plan unless the app brings its own recovery.
  net::Transport transport = net::Transport::kDirect;
  /// When non-null, every send of every run is recorded here — the
  /// determinism auditor in tools/chaos_run diffs two such recordings
  /// byte-for-byte. Must outlive every run of the configured engine.
  net::Trace* trace = nullptr;
  /// When non-null, installed as a passive engine observer; the
  /// model-conformance verifier (src/check/verifier.hpp) is the intended
  /// client. Must outlive every run of the configured engine.
  net::EngineObserver* observer = nullptr;
  /// When non-null, the metrics tap: a RoundProfiler recording per-round
  /// traffic series and phase spans for run reports (src/obs). It sees the
  /// same callback stream as `observer`. Must outlive every run of the
  /// configured engine.
  obs::RoundProfiler* metrics = nullptr;
  /// Worker threads for the engine's deterministic sharded round execution
  /// (Engine::set_threads). 1 = serial; any value produces byte-identical
  /// runs. No-op under Transport::kReliable.
  std::size_t threads = 1;
  /// Crash-with-amnesia recovery: when enabled, the engine checkpoints node
  /// state per CheckpointPolicy and amnesia-crashed nodes rebuild themselves
  /// from their last checkpoint plus neighbor-assisted catch-up (src/recover).
  /// The extra traffic is reported in RunResult::recovery_words/rounds.
  recover::RecoveryPolicy recovery;
  /// When non-null, a run-level liveness watchdog on the engine's observer
  /// list: it converts quiescence-without-termination and retransmit-storm
  /// livelock into a thrown recover::LivelockError naming suspected-dead
  /// nodes. Must outlive every run of the configured engine.
  recover::Watchdog* watchdog = nullptr;

  /// Apply cut tracking, the fault plan, the transport, recovery, and the
  /// taps to an engine (bandwidth and seed are constructor parameters of
  /// Engine). The observer list is trace, metrics, observer, watchdog: the
  /// watchdog throws from on_round_end, so it goes last and every other tap
  /// has seen the round it gives up on.
  void configure(net::Engine& engine) const {
    engine.track_cut(tracked_cut);
    if (fault_plan.active()) engine.set_fault_plan(fault_plan);
    engine.set_transport(transport);
    engine.set_recovery(recovery);
    engine.set_observers({trace, metrics, observer, watchdog});
    engine.set_threads(threads);
  }
};

}  // namespace qcongest::apps
