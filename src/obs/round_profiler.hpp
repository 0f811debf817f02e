#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/engine.hpp"

namespace qcongest::obs {

/// Per-round traffic profile and phase spans, recorded passively through
/// the EngineObserver hooks. The round axis is *cumulative across runs*:
/// protocols compose phases as separate Engine::run calls, and the
/// profiler concatenates them into one global round series so a whole
/// protocol reads as a single timeline.
///
/// Phase spans attribute stretches of that timeline to named protocol
/// phases (the framework's query/combine/uncompute phases, an app's
/// bfs/downcast steps). Between begin_phase / end_phase every run and
/// round is charged to the open span; runs outside any explicit phase get
/// an automatic span named "run#<k>" so the timeline is always fully
/// covered.
///
/// Determinism: observer callbacks fire on the engine thread in canonical
/// delivery order for any Engine::set_threads value (see engine.hpp), so
/// the recorded series — and any report built from them — are
/// byte-identical between serial and sharded execution. The profiler
/// records no wall-clock time for the same reason.
class RoundProfiler final : public net::EngineObserver {
 public:
  /// Message traffic of one (global) round.
  struct RoundSample {
    std::size_t sent = 0;        // words past bandwidth admission
    std::size_t delivered = 0;   // landed in a next-round inbox
    std::size_t dropped = 0;     // lottery drops + crashed receivers
    std::size_t corrupted = 0;
    std::size_t duplicated = 0;
    std::size_t retransmissions = 0;  // reliable-transport re-sends
    std::size_t quantum_words = 0;

    friend bool operator==(const RoundSample&, const RoundSample&) = default;
  };

  /// One named stretch of the global round timeline.
  struct PhaseSpan {
    std::string name;
    std::size_t first_round = 0;  // global round index of the span start
    std::size_t rounds = 0;       // rounds elapsed while the span was open
    std::size_t runs = 0;         // Engine::run calls charged to the span
    std::size_t sent = 0;
    std::size_t delivered = 0;
    std::size_t dropped = 0;
    std::size_t retransmissions = 0;
  };

  /// Open a named phase span (closing any span still open). Subsequent
  /// runs/rounds accumulate into it until end_phase.
  void begin_phase(const std::string& name);
  /// Close the open span (no-op when none is open).
  void end_phase();

  const std::vector<RoundSample>& rounds() const { return rounds_; }
  const std::vector<PhaseSpan>& phases() const { return phases_; }
  std::size_t total_runs() const { return runs_; }
  std::size_t total_rounds() const { return rounds_.size(); }

  /// Forget everything (series, spans, run count).
  void reset();

  // --- EngineObserver -------------------------------------------------------
  void on_run_begin(const net::Engine& engine) override;
  void on_send(std::size_t round, net::NodeId from, net::NodeId to,
               const net::Word& word, std::size_t edge_words) override;
  void on_delivery(std::size_t round, net::NodeId from, net::NodeId to,
                   net::DeliveryFate fate, bool corrupted, bool duplicated) override;
  void on_retransmission(std::size_t round) override;
  void on_round_end(std::size_t round) override;
  void on_run_end(const net::RunResult& stats) override;

 private:
  RoundSample& sample(std::size_t run_round);
  PhaseSpan* open_span();
  void close_span();

  std::vector<RoundSample> rounds_;
  std::vector<PhaseSpan> phases_;
  std::size_t run_base_ = 0;   // global index of the current run's round 0
  std::size_t runs_ = 0;
  bool span_open_ = false;
  bool span_auto_ = false;     // the open span is an automatic per-run span
};

}  // namespace qcongest::obs
