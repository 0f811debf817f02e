#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/net/engine.hpp"
#include "src/net/trace.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/round_profiler.hpp"

namespace qcongest::obs {

/// Version stamped into every report as "schema_version". Bump whenever a
/// field is renamed, removed, or changes meaning — additions are fine.
inline constexpr std::int64_t kReportSchemaVersion = 1;

/// Digest of a Trace embedded in a report section: totals, the per-round
/// counts, the busiest directed edges (stable order — count desc, then
/// (from, to)), and the per-tag counts.
struct TraceSummary {
  std::size_t total = 0;
  std::vector<std::size_t> per_round;
  std::vector<std::pair<std::pair<net::NodeId, net::NodeId>, std::size_t>> busiest;
  std::map<std::int32_t, std::size_t> per_tag;
};

/// One structured, diffable JSON document describing a run (or a family of
/// runs): RunResult counters, Trace summaries, the RoundProfiler's
/// per-round series and phase spans, and a MetricsRegistry snapshot, all
/// merged under a schema version.
///
/// Determinism contract (DESIGN.md §10): a report contains only
/// seed-deterministic quantities — no wall-clock time, no host names, no
/// thread counts — and every collection serializes in a content-derived
/// order. Two runs of the same seeded workload therefore produce
/// byte-identical documents, for any Engine::set_threads value; CI diffs
/// them directly.
class RunReport {
 public:
  class Section {
   public:
    explicit Section(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    /// Attach a string label (labels serialize sorted by key).
    void set_label(const std::string& key, const std::string& value);
    /// Did the workload succeed (self-check against ground truth)?
    void set_outcome(bool success);
    /// The run's final counters.
    void set_result(const net::RunResult& result);
    /// Summarize `trace` (top `top_edges` busiest edges).
    void set_trace(const net::Trace& trace, std::size_t top_edges = 8);
    /// Copy the profiler's per-round series and phase spans.
    void set_profile(const RoundProfiler& profiler);
    /// Snapshot `registry` (copied; empty registries serialize as absent).
    void set_metrics(const MetricsRegistry& registry);

    void write_json(JsonWriter& writer) const;

   private:
    std::string name_;
    std::map<std::string, std::string> labels_;
    std::optional<bool> success_;
    std::optional<net::RunResult> result_;
    std::optional<TraceSummary> trace_;
    std::vector<RoundProfiler::RoundSample> rounds_;
    std::vector<RoundProfiler::PhaseSpan> phases_;
    bool has_profile_ = false;
    MetricsRegistry metrics_;
  };

  explicit RunReport(std::string producer) : producer_(std::move(producer)) {}

  void set_producer(const std::string& producer) { producer_ = producer; }
  const std::string& producer() const { return producer_; }

  Section& add_section(std::string name);
  const std::vector<Section>& sections() const { return sections_; }
  bool empty() const { return sections_.empty(); }
  void clear() { sections_.clear(); }

  /// The full schema-versioned document. Always valid JSON (the writer
  /// maps non-finite numbers to null); asserted by json_valid in tests.
  std::string to_json() const;

  /// Write to_json() to `path`. Returns false (and sets *error) on I/O
  /// failure instead of throwing — report emission must never take down a
  /// finished run.
  bool write(const std::string& path, std::string* error = nullptr) const;

 private:
  std::string producer_;
  std::vector<Section> sections_;
};

/// Serialize a RunResult as a JSON object (shared by report sections and
/// the tools that embed bare results).
void write_run_result_json(JsonWriter& writer, const net::RunResult& result);

/// Build a TraceSummary from a live trace.
TraceSummary summarize_trace(const net::Trace& trace, std::size_t top_edges = 8);

}  // namespace qcongest::obs
