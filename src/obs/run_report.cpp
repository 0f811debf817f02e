#include "src/obs/run_report.hpp"

#include <fstream>

namespace qcongest::obs {

TraceSummary summarize_trace(const net::Trace& trace, std::size_t top_edges) {
  TraceSummary summary;
  summary.total = trace.size();
  summary.per_round = trace.per_round_counts();
  summary.busiest = trace.busiest_edges(top_edges);
  summary.per_tag = trace.per_tag_counts();
  return summary;
}

void write_run_result_json(JsonWriter& writer, const net::RunResult& result) {
  writer.begin_object();
  writer.key("rounds").value(result.rounds);
  writer.key("completed").value(result.completed);
  writer.key("messages").value(result.messages);
  writer.key("classical_words").value(result.classical_words);
  writer.key("quantum_words").value(result.quantum_words);
  writer.key("max_edge_words").value(result.max_edge_words);
  writer.key("cut_words").value(result.cut_words);
  writer.key("dropped_words").value(result.dropped_words);
  writer.key("corrupted_words").value(result.corrupted_words);
  writer.key("duplicated_words").value(result.duplicated_words);
  writer.key("retransmissions").value(result.retransmissions);
  writer.key("crashed_nodes").value(result.crashed_nodes);
  writer.key("recovery_words").value(result.recovery_words);
  writer.key("recovery_rounds").value(result.recovery_rounds);
  writer.end_object();
}

void RunReport::Section::set_label(const std::string& key, const std::string& value) {
  labels_[key] = value;
}

void RunReport::Section::set_outcome(bool success) { success_ = success; }

void RunReport::Section::set_result(const net::RunResult& result) {
  result_ = result;
}

void RunReport::Section::set_trace(const net::Trace& trace, std::size_t top_edges) {
  trace_ = summarize_trace(trace, top_edges);
}

void RunReport::Section::set_profile(const RoundProfiler& profiler) {
  rounds_ = profiler.rounds();
  phases_ = profiler.phases();
  has_profile_ = true;
}

void RunReport::Section::set_metrics(const MetricsRegistry& registry) {
  metrics_ = registry;
}

namespace {

/// Emit one per-round series as "name": [v0, v1, ...].
template <typename Member>
void write_series(JsonWriter& writer, const char* name,
                  const std::vector<RoundProfiler::RoundSample>& rounds,
                  Member member) {
  writer.key(name).begin_array();
  for (const RoundProfiler::RoundSample& s : rounds) writer.value(s.*member);
  writer.end_array();
}

}  // namespace

void RunReport::Section::write_json(JsonWriter& writer) const {
  writer.begin_object();
  writer.key("name").value(name_);
  if (!labels_.empty()) {
    writer.key("labels").begin_object();
    for (const auto& [key, value] : labels_) writer.key(key).value(value);
    writer.end_object();
  }
  if (success_.has_value()) writer.key("success").value(*success_);
  if (result_.has_value()) {
    writer.key("result");
    write_run_result_json(writer, *result_);
  }
  if (has_profile_) {
    writer.key("round_series").begin_object();
    using Sample = RoundProfiler::RoundSample;
    write_series(writer, "sent", rounds_, &Sample::sent);
    write_series(writer, "delivered", rounds_, &Sample::delivered);
    write_series(writer, "dropped", rounds_, &Sample::dropped);
    write_series(writer, "corrupted", rounds_, &Sample::corrupted);
    write_series(writer, "duplicated", rounds_, &Sample::duplicated);
    write_series(writer, "retransmissions", rounds_, &Sample::retransmissions);
    write_series(writer, "quantum_words", rounds_, &Sample::quantum_words);
    writer.end_object();
    writer.key("phases").begin_array();
    for (const RoundProfiler::PhaseSpan& span : phases_) {
      writer.begin_object();
      writer.key("name").value(span.name);
      writer.key("first_round").value(span.first_round);
      writer.key("rounds").value(span.rounds);
      writer.key("runs").value(span.runs);
      writer.key("sent").value(span.sent);
      writer.key("delivered").value(span.delivered);
      writer.key("dropped").value(span.dropped);
      writer.key("retransmissions").value(span.retransmissions);
      writer.end_object();
    }
    writer.end_array();
  }
  if (trace_.has_value()) {
    writer.key("trace").begin_object();
    writer.key("total").value(trace_->total);
    writer.key("per_round").begin_array();
    for (std::size_t c : trace_->per_round) writer.value(c);
    writer.end_array();
    writer.key("busiest_edges").begin_array();
    for (const auto& [edge, count] : trace_->busiest) {
      writer.begin_object();
      writer.key("from").value(edge.first);
      writer.key("to").value(edge.second);
      writer.key("count").value(count);
      writer.end_object();
    }
    writer.end_array();
    writer.key("per_tag").begin_array();
    for (const auto& [tag, count] : trace_->per_tag) {
      writer.begin_object();
      writer.key("tag").value(tag);
      writer.key("count").value(count);
      writer.end_object();
    }
    writer.end_array();
    writer.end_object();
  }
  if (!metrics_.empty()) {
    writer.key("metrics");
    metrics_.write_json(writer);
  }
  writer.end_object();
}

RunReport::Section& RunReport::add_section(std::string name) {
  sections_.emplace_back(std::move(name));
  return sections_.back();
}

std::string RunReport::to_json() const {
  JsonWriter writer;
  writer.begin_object();
  writer.key("schema_version").value(kReportSchemaVersion);
  writer.key("producer").value(producer_);
  writer.key("deterministic").value(true);
  writer.key("sections").begin_array();
  for (const Section& section : sections_) section.write_json(writer);
  writer.end_array();
  writer.end_object();
  return writer.str() + "\n";
}

bool RunReport::write(const std::string& path, std::string* error) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << to_json();
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace qcongest::obs
