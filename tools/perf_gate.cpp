// perf_gate — the CI perf-smoke comparator. Reads two BENCH_*.json files
// (the format bench/json_main.cpp emits: one object per benchmark run with
// "name", "real_time_ns", and the user counters) and fails when the current
// run regresses against the committed baseline:
//
//   * wall-clock: current real_time_ns > threshold × baseline (default
//     1.25, i.e. a >25% regression fails). Runs faster than --min-ns
//     (default 1e6 ns) in the baseline are skipped — sub-millisecond
//     timings are noise, not signal.
//   * deterministic counters (rounds, words, batches, measured, bound,
//     retransmissions, gate_ops, gate_passes): any drift at all fails.
//     These are seeded round and word counts, circuit sizes and
//     kernel-call counts, identical on every machine, so they catch
//     algorithmic cost regressions even when the runner is faster than
//     the machine that recorded the baseline (which makes the wall-clock
//     gate lenient, never spurious).
//
// With --report the two files are REPORT_*.json run reports instead
// (src/obs/run_report.hpp): schema-versioned documents whose determinism
// contract says equal seeded workloads serialize byte-identically. The gate
// then validates both documents as JSON (obs::json_valid) and requires them
// to be byte-identical — any drift in round series, phase spans, trace
// digests, or metrics is a behavioural change and fails, with the first
// differing line printed.
//
// Either way the gate prints a per-benchmark before/after delta table
// (baseline ms, current ms, delta %, verdict) rather than bare pass/fail
// lines, so a CI log answers "what moved and by how much" directly.
// --markdown appends the same table as GitHub-flavored markdown (for the
// job summary); --history appends one line-JSON record of the deltas to a
// committed trajectory file (bench/baselines/PERF_HISTORY.jsonl), labelled
// via --label (the recording script passes the commit hash + date).
//
// Usage: perf_gate <baseline.json> <current.json>
//          [--threshold R] [--min-ns N] [--no-time] [--report]
//          [--markdown FILE] [--history FILE] [--label TEXT]
//
// Exit 0 when every benchmark present in the baseline passes; 1 on any
// regression or missing benchmark; 2 on usage/parse errors.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/util/parse.hpp"

namespace {

struct BenchRun {
  double real_time_ns = 0.0;
  std::map<std::string, double> counters;  // every other numeric field
};

/// Counters that are deterministic functions of the seed (round and word
/// counts, ledger totals, circuit op and kernel-call counts), so any drift
/// is a real behavioural change, not noise.
const char* kExactCounters[] = {"measured", "bound",    "ratio",       "rounds",
                                "words",    "batches",  "retransmissions",
                                "gate_ops", "gate_passes"};

bool exact_counter(const std::string& name) {
  for (const char* c : kExactCounters) {
    if (name == c) return true;
  }
  return false;
}

/// Parse the pretty-printed JSON json_main.cpp writes: one "key": value
/// field per line. A "name" field starts a new run; numeric fields attach
/// to the current run. This is not a general JSON parser on purpose — the
/// gate owns both ends of the format.
std::map<std::string, BenchRun> parse_bench_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<std::string, BenchRun> runs;
  std::string current;
  std::string line;
  while (std::getline(in, line)) {
    std::size_t key_open = line.find('"');
    if (key_open == std::string::npos) continue;
    std::size_t key_close = line.find('"', key_open + 1);
    if (key_close == std::string::npos) continue;
    std::string key = line.substr(key_open + 1, key_close - key_open - 1);
    std::size_t colon = line.find(':', key_close);
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    // Trim whitespace and the trailing comma of all-but-last fields.
    while (!value.empty() && (value.back() == ',' || value.back() == ' ' ||
                              value.back() == '\r')) {
      value.pop_back();
    }
    std::size_t first = value.find_first_not_of(' ');
    if (first == std::string::npos) continue;
    value = value.substr(first);
    if (key == "binary" || key == "benchmarks") continue;
    if (key == "name") {
      std::size_t open = value.find('"');
      std::size_t close = value.rfind('"');
      if (open == std::string::npos || close <= open) continue;
      current = value.substr(open + 1, close - open - 1);
      runs[current] = BenchRun{};
      continue;
    }
    if (current.empty()) continue;
    char* end = nullptr;
    double number = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) continue;  // not numeric
    if (key == "real_time_ns") {
      runs[current].real_time_ns = number;
    } else {
      runs[current].counters[key] = number;
    }
  }
  if (runs.empty()) throw std::runtime_error("no benchmark runs in " + path);
  return runs;
}

int usage() {
  std::cerr << "usage: perf_gate <baseline.json> <current.json>"
            << " [--threshold R] [--min-ns N] [--no-time] [--report]\n"
            << "         [--markdown FILE] [--history FILE] [--label TEXT]\n";
  return 2;
}

/// One delta-table line: the before/after comparison of a single benchmark.
struct DeltaRow {
  std::string name;
  double base_ns = 0.0;
  double cur_ns = 0.0;
  bool timed = false;      // baseline met --min-ns and --no-time is off
  bool time_fail = false;  // timed and ratio exceeded the threshold
  bool missing = false;    // benchmark absent from the current run
  std::vector<std::string> drifted;  // exact-counter drift descriptions

  double ratio() const { return base_ns > 0.0 ? cur_ns / base_ns : 0.0; }
  bool failed() const { return missing || time_fail || !drifted.empty(); }
};

std::string format_ms(double ns) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(2);
  out << ns / 1e6 << "ms";
  return out.str();
}

std::string format_delta(const DeltaRow& row) {
  if (row.missing || row.base_ns <= 0.0) return "--";
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(1);
  double pct = (row.ratio() - 1.0) * 100.0;
  if (pct >= 0.0) out << "+";
  out << pct << "%";
  return out.str();
}

std::string verdict(const DeltaRow& row) {
  if (row.missing) return "MISSING";
  if (row.time_fail && !row.drifted.empty()) return "FAIL time+counters";
  if (row.time_fail) return "FAIL time";
  if (!row.drifted.empty()) return "FAIL counters";
  if (!row.timed) return "ok (untimed)";
  return "ok";
}

/// Plain-text delta table on stdout: one aligned row per baseline
/// benchmark, counter drift detail lines underneath their row.
void print_table(const std::vector<DeltaRow>& rows) {
  std::size_t name_w = std::string("benchmark").size();
  for (const DeltaRow& row : rows) name_w = std::max(name_w, row.name.size());
  std::cout << std::left << std::setw(static_cast<int>(name_w)) << "benchmark"
            << "  " << std::right << std::setw(12) << "baseline"
            << std::setw(12) << "current" << std::setw(9) << "delta"
            << "  verdict\n";
  for (const DeltaRow& row : rows) {
    std::cout << std::left << std::setw(static_cast<int>(name_w)) << row.name
              << "  " << std::right << std::setw(12) << format_ms(row.base_ns)
              << std::setw(12) << (row.missing ? "--" : format_ms(row.cur_ns))
              << std::setw(9) << format_delta(row) << "  " << verdict(row)
              << "\n";
    for (const std::string& drift : row.drifted) {
      std::cout << std::left << std::setw(static_cast<int>(name_w)) << ""
                << "  ! " << drift << "\n";
    }
  }
}

/// The same table as GitHub-flavored markdown, appended to `path` so CI can
/// accumulate tables from several gate invocations into one job summary.
void append_markdown(const std::string& path, const std::string& baseline_file,
                     const std::vector<DeltaRow>& rows) {
  std::ofstream out(path, std::ios::app);
  if (!out) throw std::runtime_error("cannot append markdown to " + path);
  out << "\n#### perf trajectory: `" << baseline_file << "`\n\n"
      << "| benchmark | baseline | current | delta | verdict |\n"
      << "| --- | ---: | ---: | ---: | --- |\n";
  for (const DeltaRow& row : rows) {
    out << "| `" << row.name << "` | " << format_ms(row.base_ns) << " | "
        << (row.missing ? std::string("--") : format_ms(row.cur_ns)) << " | "
        << format_delta(row) << " | " << verdict(row);
    for (const std::string& drift : row.drifted) out << "<br>" << drift;
    out << " |\n";
  }
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

/// Extract the string value of `key` ("label" or "baseline") of one
/// history record written by append_history below (the gate owns both
/// ends of the format). Empty when the line carries no such field.
std::string history_field(const std::string& line, const std::string& key) {
  const std::string marker = "\"" + key + "\": \"";
  std::size_t start = line.find(marker);
  if (start == std::string::npos) return "";
  start += marker.size();
  std::string value;
  for (std::size_t i = start; i < line.size(); ++i) {
    if (line[i] == '\\') {
      ++i;
      if (i < line.size()) value.push_back(line[i]);
      continue;
    }
    if (line[i] == '"') return value;
    value.push_back(line[i]);
  }
  return "";
}

/// One line-JSON trajectory record per gate invocation, merged into the
/// committed history file. Timings are per-run snapshots; the committed
/// sequence of records is the perf trajectory the run-reports job renders.
///
/// The merge keeps the file healthy instead of trusting it blindly:
/// malformed lines (a truncated append, a botched conflict resolution) are
/// dropped with a warning rather than aborting the gate, and an earlier
/// record with this label and this baseline file is replaced — re-running
/// the gate on the same commit updates its record instead of stuttering
/// the trajectory, while one label still keeps a record per baseline file
/// (a re-record gates every BENCH_*.json under one label).
void append_history(const std::string& path, const std::string& label,
                    const std::string& baseline_file,
                    const std::vector<DeltaRow>& rows) {
  std::vector<std::string> kept;
  {
    std::ifstream in(path);
    std::string line;
    std::size_t line_number = 0;
    while (in && std::getline(in, line)) {
      ++line_number;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      if (!qcongest::obs::json_valid(line)) {
        std::cerr << "perf_gate: warning: " << path << ":" << line_number
                  << ": skipping malformed history line\n";
        continue;
      }
      if (!label.empty() && history_field(line, "label") == label &&
          history_field(line, "baseline") == baseline_file) {
        continue;  // dedupe
      }
      kept.push_back(line);
    }
  }

  std::ostringstream record;
  record << "{\"label\": \"" << json_escape(label) << "\", \"baseline\": \""
         << json_escape(baseline_file) << "\", \"runs\": [";
  bool first = true;
  record.setf(std::ios::fixed);
  record.precision(0);
  for (const DeltaRow& row : rows) {
    if (row.missing) continue;
    if (!first) record << ", ";
    first = false;
    std::ostringstream ratio;
    ratio.setf(std::ios::fixed);
    ratio.precision(4);
    ratio << row.ratio();
    record << "{\"name\": \"" << json_escape(row.name) << "\", \"baseline_ns\": "
           << row.base_ns << ", \"current_ns\": " << row.cur_ns
           << ", \"ratio\": " << ratio.str() << "}";
  }
  record << "]}";
  kept.push_back(record.str());

  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write history to " + path);
  for (const std::string& line : kept) out << line << "\n";
  out.flush();
  if (!out) throw std::runtime_error("short write to " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// --report mode: both documents must be valid JSON and byte-identical
/// (run reports contain only seed-deterministic fields, so equality is the
/// specified behaviour, not a flaky hope).
int compare_reports(const std::string& baseline_path, const std::string& current_path) {
  std::string baseline, current;
  try {
    baseline = read_file(baseline_path);
    current = read_file(current_path);
  } catch (const std::exception& e) {
    std::cerr << "perf_gate: " << e.what() << "\n";
    return 2;
  }
  std::string error;
  if (!qcongest::obs::json_valid(baseline, &error)) {
    std::cerr << "perf_gate: " << baseline_path << ": invalid JSON: " << error << "\n";
    return 2;
  }
  if (!qcongest::obs::json_valid(current, &error)) {
    std::cerr << "perf_gate: " << current_path << ": invalid JSON: " << error << "\n";
    return 2;
  }
  if (baseline == current) {
    std::cout << "perf_gate: reports are byte-identical (" << baseline.size()
              << " bytes)\n";
    return 0;
  }
  std::istringstream base_lines(baseline), cur_lines(current);
  std::string base_line, cur_line;
  std::size_t line_no = 0;
  while (true) {
    ++line_no;
    bool base_ok = static_cast<bool>(std::getline(base_lines, base_line));
    bool cur_ok = static_cast<bool>(std::getline(cur_lines, cur_line));
    if (!base_ok && !cur_ok) break;
    if (!base_ok || !cur_ok || base_line != cur_line) {
      std::cerr << "FAIL  reports differ at line " << line_no << ":\n"
                << "  baseline: " << (base_ok ? base_line : "<end of file>") << "\n"
                << "  current:  " << (cur_ok ? cur_line : "<end of file>") << "\n";
      break;
    }
  }
  std::cerr << "perf_gate: run report drifted from " << baseline_path << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  double threshold = 1.25;
  double min_ns = 1e6;
  bool check_time = true;
  bool report_mode = false;
  std::string markdown_path;
  std::string history_path;
  std::string label;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if ((arg == "--threshold" || arg == "--min-ns") && i + 1 < argc) {
      const std::string value = argv[++i];
      if (!qcongest::util::parse_decimal(
              value, arg == "--threshold" ? &threshold : &min_ns)) {
        std::cerr << "perf_gate: bad " << arg << ": " << value << "\n";
        return 2;
      }
    } else if (arg == "--no-time") {
      check_time = false;
    } else if (arg == "--report") {
      report_mode = true;
    } else if (arg == "--markdown" && i + 1 < argc) {
      markdown_path = argv[++i];
    } else if (arg == "--history" && i + 1 < argc) {
      history_path = argv[++i];
    } else if (arg == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return usage();
  if (report_mode) return compare_reports(positional[0], positional[1]);

  std::map<std::string, BenchRun> baseline, current;
  try {
    baseline = parse_bench_json(positional[0]);
    current = parse_bench_json(positional[1]);
  } catch (const std::exception& e) {
    std::cerr << "perf_gate: " << e.what() << "\n";
    return 2;
  }

  std::vector<DeltaRow> rows;
  rows.reserve(baseline.size());
  for (const auto& [name, base] : baseline) {
    DeltaRow row;
    row.name = name;
    row.base_ns = base.real_time_ns;
    auto it = current.find(name);
    if (it == current.end()) {
      row.missing = true;
      rows.push_back(std::move(row));
      continue;
    }
    const BenchRun& cur = it->second;
    row.cur_ns = cur.real_time_ns;
    row.timed = check_time && base.real_time_ns >= min_ns;
    row.time_fail = row.timed && row.ratio() > threshold;

    for (const auto& [counter, expected] : base.counters) {
      if (!exact_counter(counter)) continue;
      auto cit = cur.counters.find(counter);
      std::ostringstream drift;
      drift.precision(12);
      if (cit == cur.counters.end()) {
        drift << "counter '" << counter << "' missing from current run";
      } else if (std::abs(cit->second - expected) >
                 1e-9 * std::max(1.0, std::abs(expected))) {
        drift << "counter '" << counter << "' drifted " << expected << " -> "
              << cit->second;
      } else {
        continue;
      }
      row.drifted.push_back(drift.str());
    }
    rows.push_back(std::move(row));
  }

  print_table(rows);
  try {
    if (!markdown_path.empty()) append_markdown(markdown_path, positional[0], rows);
    if (!history_path.empty()) append_history(history_path, label, positional[0], rows);
  } catch (const std::exception& e) {
    std::cerr << "perf_gate: " << e.what() << "\n";
    return 2;
  }

  int failures = 0;
  for (const DeltaRow& row : rows) {
    if (!row.failed()) continue;
    ++failures;
    std::cerr << "FAIL  " << row.name << ": " << verdict(row) << "\n";
    for (const std::string& drift : row.drifted) {
      std::cerr << "      " << drift << "\n";
    }
  }
  if (failures > 0) {
    std::cerr << "perf_gate: " << failures << " regression(s) against "
              << positional[0] << " (threshold x" << threshold << ")\n";
    return 1;
  }
  std::cout << "perf_gate: all " << baseline.size() << " benchmarks within limits\n";
  return 0;
}
