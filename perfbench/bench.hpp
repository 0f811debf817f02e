#pragma once

// Shared pieces of the end-to-end benchmark (perfbench/main.cpp): the
// metric sink, the percentile helper, the span log of the traced runs, the
// seeded JobSpec generator and the open-loop schedule.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/serve/job.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_root;   // scratch space for caches and journals
  std::string trace_out;  // where the traced run writes its spans
  /// Run only the workload's set-up, then report_setup_ready() and exit:
  /// the child side of probe_setups.
  bool setup_probe = false;
};

/// Named metrics in insertion order, plus the run's pass/fail tally.
class Results {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// A human-readable line printed before the final JSON object.
  void note(const std::string& line);
  void attempt(std::size_t count, std::size_t failed);
  void fail_check(const std::string& what);

  /// Print every metric line, every note, then the one-line JSON result.
  void print() const;
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Nearest-rank percentile `q` (0 < q < 1) of `values`. Refuses (returns
/// false) when fewer than ten samples lie beyond the percentile's rank, so
/// a tail figure is never read off a handful of points.
bool percentile(std::vector<double> values, double q, double* out);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Set-up time, in seconds, of seven fresh copies of this program run one
/// after another. Each copy gets `options` plus --setup-probe, does the
/// workload's set-up and calls report_setup_ready(); a sample runs from the
/// spawn to that call, so loading, static initialisation and first-touch
/// page faults are in every sample. Throws if a copy fails.
std::vector<double> probe_setups(const Options& options);
/// In a --setup-probe copy: print the steady-clock time (ns) at which the
/// first timed job would start.
void report_setup_ready();

/// Peak resident set of this process, MiB.
double peak_rss_mib();
/// CPU seconds (user + system) this process has used.
double cpu_seconds();

/// One traced interval: a call into a layer, made on behalf of one job.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = top-level
  const char* name = "";
  std::int64_t job = -1;     // -1 = not tied to a job
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store shared by the threads of a traced run; written out
/// as JSON lines after the run ends.
class SpanLog {
 public:
  SpanLog();
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const Span& span);
  std::vector<Span> take();
  bool write_jsonl(const std::string& path, Clock::time_point epoch) const;

 private:
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, records on destruction. A null log
/// makes it a no-op, which is how the untraced code paths share code.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t job,
             std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

/// Per-name aggregate of a span list: count, summed duration and summed
/// self time (duration minus what its child spans cover), in microseconds.
struct SpanTotals {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::vector<std::pair<std::string, SpanTotals>> span_totals(
    const std::vector<Span>& spans);

// ---------------------------------------------------------------- specs

/// Seeded JobSpec generator over the nine registry apps and the seven graph
/// families. Spec i is a pure function of (seed, i). Jobs come in blocks
/// of 441 = 9 apps x 7 families x 7 class slots (4 clean, 2 faulty, 1
/// crash), each block a seeded shuffle of the same multiset of sizes and
/// fault rates, so every block costs about the same for any seed. Engine
/// seeds embed the index, so no two specs of one run share a cache key.
class SpecGenerator {
 public:
  explicit SpecGenerator(std::uint64_t seed);
  qcongest::serve::JobSpec make(std::size_t index) const;
  /// Largest node count the generator uses for `family`.
  static std::size_t node_cap(const std::string& family);
  static constexpr std::size_t kMinNodes = 16;
  static constexpr std::size_t kBlock = 9 * 7 * 7;

 private:
  std::uint64_t seed_;
};

/// Render a spec as the wire text qcongestd parses.
std::string spec_text(const qcongest::serve::JobSpec& spec);
/// A probability as qcongestd writes it ("%.6g"), on the wire and in
/// report labels.
std::string format_prob(double p);

// ------------------------------------------------------------ schedule

/// Seeded open-loop schedule at a fixed rate: `count` arrivals whose gaps
/// are 1/rate jittered uniformly by +-50%, as offsets in seconds from the
/// phase start.
std::vector<double> open_loop_schedule(std::uint64_t seed, double rate,
                                       std::size_t count);

/// How late a load generator sent, against its schedule: lateness of job i
/// is max(0, sent_i - due_i), in ms.
struct Lateness {
  std::vector<double> late_ms;
  std::size_t late_jobs = 0;  // sent more than 1 ms after their due time
};
Lateness lateness(const std::vector<double>& due_s,
                  const std::vector<double>& sent_s);

// ------------------------------------------------------------ workloads

void run_service_workload(const Options& options, Results* results);
void run_sweep_workload(const Options& options, Results* results);
int run_self_tests();

/// splitmix64: the benchmark's seed mixer.
std::uint64_t mix64(std::uint64_t x);

}  // namespace perfbench
