#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>

#include "perfbench/bench.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Results::add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    fail_check("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Results::note(const std::string& line) { notes_.push_back(line); }

void Results::attempt(std::size_t count, std::size_t failed) {
  attempted_ += count;
  failed_ += failed;
}

void Results::fail_check(const std::string& what) {
  ++attempted_;
  ++failed_;
  notes_.push_back("CHECK FAILED: " + what);
}

void Results::print() const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  for (const Metric& m : metrics_) {
    std::printf("%-32s %16s %s\n", m.name.c_str(), format_number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::size_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += json_string(m.name) + ": {\"value\": " + format_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool percentile(std::vector<double> values, double q, double* out) {
  if (values.empty() || q <= 0.0 || q >= 1.0) return false;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Nearest rank: the smallest value with at least q*n samples at or below.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < 10) return false;  // fewer than ten samples beyond it
  *out = values[rank - 1];
  return true;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> probe_setups(const Options& opt) {
  constexpr int kProbes = 7;  // odd, so the median is one measured sample
  std::vector<char> exe(4096);
  const ssize_t len = ::readlink("/proc/self/exe", exe.data(), exe.size() - 1);
  if (len <= 0) throw std::runtime_error("set-up probe: cannot find this program");
  exe[static_cast<std::size_t>(len)] = '\0';
  std::vector<std::string> args = {exe.data(), "--setup-probe", "--workload", opt.workload,
                                   "--seed", std::to_string(opt.seed), "--seconds",
                                   format_number(opt.seconds), "--trace",
                                   opt.trace ? "1" : "0", "--tmp-dir", opt.tmp_root};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::vector<double> samples;
  for (int rep = 0; rep < kProbes; ++rep) {
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("set-up probe: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    pid_t pid = 0;
    const Clock::time_point spawned = Clock::now();
    const int rc = ::posix_spawn(&pid, exe.data(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    std::string text;
    char buf[128];
    while (rc == 0) {
      const ssize_t n = ::read(out[0], buf, sizeof(buf));
      if (n > 0) {
        text.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
    ::close(out[0]);
    int status = 0;
    while (rc == 0 && ::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    long long ready_ns = 0;
    if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        std::sscanf(text.c_str(), "setup_ready_ns=%lld", &ready_ns) != 1) {
      throw std::runtime_error("set-up probe " + std::to_string(rep) + " failed");
    }
    // steady_clock is CLOCK_MONOTONIC, one clock for every process.
    const Clock::time_point ready{std::chrono::duration_cast<Clock::duration>(
        std::chrono::nanoseconds(ready_ns))};
    samples.push_back(std::chrono::duration<double>(ready - spawned).count());
  }
  return samples;
}

void report_setup_ready() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      Clock::now().time_since_epoch());
  std::printf("setup_ready_ns=%lld\n", static_cast<long long>(ns.count()));
  std::fflush(stdout);
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

SpanLog::SpanLog() { spans_.reserve(1 << 16); }

void SpanLog::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out = std::move(spans_);
  spans_.clear();
  return out;
}

bool SpanLog::write_jsonl(const std::string& path, Clock::time_point epoch) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"name\": \""
        << s.name << "\", \"job\": " << s.job
        << ", \"start_us\": " << format_number(us_between(epoch, s.start))
        << ", \"end_us\": " << format_number(us_between(epoch, s.end)) << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, std::int64_t job,
                       std::uint64_t parent)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.id = log_->next_id();
  span_.parent = parent;
  span_.name = name;
  span_.job = job;
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end = Clock::now();
  log_->record(span_);
}

std::vector<std::pair<std::string, SpanTotals>> span_totals(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, double> child_us;  // parent id -> covered time
  for (const Span& s : spans) {
    if (s.parent != 0) child_us[s.parent] += us_between(s.start, s.end);
  }
  std::map<std::string, SpanTotals> by_name;
  for (const Span& s : spans) {
    SpanTotals& t = by_name[s.name];
    const double d = us_between(s.start, s.end);
    ++t.count;
    t.total_us += d;
    auto it = child_us.find(s.id);
    t.self_us += d - (it == child_us.end() ? 0.0 : it->second);
  }
  return {by_name.begin(), by_name.end()};
}

std::vector<double> open_loop_schedule(std::uint64_t seed, double rate,
                                       std::size_t count) {
  std::mt19937_64 rng(mix64(seed ^ 0x5ced01eULL));
  std::uniform_real_distribution<double> gap(0.5 / rate, 1.5 / rate);
  std::vector<double> due;
  due.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gap(rng);
    due.push_back(t);
  }
  return due;
}

Lateness lateness(const std::vector<double>& due_s, const std::vector<double>& sent_s) {
  Lateness out;
  const std::size_t n = std::min(due_s.size(), sent_s.size());
  out.late_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double late = sent_s[i] - due_s[i];
    if (late > 1e-3) ++out.late_jobs;
    out.late_ms.push_back(std::max(0.0, late) * 1e3);
  }
  return out;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
