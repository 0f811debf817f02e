// Shared entry point for every benchmark binary: runs the registered
// benchmarks with the usual console output, then emits a machine-readable
// BENCH_<binary>.json next to the working directory (override the directory
// with QCONGEST_BENCH_JSON_DIR; trailing slashes are normalized away). The
// JSON carries, per benchmark run, the wall-clock per iteration plus every
// user counter (measured / bound / ratio from bench::report), which is what
// tools/perf_gate consumes in the CI perf-smoke job. Non-finite counter
// values (NaN, +-Inf) have no JSON representation and are serialized as
// null with a warning — previously they were printed raw, which produced
// documents perf_gate and python3 -m json.tool could not parse.
//
// Benchmarks that deposit run-report sections into bench::session_report()
// additionally get a REPORT_<binary>.json: a schema-versioned, fully
// deterministic document (no timings) that CI byte-compares across runs.
//
// A run that called SkipWithError is left out of the JSON and makes the
// binary exit 1 after both documents are written, so a bench that checks
// its own result (BM_DenseGateKernels diffs the SIMD and scalar kernels)
// fails the CI step that runs it.
//
// This replaces benchmark::benchmark_main because the library version we
// build against has no per-run name hook usable from inside a benchmark
// body; a reporter subclass is the supported way to see final run results.

#include <benchmark/benchmark.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/obs/json.hpp"
#include "src/util/env.hpp"

namespace {

using qcongest::obs::json_escape;
using qcongest::obs::json_number;

/// Console output as usual, plus a copy of every finished run for the JSON
/// dump after the session.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<Run> collected;

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) collected.push_back(run);
    ConsoleReporter::ReportRuns(report);
  }
};

std::string binary_name(const char* argv0) {
  std::string path = argv0 != nullptr ? argv0 : "bench";
  std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string output_path(const std::string& file) {
  std::string dir =
      qcongest::util::env_directory(std::getenv("QCONGEST_BENCH_JSON_DIR"));
  return dir.empty() ? file : dir + "/" + file;
}

void write_json(const std::string& binary,
                const std::vector<benchmark::BenchmarkReporter::Run>& runs) {
  std::string path = output_path("BENCH_" + binary + ".json");
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  out << "{\n  \"schema_version\": 1,\n";
  out << "  \"binary\": \"" << json_escape(binary) << "\",\n";
  out << "  \"benchmarks\": [\n";
  bool first = true;
  for (const auto& run : runs) {
    if (run.error_occurred) continue;
    if (!first) out << ",\n";
    first = false;
    const double iterations = run.iterations > 0
                                  ? static_cast<double>(run.iterations)
                                  : 1.0;
    out << "    {\n";
    out << "      \"name\": \"" << json_escape(run.benchmark_name()) << "\",\n";
    out << "      \"iterations\": " << run.iterations << ",\n";
    out << "      \"real_time_ns\": "
        << json_number(run.real_accumulated_time * 1e9 / iterations) << ",\n";
    out << "      \"cpu_time_ns\": "
        << json_number(run.cpu_accumulated_time * 1e9 / iterations);
    for (const auto& [name, counter] : run.counters) {
      if (!std::isfinite(counter.value)) {
        std::cerr << "warning: " << run.benchmark_name() << ": counter '" << name
                  << "' is non-finite (" << counter.value
                  << "); serialized as null\n";
      }
      out << ",\n      \"" << json_escape(name)
          << "\": " << json_number(counter.value);
    }
    out << "\n    }";
  }
  out << "\n  ]\n}\n";
}

void write_report(const std::string& binary) {
  qcongest::obs::RunReport& report = qcongest::bench::session_report();
  if (report.empty()) return;
  report.set_producer(binary);
  std::string path = output_path("REPORT_" + binary + ".json");
  std::string error;
  if (!report.write(path, &error)) {
    std::cerr << "warning: " << error << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string binary = binary_name(argc > 0 ? argv[0] : nullptr);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  write_json(binary, reporter.collected);
  write_report(binary);
  benchmark::Shutdown();
  int status = 0;
  for (const auto& run : reporter.collected) {
    if (!run.error_occurred) continue;
    std::cerr << "error: " << run.benchmark_name() << ": " << run.error_message
              << "\n";
    status = 1;
  }
  return status;
}
