// End-to-end benchmark of qcongest. Usage:
//   qcongest_perfbench --workload svc-cold|paper-sweep --seed N
//                      --seconds S --trace 0|1 --tmp-dir DIR [--trace-out FILE]
//   qcongest_perfbench --self-test
// Prints metric lines, then one JSON object as the last line of stdout, and
// exits 0; usage errors and failed set-up exit non-zero without a result.
// With --setup-probe (which the program passes to copies of itself) it only
// does the workload's set-up and prints when it was ready.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/bench.hpp"

namespace {

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::stoull(text);
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr, "qcongest_perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return perfbench::run_self_tests();
    if (flag == "--setup-probe") {
      opt.setup_probe = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, &n)) {
      opt.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, &n) && n >= 1 && n <= 600) {
      opt.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      opt.trace = value == "1";
    } else if (flag == "--tmp-dir") {
      opt.tmp_root = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (!have_workload || opt.tmp_root.empty()) return usage("need --workload and --tmp-dir");

  perfbench::Results results;
  try {
    if (opt.workload == "svc-cold") {
      perfbench::run_service_workload(opt, &results);
    } else if (opt.workload == "paper-sweep") {
      perfbench::run_sweep_workload(opt, &results);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qcongest_perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.setup_probe) return 0;
  // A printed result is a finished run, failed checks included: the JSON
  // says "correct": false and names the count in "failed".
  results.print();
  return 0;
}
