// Self-tests of the benchmark's own logic: run with --self-test.

#include <cmath>
#include <cstdio>
#include <string>

#include "perfbench/bench.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("self-test FAILED: %s\n", what.c_str());
  }
}

void generator_is_deterministic_and_valid() {
  const SpecGenerator a(42), b(42), c(43);
  std::size_t differ = 0;
  for (std::size_t i = 0; i < 2 * SpecGenerator::kBlock; ++i) {
    const std::string ta = spec_text(a.make(i));
    expect(ta == spec_text(b.make(i)), "spec " + std::to_string(i) + " differs per seed");
    if (ta != spec_text(c.make(i))) ++differ;
    // The wire text must parse back and pass the service's own validation.
    qcongest::serve::JobSpec parsed;
    std::string error;
    expect(qcongest::serve::parse_job_spec(ta, &parsed, &error) &&
               qcongest::serve::validate_job_spec(parsed, qcongest::serve::JobLimits{},
                                                  &error),
           "spec " + std::to_string(i) + " rejected: " + error);
    expect(parsed.threads == 1, "spec " + std::to_string(i) + " must use threads=1");
    expect(parsed.nodes >= SpecGenerator::kMinNodes &&
               parsed.nodes <= SpecGenerator::node_cap(parsed.graph),
           "spec " + std::to_string(i) + " outside its family's node range");
  }
  expect(differ > SpecGenerator::kBlock, "seeds 42 and 43 give near-identical specs");
}

void percentile_refuses_thin_tails() {
  std::vector<double> values;
  for (int i = 1; i <= 999; ++i) values.push_back(i);
  double p = 0.0;
  // 999 samples: rank 990, only 9 beyond it.
  expect(!percentile(values, 0.99, &p), "p99 of 999 samples must be refused");
  values.push_back(1000);
  expect(percentile(values, 0.99, &p) && p == 990.0, "p99 of 1..1000 must be 990");
  expect(percentile(values, 0.5, &p) && p == 500.0, "p50 of 1..1000 must be 500");
  expect(!percentile({1, 2, 3}, 0.5, &p), "p50 of 3 samples must be refused");
}

void schedule_lateness_is_counted() {
  const std::vector<double> due = {0.010, 0.020, 0.030, 0.040};
  const std::vector<double> sent = {0.010, 0.025, 0.029, 0.0415};
  const Lateness late = lateness(due, sent);
  expect(late.late_jobs == 2, "two of four sends are more than 1 ms late");
  expect(late.late_ms.size() == 4, "one lateness per job");
  expect(std::abs(late.late_ms[1] - 5.0) < 1e-9, "job 1 is 5 ms late");
  expect(late.late_ms[2] == 0.0, "an early send is not late");
  expect(std::abs(late.late_ms[3] - 1.5) < 1e-9, "job 3 is 1.5 ms late");
  const std::vector<double> s1 = open_loop_schedule(7, 100.0, 500);
  const std::vector<double> s2 = open_loop_schedule(7, 100.0, 500);
  expect(s1 == s2, "the schedule is a function of the seed");
  bool increasing = true;
  for (std::size_t i = 1; i < s1.size(); ++i) increasing = increasing && s1[i] > s1[i - 1];
  expect(increasing, "due times increase");
  const double rate = static_cast<double>(s1.size()) / s1.back();
  expect(rate > 80.0 && rate < 120.0, "500 arrivals at 100/s average near 100/s");
}

}  // namespace

int run_self_tests() {
  generator_is_deterministic_and_valid();
  percentile_refuses_thin_tails();
  schedule_lateness_is_counted();
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
