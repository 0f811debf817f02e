// paper-sweep: a fixed, seeded list of the paper's experiments, run one
// after another on one thread through their apps / framework / query entry
// points with default NetOptions (no taps, no faults). Exact algorithms are
// checked against ground truth (a mismatch fails the run); bounded-error
// ones are tallied in apps.sim_failed_share.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>

#include "perfbench/bench.hpp"
#include "src/apps/cycle_detection.hpp"
#include "src/apps/deutsch_jozsa.hpp"
#include "src/apps/eccentricity.hpp"
#include "src/apps/element_distinctness.hpp"
#include "src/apps/girth.hpp"
#include "src/apps/meeting_scheduling.hpp"
#include "src/apps/twoparty.hpp"
#include "src/framework/distributed_oracle.hpp"
#include "src/net/bfs.hpp"
#include "src/net/generators.hpp"
#include "src/quantum/circuit.hpp"
#include "src/query/gate_level.hpp"
#include "src/query/parallel_minfind.hpp"

namespace perfbench {

namespace {

namespace apps = qcongest::apps;
namespace net = qcongest::net;
namespace query = qcongest::query;
namespace quantum = qcongest::quantum;
using qcongest::util::Rng;

constexpr std::size_t kMinTrials = 1100;  // p99 with ten samples beyond it
constexpr unsigned kGateTimingWidth = 14;

/// Everything a pass reads, generated from the seed during set-up.
struct Inputs {
  std::vector<net::Graph> ecc;       // Lemma 21 topologies
  std::vector<net::Graph> avg_ecc;   // Lemma 22
  std::vector<apps::MeetingGadget> meeting;
  std::vector<apps::MeetingSchedulingResult> meeting_truth;
  std::vector<apps::NodeDistinctnessGadget> ed_nodes;
  std::vector<apps::DistinctnessGadget> ed_vector;
  std::vector<net::Graph> girth;     // Cor 26
  std::vector<std::size_t> girth_truth;
  std::vector<net::Graph> cycles;    // Lemma 23, girth-4 graphs
  std::vector<apps::DjGadget> dj;
  std::vector<std::vector<std::vector<query::Value>>> minfind_data;
  std::vector<std::vector<quantum::BasisState>> grover_marked;
};

constexpr std::size_t kMinfindNodes = 33;  // path, D = 32
constexpr std::size_t kMinfindSlots = 4096;
const std::size_t kParallelism[] = {1, 4, 16, 32};
const unsigned kGroverWidths[] = {12, 14, 16};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  Rng rng(mix64(seed));
  in.ecc.push_back(net::random_connected_graph(64, 3 * 64, rng));
  in.ecc.push_back(net::random_connected_graph(128, 3 * 128, rng));
  in.ecc.push_back(net::two_stars_graph(31, 31, 2));
  in.ecc.push_back(net::two_stars_graph(63, 63, 2));
  in.ecc.push_back(net::lollipop_graph(16, 16));
  in.avg_ecc.push_back(net::random_connected_graph(32, 32, rng));
  in.avg_ecc.push_back(net::path_graph(32));
  // Which gadgets intersect (collide, are balanced) is fixed, not drawn:
  // it changes what the algorithms do, and every seed should run one list.
  for (std::size_t k : {1024, 4096, 16384}) {
    in.meeting.push_back(apps::meeting_scheduling_gadget(k, 8, k != 4096, rng));
    in.meeting_truth.push_back(apps::meeting_scheduling_reference(in.meeting.back().calendars));
  }
  for (std::size_t set : {16, 32}) {
    in.ed_nodes.push_back(apps::distinctness_nodes_gadget(set, set == 16, rng));
  }
  for (std::size_t k : {128, 512}) {
    in.ed_vector.push_back(apps::distinctness_vector_gadget(k, 8, k == 512, rng));
  }
  for (auto [g, n] : {std::pair<std::size_t, std::size_t>{3, 64}, {5, 128}}) {
    in.girth.push_back(net::cycle_with_trees(g, n, rng));
    in.girth_truth.push_back(g);
  }
  for (std::size_t n : {64, 128}) in.cycles.push_back(net::cycle_with_trees(4, n, rng));
  for (std::size_t k : {256, 1024, 4096}) {
    in.dj.push_back(apps::deutsch_jozsa_gadget(k, 8, k != 1024, rng));
  }
  for (std::size_t t = 0; t < std::size(kParallelism); ++t) {
    std::vector<std::vector<query::Value>> data(kMinfindNodes,
                                                std::vector<query::Value>(kMinfindSlots, 0));
    for (std::size_t j = 0; j < kMinfindSlots; ++j) {
      data[j % kMinfindNodes][j] = static_cast<query::Value>(rng.index(10000)) + 1;
    }
    in.minfind_data.push_back(std::move(data));
  }
  for (unsigned width : kGroverWidths) {
    // Two distinct marked states.
    const std::size_t dim = std::size_t{1} << width;
    const quantum::BasisState first = rng.index(dim);
    const quantum::BasisState second = (first + 1 + rng.index(dim - 1)) % dim;
    in.grover_marked.push_back({std::min(first, second), std::max(first, second)});
  }
  return in;
}

qcongest::framework::OracleConfig sum_config(std::size_t k, std::size_t p) {
  qcongest::framework::OracleConfig config;
  config.domain_size = k;
  config.parallelism = p;
  config.value_bits = 16;
  config.combine = [](std::int64_t a, std::int64_t b) { return a + b; };
  config.identity = 0;
  return config;
}

/// One experiment trial's verdict.
struct Verdict {
  bool exact = true;  // false: an exact algorithm disagreed with ground truth
  bool sim_ok = true; // false: a bounded-error run missed (or a report failed)
  net::RunResult cost;
};

/// What one pass measured.
struct PassStats {
  double pass_ms = 0.0;
  std::vector<double> trial_ms;
  std::map<std::string, double> stage_ms;
  std::size_t trials = 0;
  std::size_t exact_failures = 0;
  std::size_t sim_failures = 0;
  net::RunResult cost;
  double batch_us = 0.0;
  std::size_t batch_calls = 0;
  std::size_t ledger_batches = 0;
  double gate_ns_per_amp = 0.0;
  std::string first_failure;
};

class Pass {
 public:
  Pass(const Inputs& in, std::uint64_t seed, SpanLog* log, PassStats* stats)
      : in_(in), rng_(seed), log_(log), stats_(stats) {}

  void run() {
    const Clock::time_point t0 = Clock::now();
    stage("sweep.eccentricity", [&] { eccentricity(); });
    stage("sweep.meeting", [&] { meeting(); });
    stage("sweep.distinctness", [&] { distinctness(); });
    stage("sweep.cycles", [&] { cycles(); });
    stage("sweep.dj", [&] { dj(); });
    stage("sweep.minfind", [&] { minfind(); });
    stage("sweep.gate_level", [&] { gate_level(); });
    stats_->pass_ms = ms_between(t0, Clock::now());
  }

 private:
  void stage(const char* name, const std::function<void()>& body) {
    ScopedSpan span(log_, name, -1);
    parent_ = span.id();
    const Clock::time_point t0 = Clock::now();
    body();
    stats_->stage_ms[std::string(name) + "_ms"] += ms_between(t0, Clock::now());
  }

  void trial(const char* what, const std::function<Verdict()>& body) {
    ScopedSpan span(log_, what, static_cast<std::int64_t>(stats_->trials), parent_);
    trial_span_ = span.id();
    const Clock::time_point t0 = Clock::now();
    Verdict v;
    try {
      v = body();
    } catch (const std::exception&) {  // a throwing experiment fails
      v.exact = false;
      v.sim_ok = false;
    }
    stats_->trial_ms.push_back(ms_between(t0, Clock::now()));
    ++stats_->trials;
    stats_->cost += v.cost;
    if (!v.exact) {
      if (stats_->exact_failures == 0) stats_->first_failure = what;
      ++stats_->exact_failures;
    }
    if (!v.sim_ok || !v.exact) ++stats_->sim_failures;
  }

  void eccentricity() {
    for (const net::Graph& g : in_.ecc) {
      const std::size_t diameter = g.diameter(), radius = g.radius();
      trial("lemma21.diameter_classical", [&] {
        auto r = apps::diameter_classical(g);
        return Verdict{r.value == diameter, r.value == diameter, r.cost};
      });
      trial("lemma21.radius_classical", [&] {
        auto r = apps::radius_classical(g);
        return Verdict{r.value == radius, r.value == radius, r.cost};
      });
      for (int t = 0; t < 2; ++t) {
        trial("lemma21.diameter_quantum", [&] {
          auto r = apps::diameter_quantum(g, rng_);
          return Verdict{true, r.value == diameter, r.cost};
        });
        trial("lemma21.radius_quantum", [&] {
          auto r = apps::radius_quantum(g, rng_);
          return Verdict{true, r.value == radius, r.cost};
        });
      }
    }
    for (const net::Graph& g : in_.avg_ecc) {
      const double truth = g.average_eccentricity();
      trial("lemma22.avg_eccentricity_classical", [&] {
        auto r = apps::average_eccentricity_classical(g);
        const bool ok = std::abs(r.estimate - truth) <= 1e-9;
        return Verdict{ok, ok, r.cost};
      });
      for (int t = 0; t < 2; ++t) {
        trial("lemma22.avg_eccentricity_quantum", [&] {
          auto r = apps::average_eccentricity_quantum(g, 2.0, rng_);
          return Verdict{true, std::abs(r.estimate - truth) <= 2.0, r.cost};
        });
      }
    }
  }

  void meeting() {
    for (std::size_t i = 0; i < in_.meeting.size(); ++i) {
      const apps::MeetingGadget& gadget = in_.meeting[i];
      const apps::MeetingSchedulingResult& truth = in_.meeting_truth[i];
      trial("lemma10.meeting_classical", [&] {
        auto r = apps::meeting_scheduling_classical(gadget.graph, gadget.calendars);
        const bool ok = r.best_slot == truth.best_slot && r.availability == truth.availability;
        return Verdict{ok, ok, r.cost};
      });
      for (int t = 0; t < 2; ++t) {
        trial("lemma10.meeting_quantum", [&] {
          auto r = apps::meeting_scheduling_quantum(gadget.graph, gadget.calendars, rng_);
          return Verdict{true, r.availability == truth.availability, r.cost};
        });
      }
    }
  }

  void distinctness() {
    for (const apps::NodeDistinctnessGadget& g : in_.ed_nodes) {
      trial("cor14.ed_nodes_classical", [&] {
        auto r = apps::element_distinctness_nodes_classical(g.graph, g.values, g.value_range);
        const bool ok = r.collision.has_value() == g.collides;
        return Verdict{ok, ok, r.cost};
      });
      for (int t = 0; t < 2; ++t) {
        trial("cor14.ed_nodes_quantum", [&] {
          auto r = apps::element_distinctness_nodes_quantum(g.graph, g.values, g.value_range,
                                                            rng_);
          // One-sided: a reported collision must be real.
          return Verdict{!r.collision.has_value() || g.collides,
                         r.collision.has_value() == g.collides, r.cost};
        });
      }
    }
    for (const apps::DistinctnessGadget& g : in_.ed_vector) {
      trial("cor14.ed_vector_classical", [&] {
        auto r = apps::element_distinctness_vector_classical(g.graph, g.data, g.value_range);
        const bool ok = r.collision.has_value() == g.collides;
        return Verdict{ok, ok, r.cost};
      });
      for (int t = 0; t < 2; ++t) {
        trial("cor14.ed_vector_quantum", [&] {
          auto r = apps::element_distinctness_vector_quantum(g.graph, g.data, g.value_range,
                                                             rng_);
          return Verdict{!r.collision.has_value() || g.collides,
                         r.collision.has_value() == g.collides, r.cost};
        });
      }
    }
  }

  void cycles() {
    for (std::size_t i = 0; i < in_.girth.size(); ++i) {
      const net::Graph& g = in_.girth[i];
      const std::optional<std::size_t> truth = in_.girth_truth[i];
      trial("cor26.girth_classical", [&] {
        auto r = apps::girth_classical(g);
        return Verdict{r.girth == truth, r.girth == truth, r.cost};
      });
      for (int t = 0; t < 2; ++t) {
        trial("cor26.girth_quantum", [&] {
          auto r = apps::girth_quantum(g, 0.5, rng_);
          return Verdict{true, r.girth == truth, r.cost};
        });
      }
    }
    for (const net::Graph& g : in_.cycles) {
      for (int t = 0; t < 2; ++t) {
        trial("lemma23.cycle_detection", [&] {
          auto r = apps::cycle_detection(g, 4, rng_);
          return Verdict{true, r.cycle_length == std::optional<std::size_t>(4), r.cost};
        });
      }
    }
  }

  void dj() {
    for (const apps::DjGadget& g : in_.dj) {
      const query::DjVerdict truth =
          g.balanced ? query::DjVerdict::kBalanced : query::DjVerdict::kConstant;
      trial("thm17.dj_quantum", [&] {
        auto r = apps::deutsch_jozsa_quantum(g.graph, g.data);
        return Verdict{r.verdict == truth, r.verdict == truth, r.cost};
      });
      trial("thm17.dj_classical_exact", [&] {
        auto r = apps::deutsch_jozsa_classical_exact(g.graph, g.data);
        return Verdict{r.verdict == truth, r.verdict == truth, r.cost};
      });
    }
  }

  void minfind() {
    const net::Graph g = net::path_graph(kMinfindNodes);
    for (std::size_t t = 0; t < std::size(kParallelism); ++t) {
      const std::size_t p = kParallelism[t];
      const auto& data = in_.minfind_data[t];
      trial("thm8.minfind", [&] {
        net::Engine engine(g, 1, 1);
        net::BfsTree tree = net::build_bfs_tree(engine, 0);
        qcongest::framework::DistributedOracle oracle(engine, tree,
                                                      sum_config(kMinfindSlots, p), data);
        const std::size_t found = query::minfind(oracle, rng_);
        query::Value best = oracle.peek(0);
        for (std::size_t j = 1; j < kMinfindSlots; ++j) best = std::min(best, oracle.peek(j));
        const bool ok = found < kMinfindSlots && oracle.peek(found) == best;
        // The framework layer on its own: Theorem 8 batches on this oracle.
        for (int b = 0; b < 4; ++b) {
          ScopedSpan span(log_, "framework.charge_batch", -1, trial_span_);
          const Clock::time_point b0 = Clock::now();
          oracle.charge_batch();
          stats_->batch_us += us_between(b0, Clock::now());
          ++stats_->batch_calls;
        }
        stats_->ledger_batches += oracle.ledger().batches;
        net::RunResult cost = tree.cost;
        cost += oracle.total_cost();
        return Verdict{true, ok, cost};
      });
    }
  }

  void gate_level() {
    for (std::size_t i = 0; i < std::size(kGroverWidths); ++i) {
      const unsigned width = kGroverWidths[i];
      const auto& marked = in_.grover_marked[i];
      // Two searches at 16 qubits: they are the slowest trials, and with
      // two per pass latency_p99_ms reads the middle of that group rather
      // than its edge.
      for (int t = 0; t < (width == 16 ? 2 : 1); ++t) {
        trial("gate.grover", [&] {
          const quantum::BasisState found =
              query::gate_level_grover_search(width, marked, rng_);
          return Verdict{true, std::find(marked.begin(), marked.end(), found) != marked.end(),
                         {}};
        });
      }
    }
    trial("gate.amplitude_estimation", [&] {
      // 4 marked of 2^6, 6 precision qubits: a 12-qubit register.
      const double a = query::gate_level_amplitude_estimation(6, {3, 17, 40, 61}, 6, rng_);
      return Verdict{true, std::abs(a - 4.0 / 64.0) < 0.05, {}};
    });
    trial("gate.kernel_timing", [&] {
      // Statevector gate application on its own: one Grover iterate.
      const quantum::Circuit iterate =
          query::grover_iterate_circuit(kGateTimingWidth, in_.grover_marked[1]);
      quantum::Statevector state(kGateTimingWidth);
      state.h_all();
      const double norm0 = state.norm();
      double ns = 0.0;
      {
        ScopedSpan span(log_, "quantum.apply", -1, trial_span_);
        const Clock::time_point t0 = Clock::now();
        iterate.apply_to(state);
        ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      }
      stats_->gate_ns_per_amp =
          ns / static_cast<double>(iterate.size() * state.dimension());
      return Verdict{true, std::abs(state.norm() - norm0) < 1e-9, {}};
    });
  }

  const Inputs& in_;
  Rng rng_;
  SpanLog* log_;
  PassStats* stats_;
  std::uint64_t parent_ = 0;      // the open stage span
  std::uint64_t trial_span_ = 0;  // the open trial span
};

}  // namespace

void run_sweep_workload(const Options& opt, Results* res) {
  // setup_s: the median over fresh copies of this program, each timed from
  // its spawn to the end of input generation (see probe_setups).
  std::vector<double> setup_s;
  if (!opt.trace && !opt.setup_probe) setup_s = probe_setups(opt);
  const Inputs inputs = make_inputs(opt.seed);
  if (opt.setup_probe) {
    report_setup_ready();
    return;
  }

  // Passes until --seconds have gone by and enough trials for p99. The
  // traced run alternates untraced and traced passes of the same list, so
  // drift in the host's speed lands on both sides of the tracing overhead.
  SpanLog log;
  std::vector<PassStats> passes, traced;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  std::size_t trials_run = 0;
  while (passes.empty() || std::chrono::duration<double>(Clock::now() - t0).count() < opt.seconds ||
         trials_run < kMinTrials) {
    PassStats stats;
    Pass(inputs, mix64(opt.seed + passes.size()), nullptr, &stats).run();
    trials_run += stats.trials;
    passes.push_back(std::move(stats));
    if (opt.trace) {
      PassStats traced_stats;
      Pass(inputs, mix64(opt.seed + traced.size()), &log, &traced_stats).run();
      traced.push_back(std::move(traced_stats));
    }
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  const double cpu = cpu_seconds() - cpu0;
  const double rss = peak_rss_mib();

  std::vector<double> pass_s, trial_ms;
  std::size_t trials = 0, exact_failures = 0, sim_failures = 0;
  for (const PassStats& p : passes) {
    pass_s.push_back(p.pass_ms / 1e3);
    trial_ms.insert(trial_ms.end(), p.trial_ms.begin(), p.trial_ms.end());
    trials += p.trials;
    exact_failures += p.exact_failures;
    sim_failures += p.sim_failures;
    if (p.exact_failures > 0) res->note("exact mismatch in " + p.first_failure);
  }
  res->attempt(trials, exact_failures);
  double p99 = 0.0;
  if (!percentile(trial_ms, 0.99, &p99)) {
    res->fail_check("latency_p99_ms: fewer than ten samples beyond p99");
  }
  res->note("paper-sweep: " + std::to_string(passes.size()) + " passes, " +
            std::to_string(trials) + " experiment trials (latency samples), " +
            std::to_string(exact_failures) + " exact mismatches");

  res->note("latency_p50_ms " + std::to_string(median(trial_ms)) +
            " ms (not a gated metric)");
  if (!opt.trace) {
    res->add("latency_p99_ms", p99, "ms");
    res->add("throughput_jobs_s", static_cast<double>(trials) / wall, "jobs/s");
    res->add("sweep_s", median(pass_s), "s");
    res->note("setup_s samples: " + std::to_string(setup_s.size()) +
              " fresh processes, spawn to inputs ready");
    res->add("setup_s", median(setup_s), "s");
    res->add("peak_rss_mb", rss, "MiB");
    return;
  }

  // Per-layer figures come from the traced passes: same seed, same inputs,
  // spans around stages, trials, Theorem 8 batches and the gate kernel.
  if (!opt.trace_out.empty() && log.write_jsonl(opt.trace_out, t0)) {
    res->note("spans written to " + opt.trace_out);
  }
  const std::vector<Span> spans = log.take();

  std::map<std::string, std::vector<double>> stage_ms;
  std::vector<double> traced_pass_s;
  double batch_us = 0.0;
  std::size_t batch_calls = 0;
  std::vector<double> gate_ns;
  for (const PassStats& p : traced) {
    traced_pass_s.push_back(p.pass_ms / 1e3);
    for (const auto& [name, ms] : p.stage_ms) stage_ms[name].push_back(ms);
    batch_us += p.batch_us;
    batch_calls += p.batch_calls;
    gate_ns.push_back(p.gate_ns_per_amp);
  }
  // Counts from the first untraced pass: a fixed experiment list.
  const net::RunResult& cost = passes.front().cost;
  std::map<std::string, SpanTotals> totals;
  for (auto& [name, t] : span_totals(spans)) totals[name] = t;

  res->add("serve.frame_us", 0.0, "us/job");
  res->add("serve.parse_us", 0.0, "us/job");
  res->add("serve.queue_wait_p50_ms", 0.0, "ms");
  res->add("serve.queue_wait_p99_ms", 0.0, "ms");
  res->add("serve.reply_us", 0.0, "us/job");
  res->add("serve.unattributed_ms", 0.0, "ms/job");
  res->add("serve.submitted", 0.0, "count");
  res->add("serve.rejected", 0.0, "count");
  res->add("serve.coalesced", 0.0, "count");
  res->add("journal.append_us", 0.0, "us/record");
  res->add("journal.bytes_per_job", 0.0, "B/job");
  res->add("journal.compactions", 0.0, "count");
  res->add("cache.key_us", 0.0, "us/job");
  res->add("cache.put_us", 0.0, "us/miss");
  res->add("cache.lookups", 0.0, "count");
  res->add("cache.hit_share", 0.0, "ratio");
  res->add("apps.graph_us", 0.0, "us/job");
  res->add("apps.run_ms", mean(trial_ms), "ms/job");
  res->add("apps.sim_runs", static_cast<double>(trials), "count");
  res->add("apps.sim_failed_share",
           static_cast<double>(sim_failures) / static_cast<double>(std::max<std::size_t>(trials, 1)),
           "ratio");
  const double words = static_cast<double>(cost.classical_words + cost.quantum_words);
  // Simulated stages only: the gate-level stage sends no words.
  const double engine_ms =
      passes.front().pass_ms - passes.front().stage_ms.at("sweep.gate_level_ms");
  res->add("net.direct_ns_per_word", words > 0 ? engine_ms * 1e6 / words : 0.0, "ns/word");
  res->add("net.reliable_ns_per_word", 0.0, "ns/word");
  res->add("net.tap_share", 0.0, "ratio");
  res->add("net.rounds", static_cast<double>(cost.rounds), "count");
  res->add("net.words", words, "count");
  res->add("net.retransmissions", static_cast<double>(cost.retransmissions), "count");
  res->add("recover.recovery_words", static_cast<double>(cost.recovery_words), "count");
  res->add("obs.render_ms", 0.0, "ms/job");
  res->add("obs.report_kb_p50", 0.0, "KiB");
  res->add("obs.report_kb_p99", 0.0, "KiB");
  res->add("framework.batch_us",
           batch_calls > 0 ? batch_us / static_cast<double>(batch_calls) : 0.0, "us/batch");
  res->add("framework.batches", static_cast<double>(passes.front().ledger_batches), "count");
  for (const char* stage : {"sweep.eccentricity_ms", "sweep.meeting_ms", "sweep.distinctness_ms",
                            "sweep.cycles_ms", "sweep.dj_ms", "sweep.minfind_ms",
                            "sweep.gate_level_ms"}) {
    res->add(stage, median(stage_ms[stage]), "ms/pass");
  }
  res->add("quantum.gate_ns_per_amp", median(gate_ns), "ns");
  // Computed, not measured: each gate reads and writes every amplitude
  // (16-byte complex doubles) of the 2^14-amplitude state once.
  res->add("quantum.gate_bytes", 2.0 * 16.0 * static_cast<double>(1u << kGateTimingWidth),
           "bytes");
  res->add("proc.cpu_util", cpu / (wall * 4.0), "ratio");
  res->add("loadgen.late_p99_ms", 0.0, "ms");
  res->add("loadgen.peak_outstanding", 0.0, "count");
  res->add("self.serve_ms", 0.0, "ms/job");
  res->add("self.journal_ms", 0.0, "ms/job");
  res->add("self.cache_ms", 0.0, "ms/job");
  res->add("self.apps_ms", 0.0, "ms/job");
  res->add("self.obs_ms", 0.0, "ms/job");
  const double untraced = median(pass_s), with_spans = median(traced_pass_s);
  res->add("trace.overhead_share", untraced > 0 ? with_spans / untraced - 1.0 : 0.0, "ratio");
  res->add("failed_share",
           static_cast<double>(exact_failures) / static_cast<double>(std::max<std::size_t>(trials, 1)),
           "ratio");

  res->note("apps.sim_failed_share base: " + std::to_string(trials) + " trials");
  for (const auto& [name, t] : totals) {
    char line[160];
    std::snprintf(line, sizeof(line), "span %-36s n=%-6zu total=%10.1f ms self=%10.1f ms",
                  name.c_str(), t.count, t.total_us / 1e3, t.self_us / 1e3);
    res->note(line);
  }
}

}  // namespace perfbench
