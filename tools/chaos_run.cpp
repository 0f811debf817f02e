// chaos_run — sweep deterministic fault rates over the application suite
// and report, per (app, fault level): success rate, median measured rounds,
// round overhead versus the clean run, and retransmissions per attempt.
//
//   chaos_run [--nodes N] [--trials T] [--graph FAMILY]
//             [--transport reliable|direct] [--seed S]
//             [--threads T] [--jobs J] [--deadline ROUNDS]
//             [--verify] [--audit-determinism] [--report PATH]
//             [--amnesia] [--recover]
//             [--cache] [--no-cache] [--cache-dir PATH]
//   chaos_run gc [--cache-dir PATH] [--max-bytes N]
//
// families: tree | path | cycle | grid | random | star | complete
// (the shared suite and topology factory live in src/apps/registry)
//
// The sweep is an experiment DAG (src/cache/dag): one node per (app, fault
// level), where every faulty level depends on its app's clean run (the
// overhead denominator), scheduled ready-first across --jobs workers.
// Results are sealed blobs in the content-addressed store (src/cache/store)
// keyed by everything that can change the bytes — app, topology spec, seed,
// trials, transport, fault level, deadline, and the code-version salt — so
// a second identical invocation is served entirely from cache, and any
// input change is a clean miss. --verify bypasses the cache (its shared
// conformance observer must see every run execute).
//
// Cache selection: --cache-dir PATH wins; otherwise QCONGEST_CACHE_DIR
// (strict-parsed — a malformed value disables caching with a warning);
// --cache falls back to ./.qcongest-cache when neither is set; --no-cache
// always wins. `chaos_run gc` evicts oldest-first down to --max-bytes
// (default 64 MiB) and sweeps tmp/ and corrupt entries.
//
// --deadline R (default off) attaches a recover::Watchdog with a hard
// round deadline to every run: a protocol still going after R physical
// rounds is killed with a structured LivelockError instead of burning the
// round budget. In the sweep the watchdog is per-trial (stack-local, so
// --jobs fan-out never shares observer state); in the recovery lane and
// report pass it rides the lane's existing watchdog.
//
// --threads T runs every engine in its deterministic sharded-parallel mode
// (Engine::set_threads); results are byte-identical to --threads 1. The
// determinism audit exploits this: with --threads > 1 it diffs a serial run
// against a sharded run instead of two serial runs, which is the strongest
// reproducibility check the tool offers. --jobs J fans ready sweep
// experiments across J DAG workers (ignored under --verify, whose shared
// conformance observer must see runs one at a time).
//
// Fault levels pair a word-drop probability with proportional corruption
// (rate/5) and duplication (rate/10) so a single knob exercises all three
// lotteries. With --transport direct the sweep shows how quickly the
// unprotected protocols fall over; with the default reliable transport it
// measures what the ack/retransmit layer pays to hide the same faults.
//
// --verify attaches the model-conformance verifier (src/check) to every
// engine of the sweep and fails the run if any CONGEST invariant broke.
//
// --report PATH additionally runs every app once clean and once at the 0.05
// fault level with the full observability stack attached (trace +
// RoundProfiler metrics tap) and writes one schema-versioned run-report
// JSON (src/obs) to PATH: per-app RunResult counters, per-round traffic
// series, phase spans, trace summaries, and a metrics snapshot. The report
// carries only seed-deterministic fields — it is byte-identical for any
// --threads value, which CI exploits by diffing the two.
//
// --amnesia replaces the sweep with the recovery lane: every app (plus the
// framework apps dj and meeting) runs over the reliable transport with one
// crash-with-amnesia window scheduled on a middle node, a liveness watchdog
// attached. With --recover the engine checkpoints node state and the wiped
// node rebuilds itself from its last checkpoint plus neighbor-assisted
// catch-up; the lane passes when every app still computes the right answer
// AND pays a visible recovery tax (RunResult::recovery_rounds > 0 — the
// counters are honest, so a free recovery would be a bug). Without
// --recover the wiped node can never rejoin; the lane passes when the
// watchdog converts the would-be livelock into a LivelockError naming the
// victim instead of silently burning the round budget. Combine with
// --report to capture the recovery sections (including the recovery-tax
// counters) in the run-report JSON.
//
// --audit-determinism replaces the sweep with the reproducibility gate:
// every app runs twice from the same seed and the two delivery traces are
// diffed byte-for-byte — any divergence (hash-order iteration, unseeded
// randomness, uninitialized reads) fails the audit.
//
// Examples:
//   chaos_run --nodes 15 --trials 9
//   chaos_run --graph grid --nodes 16 --transport direct
//   chaos_run --audit-determinism --graph random --nodes 12

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/net_options.hpp"
#include "src/apps/registry.hpp"
#include "src/cache/dag.hpp"
#include "src/cache/key.hpp"
#include "src/cache/store.hpp"
#include "src/check/verifier.hpp"
#include "src/net/fault.hpp"
#include "src/net/trace.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/round_profiler.hpp"
#include "src/obs/run_report.hpp"
#include "src/recover/watchdog.hpp"
#include "src/util/env.hpp"
#include "src/util/parse.hpp"

using namespace qcongest;

namespace {

struct Options {
  std::size_t nodes = 15;
  std::size_t trials = 9;
  std::string graph = "tree";
  net::Transport transport = net::Transport::kReliable;
  std::uint64_t seed = 1;
  std::size_t threads = 1;  // engine shards per run (deterministic)
  std::size_t jobs = 1;     // concurrent sweep trials
  bool verify = false;
  bool audit_determinism = false;
  bool amnesia = false;  // run the crash-with-amnesia recovery lane
  bool recover = false;  // ...with checkpointing + neighbor-assisted catch-up
  std::string report;  // run-report output path ("" = no report)
  std::size_t deadline_rounds = 0;  // watchdog round deadline (0 = off)
  // Result-cache selection: 0 = auto (QCONGEST_CACHE_DIR decides), +1 =
  // --cache (fall back to ./.qcongest-cache), -1 = --no-cache.
  int cache_mode = 0;
  std::string cache_dir;  // --cache-dir override (implies on)
};

// Crash window of the --amnesia lane, in physical rounds: late enough that
// at least one committed virtual round of state is lost, early enough that
// every app's first engine run is still in flight when it opens. The
// reliable transport runs a virtual round in about four physical ones, so
// the shortest first phases here (bfs, convergecast's tree build: under
// 20 physical rounds on the 15-node tree) close well before round 30.
constexpr std::size_t kCrashRound = 6;
constexpr std::size_t kRestartRound = 30;
// Watchdog stall bound: must comfortably exceed the crash window plus the
// reliable transport's retransmission backoff cap (ReliableParams::rto_cap).
constexpr std::size_t kLaneStallRounds = 512;
constexpr std::size_t kLaneCheckpointEvery = 3;  // virtual rounds per checkpoint

// The application suite and topology factory are shared with the qcongestd
// service (src/apps/registry); chaos_run keeps only its sweep/report logic.
using Outcome = apps::AppOutcome;
using AppEntry = apps::RegisteredApp;

net::Graph make_graph(const Options& opt) {
  try {
    return apps::make_registry_graph(opt.graph, opt.nodes, opt.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--verify") {
      opt.verify = true;
      continue;
    }
    if (flag == "--audit-determinism") {
      opt.audit_determinism = true;
      continue;
    }
    if (flag == "--amnesia") {
      opt.amnesia = true;
      continue;
    }
    if (flag == "--recover") {
      opt.recover = true;
      continue;
    }
    if (flag == "--cache") {
      opt.cache_mode = 1;
      continue;
    }
    if (flag == "--no-cache") {
      opt.cache_mode = -1;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    auto bad_number = [&] {
      std::fprintf(stderr, "bad %s: %s\n", flag.c_str(), value.c_str());
      return false;
    };
    if (flag == "--nodes") {
      if (!util::parse_size(value, &opt.nodes)) return bad_number();
    } else if (flag == "--trials") {
      if (!util::parse_size(value, &opt.trials)) return bad_number();
    } else if (flag == "--graph") {
      opt.graph = value;
    } else if (flag == "--seed") {
      if (!util::parse_u64(value, &opt.seed)) return bad_number();
    } else if (flag == "--threads") {
      if (!util::parse_size(value, &opt.threads)) return bad_number();
      if (opt.threads == 0) opt.threads = 1;
    } else if (flag == "--jobs") {
      if (!util::parse_size(value, &opt.jobs)) return bad_number();
      if (opt.jobs == 0) opt.jobs = 1;
    } else if (flag == "--report") {
      opt.report = value;
    } else if (flag == "--cache-dir") {
      opt.cache_dir = value;
    } else if (flag == "--deadline") {
      if (!util::parse_size(value, &opt.deadline_rounds)) return bad_number();
    } else if (flag == "--transport") {
      if (value == "reliable") {
        opt.transport = net::Transport::kReliable;
      } else if (value == "direct") {
        opt.transport = net::Transport::kDirect;
      } else {
        std::fprintf(stderr, "unknown transport: %s\n", value.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return opt.trials > 0 && opt.nodes > 1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Canonical byte transcript of one run: every delivery in order plus the
/// final cost counters. Two runs from the same seed must produce identical
/// transcripts or the simulation is not reproducible.
std::string transcript(const net::Trace& trace, const Outcome& out) {
  std::string s;
  s.reserve(trace.size() * 16 + 64);
  for (const net::TraceEvent& e : trace.events()) {
    s += std::to_string(e.round) + ' ' + std::to_string(e.from) + ' ' +
         std::to_string(e.to) + ' ' + std::to_string(e.tag) + ' ' +
         (e.quantum ? '1' : '0') + '\n';
  }
  s += "success=" + std::to_string(out.success ? 1 : 0);
  s += " rounds=" + std::to_string(out.cost.rounds);
  s += " messages=" + std::to_string(out.cost.messages);
  s += " dropped=" + std::to_string(out.cost.dropped_words);
  s += " corrupted=" + std::to_string(out.cost.corrupted_words);
  s += " duplicated=" + std::to_string(out.cost.duplicated_words);
  s += " retrans=" + std::to_string(out.cost.retransmissions);
  s += " recwords=" + std::to_string(out.cost.recovery_words);
  s += " recrounds=" + std::to_string(out.cost.recovery_rounds);
  s += '\n';
  return s;
}

/// First line on which two transcripts diverge (1-based), for the report.
std::size_t first_divergence(const std::string& a, const std::string& b) {
  std::size_t line = 1;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) return line;
    if (a[i] == '\n') ++line;
  }
  return line;
}

/// Determinism auditor: run each app twice from the same seed (clean and
/// under faults) and diff the delivery transcripts byte-for-byte.
int run_determinism_audit(const net::Graph& graph, const Options& opt,
                          const std::vector<AppEntry>& suite) {
  const std::vector<double> rates = {0.0, 0.05};
  std::printf(
      "# determinism audit: graph=%s nodes=%zu transport=%s seed=%llu threads=%zu\n",
      opt.graph.c_str(), graph.num_nodes(),
      opt.transport == net::Transport::kReliable ? "reliable" : "direct",
      static_cast<unsigned long long>(opt.seed), opt.threads);
  if (opt.threads > 1) {
    std::printf("# diffing serial (threads=1) against sharded (threads=%zu) runs\n",
                opt.threads);
  }
  std::printf("%-12s %6s %10s %s\n", "app", "drop", "deliveries", "verdict");
  int exit_code = 0;
  for (const AppEntry& app : suite) {
    for (double rate : rates) {
      std::string runs[2];
      std::size_t deliveries = 0;
      for (int repeat = 0; repeat < 2; ++repeat) {
        apps::NetOptions options;
        options.transport = opt.transport;
        options.seed = opt.seed;
        options.fault_plan.link.drop = rate;
        options.fault_plan.link.corrupt = rate / 5.0;
        options.fault_plan.link.duplicate = rate / 10.0;
        options.fault_plan.seed = opt.seed * 1000;
        // The second run uses the sharded engine; transcripts must still be
        // byte-identical to the serial first run.
        options.threads = repeat == 0 ? 1 : opt.threads;
        net::Trace trace;
        options.trace = &trace;
        Outcome out;
        try {
          out = app.run(graph, options);
        } catch (const std::exception& e) {
          out.success = false;
          out.cost = net::RunResult{};
          trace.record(net::TraceEvent{0, 0, 0, -1, false});  // poison marker
        }
        deliveries = trace.size();
        runs[repeat] = transcript(trace, out);
      }
      bool same = runs[0] == runs[1];
      if (same) {
        std::printf("%-12s %6.2f %10zu PASS\n", app.name, rate, deliveries);
      } else {
        std::printf("%-12s %6.2f %10zu FAIL (first divergence at line %zu)\n",
                    app.name, rate, deliveries, first_divergence(runs[0], runs[1]));
        exit_code = 1;
      }
    }
  }
  if (exit_code != 0) {
    std::fprintf(stderr,
                 "chaos_run: same-seed runs diverged — the simulation is not "
                 "deterministic\n");
  }
  return exit_code;
}

/// The deterministic fault schedule of the --amnesia lane: one
/// crash-with-amnesia window on a middle node. Applied to every engine run
/// an app performs, so multi-phase apps (election, tree build, pipeline)
/// lose and recover the victim's state once per phase that lives past the
/// crash round.
net::FaultPlan amnesia_plan(net::NodeId victim, std::uint64_t seed) {
  net::FaultPlan plan;
  plan.crashes.push_back(net::CrashEvent{victim, kCrashRound, kRestartRound});
  plan.crashes[0].amnesia = true;
  plan.seed = seed * 1000;
  return plan;
}

apps::NetOptions lane_options(const Options& opt, net::NodeId victim,
                              recover::Watchdog* watchdog) {
  apps::NetOptions options;
  // The lane is a reliable-transport story: under Transport::kDirect a crash
  // window just drops words on the floor and no protocol recovers them.
  options.transport = net::Transport::kReliable;
  options.threads = opt.threads;
  options.seed = opt.seed;
  options.fault_plan = amnesia_plan(victim, opt.seed);
  options.watchdog = watchdog;
  if (opt.recover) {
    options.recovery.enabled = true;
    options.recovery.checkpoint.every_rounds = kLaneCheckpointEvery;
  }
  return options;
}

/// The --amnesia lane. With --recover every app must survive the wipe with
/// the right answer and an honest, nonzero recovery tax; without it the
/// watchdog must diagnose the dead node instead of letting the run hang.
int run_recovery_lane(const net::Graph& graph, const Options& opt,
                      const std::vector<AppEntry>& suite) {
  const net::NodeId victim = graph.num_nodes() / 2;
  check::Verifier verifier;
  recover::Watchdog watchdog(recover::WatchdogConfig{
      /*stall_rounds=*/kLaneStallRounds,
      /*deadline_rounds=*/opt.deadline_rounds});
  std::printf(
      "# recovery lane: graph=%s nodes=%zu seed=%llu threads=%zu recover=%s\n",
      opt.graph.c_str(), graph.num_nodes(),
      static_cast<unsigned long long>(opt.seed), opt.threads,
      opt.recover ? "on" : "off");
  std::printf("# amnesia crash on node %zu, physical rounds [%zu, %zu), "
              "reliable transport\n",
              static_cast<std::size_t>(victim), kCrashRound, kRestartRound);
  if (opt.recover) {
    std::printf("%-12s %8s %8s %10s %9s %8s %s\n", "app", "success", "rounds",
                "rec_rounds", "rec_words", "tax", "verdict");
  } else {
    std::printf("%-12s %-7s %s\n", "app", "verdict", "diagnosis");
  }

  int exit_code = 0;
  for (const AppEntry& app : suite) {
    // Fault-free baseline: the denominator of the recovery-tax column and
    // the answer the recovered run must reproduce (via each app's own
    // ground-truth check).
    apps::NetOptions clean;
    clean.transport = net::Transport::kReliable;
    clean.threads = opt.threads;
    clean.seed = opt.seed;
    Outcome base = app.run(graph, clean);

    apps::NetOptions options = lane_options(opt, victim, &watchdog);
    if (opt.verify) options.observer = &verifier;

    if (opt.recover) {
      Outcome out;
      bool threw = false;
      try {
        out = app.run(graph, options);
      } catch (const std::exception& e) {
        threw = true;
        if (opt.verify) verifier.abandon_run(e);
      }
      double tax = base.cost.rounds > 0
                       ? static_cast<double>(out.cost.rounds) /
                             static_cast<double>(base.cost.rounds)
                       : 0.0;
      // recovery_rounds == 0 would mean the wipe cost nothing — with these
      // counters' honesty pinned by tests, that can only be a lane bug.
      bool pass = !threw && out.success && out.cost.recovery_rounds > 0;
      std::printf("%-12s %8s %8zu %10zu %9zu %7.2fx %s\n", app.name,
                  out.success ? "yes" : "no", out.cost.rounds,
                  out.cost.recovery_rounds, out.cost.recovery_words, tax,
                  pass ? "PASS" : "FAIL");
      if (!pass) exit_code = 1;
    } else {
      bool diagnosed = false;
      std::string what = "no diagnosis: the run terminated on its own";
      try {
        (void)app.run(graph, options);
      } catch (const recover::LivelockError& e) {
        const std::vector<net::NodeId>& s = e.suspects();
        diagnosed = std::find(s.begin(), s.end(), victim) != s.end();
        what = e.what();
        if (opt.verify) verifier.abandon_run(e);
      } catch (const std::exception& e) {
        what = std::string("unexpected error: ") + e.what();
        if (opt.verify) verifier.abandon_run(e);
      }
      std::printf("%-12s %-7s %s\n", app.name, diagnosed ? "PASS" : "FAIL",
                  what.c_str());
      if (!diagnosed) exit_code = 1;
    }
  }
  if (opt.verify) {
    std::printf("%s\n", verifier.report().c_str());
    if (!verifier.ok()) exit_code = 1;
  }
  if (exit_code != 0) {
    std::fprintf(stderr, "chaos_run: recovery lane failed\n");
  }
  return exit_code;
}

/// Format a fault rate as a short fixed-point label ("0.05").
std::string rate_label(double rate) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.2f", rate);
  return buf;
}

// --- Result cache ------------------------------------------------------------

/// Resolve the cache root from flags and environment. Empty = caching off.
std::string resolve_cache_dir(const Options& opt) {
  if (opt.cache_mode < 0) return "";
  if (!opt.cache_dir.empty()) return opt.cache_dir;
  std::string warning;
  std::string dir =
      util::env_cache_dir(std::getenv("QCONGEST_CACHE_DIR"), &warning);
  if (!warning.empty()) {
    std::fprintf(stderr, "chaos_run: QCONGEST_CACHE_DIR %s\n", warning.c_str());
  }
  if (dir.empty() && opt.cache_mode > 0) dir = ".qcongest-cache";
  return dir;
}

/// One sweep trial's sealed facts — everything the table and the exit-code
/// bar need, nothing else (so the blob is stable across presentation-only
/// changes to the tool).
struct TrialStat {
  bool success = false;
  std::size_t rounds = 0;
  std::size_t retransmissions = 0;
};

constexpr std::string_view kSweepBlobMagic = "chaos-sweep 1";

std::string encode_sweep_blob(const std::vector<TrialStat>& trials) {
  std::string blob(kSweepBlobMagic);
  blob += '\n';
  for (std::size_t i = 0; i < trials.size(); ++i) {
    blob += "trial " + std::to_string(i) +
            " success=" + std::to_string(trials[i].success ? 1 : 0) +
            " rounds=" + std::to_string(trials[i].rounds) +
            " retrans=" + std::to_string(trials[i].retransmissions) + '\n';
  }
  return blob;
}

bool decode_sweep_blob(const std::string& blob, std::vector<TrialStat>* out) {
  out->clear();
  std::size_t pos = 0;
  auto next_line = [&](std::string_view* line) {
    if (pos >= blob.size()) return false;
    std::size_t eol = blob.find('\n', pos);
    if (eol == std::string::npos) return false;  // blobs end in '\n'
    *line = std::string_view(blob).substr(pos, eol - pos);
    pos = eol + 1;
    return true;
  };
  std::string_view line;
  if (!next_line(&line) || line != kSweepBlobMagic) return false;
  while (next_line(&line)) {
    TrialStat stat;
    unsigned long long index = 0, success = 0, rounds = 0, retrans = 0;
    if (std::sscanf(std::string(line).c_str(),
                    "trial %llu success=%llu rounds=%llu retrans=%llu", &index,
                    &success, &rounds, &retrans) != 4 ||
        success > 1 || index != out->size()) {
      return false;
    }
    stat.success = success == 1;
    stat.rounds = static_cast<std::size_t>(rounds);
    stat.retransmissions = static_cast<std::size_t>(retrans);
    out->push_back(stat);
  }
  return true;
}

/// Content address of one (app, fault level) sweep experiment: every input
/// that can change the sealed blob, plus the code-version salt. --threads
/// and --jobs are deliberately absent — results are byte-identical across
/// both (the determinism contract), so varying them must still hit.
std::string sweep_cache_key(const Options& opt, const net::Graph& graph,
                            std::string_view app_name, double rate) {
  cache::KeyBuilder key;
  key.field("salt", cache::code_version_salt());
  key.field("producer", "chaos_run-sweep");
  key.field("blob_schema", std::uint64_t{1});
  key.field("app", app_name);
  key.field("graph", opt.graph);
  key.field("nodes", static_cast<std::uint64_t>(graph.num_nodes()));
  key.field("trials", static_cast<std::uint64_t>(opt.trials));
  key.field("seed", opt.seed);
  key.field("deadline_rounds", static_cast<std::uint64_t>(opt.deadline_rounds));
  key.field("transport",
            opt.transport == net::Transport::kReliable ? "reliable" : "direct");
  key.field("drop", rate);  // corrupt (rate/5) and duplicate (rate/10) derive
  return key.digest();
}

/// Execute one sweep experiment: opt.trials seeded trials, serial within
/// the node (the DAG scheduler provides the fan-out across experiments).
std::string run_sweep_experiment(const net::Graph& graph, const Options& opt,
                                 const AppEntry& app, double rate,
                                 check::Verifier* verifier) {
  std::vector<TrialStat> stats(opt.trials);
  for (std::size_t trial = 0; trial < opt.trials; ++trial) {
    apps::NetOptions options;
    options.transport = opt.transport;
    options.threads = opt.threads;
    options.fault_plan.link.drop = rate;
    options.fault_plan.link.corrupt = rate / 5.0;
    options.fault_plan.link.duplicate = rate / 10.0;
    options.seed = opt.seed + trial;
    options.fault_plan.seed = opt.seed * 1000 + trial;
    if (verifier != nullptr) options.observer = verifier;
    // --deadline: a per-trial, stack-local watchdog — concurrent experiments
    // (--jobs) must never share observer state. The LivelockError it throws
    // at the deadline is absorbed by the catch below as a failed trial.
    recover::WatchdogConfig deadline_config;
    deadline_config.deadline_rounds = opt.deadline_rounds;
    recover::Watchdog trial_watchdog(deadline_config);
    if (opt.deadline_rounds > 0) options.watchdog = &trial_watchdog;
    try {
      Outcome out = app.run(graph, options);
      stats[trial].success = out.success;
      stats[trial].rounds = out.cost.rounds;
      stats[trial].retransmissions = out.cost.retransmissions;
    } catch (const std::exception& e) {
      stats[trial].success = false;  // a run that tripped an invariant
      if (verifier != nullptr) verifier->abandon_run(e);
    }
  }
  return encode_sweep_blob(stats);
}

/// `chaos_run gc`: evict the store down to --max-bytes, oldest first.
int run_gc(int argc, char** argv) {
  std::string dir;
  std::uint64_t max_bytes = 64ull << 20;  // 64 MiB default budget
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return 2;
    }
    std::string value = argv[++i];
    if (flag == "--cache-dir") {
      dir = value;
    } else if (flag == "--max-bytes") {
      if (!util::parse_u64(value, &max_bytes)) {
        std::fprintf(stderr, "bad --max-bytes: %s\n", value.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown gc flag: %s\n", flag.c_str());
      return 2;
    }
  }
  if (dir.empty()) {
    std::string warning;
    dir = util::env_cache_dir(std::getenv("QCONGEST_CACHE_DIR"), &warning);
    if (!warning.empty()) {
      std::fprintf(stderr, "chaos_run: QCONGEST_CACHE_DIR %s\n",
                   warning.c_str());
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr,
                 "chaos_run gc: no cache directory (--cache-dir or "
                 "QCONGEST_CACHE_DIR)\n");
    return 2;
  }
  cache::Store store(dir);
  const cache::Store::GcResult result = store.gc(max_bytes);
  std::printf(
      "# gc %s: scanned=%zu evicted=%zu corrupt_removed=%zu "
      "bytes=%llu -> %llu (budget %llu)\n",
      dir.c_str(), result.scanned, result.evicted, result.corrupt_removed,
      static_cast<unsigned long long>(result.bytes_before),
      static_cast<unsigned long long>(result.bytes_after),
      static_cast<unsigned long long>(max_bytes));
  return 0;
}

/// Content address of the whole report document: the topology spec, seed,
/// transport and lane knobs fix both the set of sections and every run in
/// them, so they are the key (plus schema version and salt). --threads is
/// absent for the same reason as in sweep_cache_key.
std::string report_cache_key(const Options& opt, const net::Graph& graph) {
  cache::KeyBuilder key;
  key.field("salt", cache::code_version_salt());
  key.field("producer", "chaos_run-report");
  key.field("schema", static_cast<std::uint64_t>(obs::kReportSchemaVersion));
  key.field("graph", opt.graph);
  key.field("nodes", static_cast<std::uint64_t>(graph.num_nodes()));
  key.field("seed", opt.seed);
  key.field("deadline_rounds", static_cast<std::uint64_t>(opt.deadline_rounds));
  key.field("transport",
            opt.transport == net::Transport::kReliable ? "reliable" : "direct");
  key.field("amnesia", opt.amnesia);
  key.field("recover", opt.recover);
  return key.digest();
}

/// The --report pass: one instrumented run per (app, fault level) with the
/// full observability stack attached, merged into a single schema-versioned
/// document. Everything recorded is seed-deterministic (no wall-clock, no
/// thread counts), so the file is byte-identical for any --threads value.
std::string render_run_report(const net::Graph& graph, const Options& opt,
                              const std::vector<AppEntry>& suite) {
  obs::RunReport report("chaos_run");
  const std::vector<double> rates = {0.0, 0.05};

  // One instrumented run -> one report section. Everything recorded stays
  // seed-deterministic, so sections are byte-identical for any --threads.
  auto instrument = [&](const AppEntry& app, const std::string& section_name,
                        apps::NetOptions options,
                        const std::function<void(obs::RunReport::Section&)>& label) {
    net::Trace trace;
    obs::RoundProfiler profiler;
    options.trace = &trace;
    options.metrics = &profiler;

    Outcome out;
    bool threw = false;
    try {
      out = app.run(graph, options);
    } catch (const std::exception&) {
      threw = true;
      out.success = false;
    }

    obs::MetricsRegistry metrics;
    metrics.count("runs", profiler.total_runs());
    metrics.count("messages", trace.size());
    if (out.success) metrics.count("successes");
    if (threw) metrics.count("aborted_runs");
    obs::Histogram& load =
        metrics.histogram("messages_per_round", {1, 2, 4, 8, 16, 32, 64, 128});
    for (std::size_t count : trace.per_round_counts()) {
      load.observe(static_cast<double>(count));
    }

    obs::RunReport::Section& section = report.add_section(section_name);
    section.set_label("app", app.name);
    section.set_label("graph", opt.graph);
    section.set_label("nodes", std::to_string(graph.num_nodes()));
    section.set_label("seed", std::to_string(opt.seed));
    label(section);
    section.set_outcome(out.success);
    section.set_result(out.cost);
    section.set_profile(profiler);
    section.set_trace(trace);
    section.set_metrics(metrics);
  };

  const net::NodeId victim = graph.num_nodes() / 2;
  recover::Watchdog watchdog(recover::WatchdogConfig{
      /*stall_rounds=*/kLaneStallRounds,
      /*deadline_rounds=*/opt.deadline_rounds});
  for (const AppEntry& app : suite) {
    for (double rate : rates) {
      apps::NetOptions options;
      options.transport = opt.transport;
      options.threads = opt.threads;
      options.seed = opt.seed;
      options.fault_plan.link.drop = rate;
      options.fault_plan.link.corrupt = rate / 5.0;
      options.fault_plan.link.duplicate = rate / 10.0;
      options.fault_plan.seed = opt.seed * 1000;
      instrument(app, std::string(app.name) + "@drop=" + rate_label(rate),
                 options, [&](obs::RunReport::Section& section) {
                   section.set_label("drop", rate_label(rate));
                   section.set_label("transport",
                                     opt.transport == net::Transport::kReliable
                                         ? "reliable"
                                         : "direct");
                 });
    }
    if (opt.amnesia) {
      // The recovery lane's section: the amnesia crash schedule with (or
      // without) recovery, so the report carries the recovery-tax counters.
      apps::NetOptions options = lane_options(opt, victim, &watchdog);
      instrument(app, std::string(app.name) + "@amnesia",
                 options, [&](obs::RunReport::Section& section) {
                   section.set_label("crash_node",
                                     std::to_string(static_cast<std::size_t>(victim)));
                   section.set_label("crash_window",
                                     "[" + std::to_string(kCrashRound) + ", " +
                                         std::to_string(kRestartRound) + ")");
                   section.set_label("recover", opt.recover ? "on" : "off");
                   section.set_label("transport", "reliable");
                 });
    }
  }
  return report.to_json();
}

/// Write the --report document to opt.report. With a store the whole
/// document is read through the result cache: a hit writes the sealed bytes,
/// a miss renders, validates, and seals them — so cached and uncached
/// invocations write byte-for-byte the same file.
int write_run_report(const net::Graph& graph, const Options& opt,
                     const std::vector<AppEntry>& suite, cache::Store* store) {
  const std::string key = store != nullptr ? report_cache_key(opt, graph) : "";
  std::string json;
  if (store == nullptr || !store->get(key, &json)) {
    json = render_run_report(graph, opt, suite);
    std::string error;
    if (!obs::json_valid(json, &error)) {
      std::fprintf(stderr, "chaos_run: generated report is not valid JSON (%s)\n",
                   error.c_str());
      return 1;
    }
    std::string put_error;
    if (store != nullptr) (void)store->put(key, json, &put_error);  // best effort
  }
  std::ofstream out(opt.report, std::ios::binary);
  out << json;
  if (!out.flush()) {
    std::fprintf(stderr, "chaos_run: cannot write %s\n", opt.report.c_str());
    return 1;
  }
  std::printf("# run report: %s\n", opt.report.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "gc") == 0) return run_gc(argc, argv);

  Options opt;
  if (!parse(argc, argv, opt)) {
    std::puts(
        "usage: chaos_run [--nodes N] [--trials T] [--graph FAMILY]\n"
        "                 [--transport reliable|direct] [--seed S]\n"
        "                 [--threads T] [--jobs J] [--deadline ROUNDS]\n"
        "                 [--verify] [--audit-determinism] [--report PATH]\n"
        "                 [--amnesia] [--recover]\n"
        "                 [--cache] [--no-cache] [--cache-dir PATH]\n"
        "       chaos_run gc [--cache-dir PATH] [--max-bytes N]\n"
        "families: tree path cycle grid random star complete");
    return 2;
  }

  const net::Graph graph = make_graph(opt);
  // The sweep suite is the registry minus the framework apps dj and
  // meeting, which join only the recovery lane below (historic sweep set —
  // the sweep's fault levels were calibrated against these seven).
  std::vector<AppEntry> suite;
  for (const AppEntry& app : apps::app_registry()) {
    std::string_view name = app.name;
    if (name != "dj" && name != "meeting") suite.push_back(app);
  }

  // The result cache (src/cache): shared by the sweep DAG and the report
  // pass. The determinism audit never touches it — its whole point is to
  // re-execute.
  const std::string cache_dir = resolve_cache_dir(opt);
  std::unique_ptr<cache::Store> store;
  if (!cache_dir.empty()) store = std::make_unique<cache::Store>(cache_dir);

  if (opt.audit_determinism) return run_determinism_audit(graph, opt, suite);

  if (opt.amnesia) {
    // The recovery lane runs the full registry: dj and meeting are
    // multi-phase (election + tree build + pipelined aggregation), the
    // richest recovery surface the suite has. The lane itself always
    // executes (its verdicts are about live behaviour under a watchdog);
    // only the report reads through the cache.
    const std::vector<AppEntry>& recovery_suite = apps::app_registry();
    int exit_code = run_recovery_lane(graph, opt, recovery_suite);
    if (!opt.report.empty()) {
      int report_code = write_run_report(graph, opt, recovery_suite, store.get());
      if (report_code != 0) exit_code = report_code;
    }
    return exit_code;
  }

  check::Verifier verifier;
  const std::vector<double> rates = {0.0, 0.01, 0.02, 0.05, 0.1};

  std::size_t jobs = opt.jobs;
  if (opt.verify && jobs > 1) {
    std::printf("# --verify shares one conformance observer; experiments run serially\n");
    jobs = 1;
  }
  // --verify must observe every run execute, so it bypasses the cache.
  cache::Store* sweep_store = opt.verify ? nullptr : store.get();

  std::printf("# graph=%s nodes=%zu trials=%zu transport=%s threads=%zu jobs=%zu\n",
              opt.graph.c_str(), graph.num_nodes(), opt.trials,
              opt.transport == net::Transport::kReliable ? "reliable" : "direct",
              opt.threads, jobs);
  if (store != nullptr) {
    std::printf("# cache: %s%s\n", cache_dir.c_str(),
                sweep_store == nullptr ? " (bypassed by --verify)" : "");
  }

  // The sweep as an experiment DAG: one node per (app, fault level); every
  // faulty level depends on its app's clean run, whose median rounds is the
  // overhead denominator. The runner schedules ready nodes across `jobs`
  // workers, serves hits from the store, and seals misses back in;
  // aggregation below consumes sealed blobs only, so the table is identical
  // whether a row was computed or replayed.
  std::vector<cache::Experiment> experiments;
  for (const AppEntry& app : suite) {
    const std::string clean_name =
        std::string(app.name) + "@drop=" + rate_label(rates[0]);
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
      const double rate = rates[ri];
      cache::Experiment experiment;
      experiment.name = std::string(app.name) + "@drop=" + rate_label(rate);
      if (ri > 0) experiment.deps.push_back(clean_name);
      if (sweep_store != nullptr) {
        experiment.key = sweep_cache_key(opt, graph, app.name, rate);
      }
      check::Verifier* observer = opt.verify ? &verifier : nullptr;
      experiment.produce = [&graph, &opt, &app, rate, observer]() {
        return run_sweep_experiment(graph, opt, app, rate, observer);
      };
      experiments.push_back(std::move(experiment));
    }
  }

  obs::MetricsRegistry cache_metrics;
  cache::DagRunner runner(sweep_store, &cache_metrics);
  const std::vector<cache::ExperimentResult> results =
      runner.run(experiments, jobs);

  std::printf("%-12s %6s %8s %6s %9s %11s %9s %13s\n", "app", "drop", "corrupt",
              "dup", "success", "med_rounds", "overhead", "retrans/run");

  int exit_code = 0;
  std::size_t result_index = 0;
  for (const AppEntry& app : suite) {
    double clean_rounds = 0.0;
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
      const double rate = rates[ri];
      const cache::ExperimentResult& result = results[result_index++];
      std::vector<TrialStat> stats;
      if (!result.ok) {
        std::fprintf(stderr, "chaos_run: experiment %s failed: %s\n",
                     result.name.c_str(), result.error.c_str());
        exit_code = 1;
      } else if (!decode_sweep_blob(result.blob, &stats)) {
        std::fprintf(stderr, "chaos_run: experiment %s: undecodable blob\n",
                     result.name.c_str());
        exit_code = 1;
        stats.clear();
      }

      std::size_t successes = 0;
      std::size_t retransmissions = 0;
      std::vector<double> rounds;
      for (const TrialStat& stat : stats) {
        retransmissions += stat.retransmissions;
        if (stat.success) {
          ++successes;
          rounds.push_back(static_cast<double>(stat.rounds));
        }
      }

      double med = median(rounds);
      if (ri == 0) clean_rounds = med;
      double overhead = clean_rounds > 0.0 && med > 0.0 ? med / clean_rounds : 0.0;
      double success_rate =
          static_cast<double>(successes) / static_cast<double>(opt.trials);
      std::printf("%-12s %6.2f %8.3f %6.3f %8.0f%% %11.0f %8.2fx %13.1f\n",
                  app.name, rate, rate / 5.0, rate / 10.0, 100.0 * success_rate,
                  med, overhead,
                  static_cast<double>(retransmissions) /
                      static_cast<double>(opt.trials));
      // The acceptance bar: with the reliable transport every app must keep
      // a success rate of at least 2/3 at every swept fault level.
      if (opt.transport == net::Transport::kReliable && 3 * successes < 2 * opt.trials) {
        exit_code = 1;
      }
    }
  }
  if (exit_code != 0) {
    std::fprintf(stderr, "chaos_run: some app fell below 2/3 success\n");
  }
  if (opt.verify) {
    std::printf("%s\n", verifier.report().c_str());
    if (!verifier.ok()) exit_code = 1;
  }
  if (!opt.report.empty()) {
    int report_code = write_run_report(graph, opt, suite, store.get());
    if (report_code != 0) exit_code = report_code;
  }
  if (store != nullptr) {
    // hit/miss/evict visibility rides the metrics pipeline (the DAG runner
    // counted dag.* into cache_metrics above); the store totals below also
    // cover the report pass, which shares the same Store.
    store->export_metrics(cache_metrics);
    const cache::Store::Stats totals = store->stats();
    std::printf("# cache: hits=%zu misses=%zu puts=%zu corrupt=%zu\n",
                totals.hits, totals.misses + totals.corrupt_misses, totals.puts,
                totals.corrupt_misses);
  }
  return exit_code;
}
