#include "src/serve/job.hpp"

#include <cctype>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "src/apps/net_options.hpp"
#include "src/apps/registry.hpp"
#include "src/cache/key.hpp"
#include "src/net/trace.hpp"
#include "src/obs/round_profiler.hpp"
#include "src/obs/run_report.hpp"
#include "src/recover/watchdog.hpp"
#include "src/util/parse.hpp"

namespace qcongest::serve {

namespace {

bool parse_flag(std::string_view text, bool* out) {
  if (text == "1" || text == "true") {
    *out = true;
    return true;
  }
  if (text == "0" || text == "false") {
    *out = false;
    return true;
  }
  return false;
}

/// node:crash:restart[:amnesia], fields strict.
bool parse_crash(std::string_view text, JobSpec::Crash* out) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t colon = text.find(':', start);
    if (colon == std::string_view::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, colon - start));
    start = colon + 1;
  }
  if (parts.size() != 3 && parts.size() != 4) return false;
  std::size_t node = 0;
  if (!util::parse_size(parts[0], &node)) return false;
  out->node = static_cast<net::NodeId>(node);
  if (!util::parse_size(parts[1], &out->crash_round)) return false;
  if (parts[2] == "never") {
    out->restart_round = net::CrashEvent::kNeverRestarts;
  } else if (!util::parse_size(parts[2], &out->restart_round)) {
    return false;
  }
  out->amnesia = false;
  if (parts.size() == 4) {
    if (parts[3] != "amnesia") return false;
    out->amnesia = true;
  }
  return true;
}

bool fail(std::string* error, std::string reason) {
  if (error != nullptr) *error = std::move(reason);
  return false;
}

std::string format_prob(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", p);
  return buf;
}

}  // namespace

bool parse_job_spec(std::string_view text, JobSpec* out, std::string* error) {
  *out = JobSpec{};
  std::set<std::string> seen;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line = eol == std::string_view::npos
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;
    std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return fail(error, "line " + std::to_string(line_no) +
                             ": expected key=value, got '" + std::string(line) +
                             "'");
    }
    std::string key(line.substr(0, eq));
    std::string_view value = line.substr(eq + 1);
    // crash is the one repeatable key (one scheduled outage each).
    if (key != "crash" && !seen.insert(key).second) {
      return fail(error, "duplicate key '" + key + "'");
    }
    bool ok = true;
    if (key == "id") {
      ok = !value.empty() && value.size() <= 64;
      for (char c : value) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '_' && c != '.') {
          ok = false;
        }
      }
      if (ok) out->id = std::string(value);
    } else if (key == "app") {
      ok = !value.empty() && value.size() <= 64;
      if (ok) out->app = std::string(value);
    } else if (key == "graph") {
      ok = !value.empty() && value.size() <= 64;
      if (ok) out->graph = std::string(value);
    } else if (key == "nodes") {
      ok = util::parse_size(value, &out->nodes);
    } else if (key == "seed") {
      ok = util::parse_u64(value, &out->seed);
    } else if (key == "fault_seed") {
      ok = util::parse_u64(value, &out->fault_seed);
      out->fault_seed_set = ok;
    } else if (key == "threads") {
      ok = util::parse_size(value, &out->threads) && out->threads >= 1;
    } else if (key == "deadline_rounds") {
      ok = util::parse_size(value, &out->deadline_rounds);
    } else if (key == "transport") {
      if (value == "reliable") {
        out->transport = net::Transport::kReliable;
      } else if (value == "direct") {
        out->transport = net::Transport::kDirect;
      } else {
        ok = false;
      }
    } else if (key == "drop") {
      ok = util::parse_prob(value, &out->drop);
    } else if (key == "corrupt") {
      ok = util::parse_prob(value, &out->corrupt);
    } else if (key == "duplicate") {
      ok = util::parse_prob(value, &out->duplicate);
    } else if (key == "crash") {
      JobSpec::Crash crash;
      ok = parse_crash(value, &crash);
      if (ok) out->crashes.push_back(crash);
    } else if (key == "recover") {
      ok = parse_flag(value, &out->recover);
    } else {
      return fail(error, "unknown key '" + key + "'");
    }
    if (!ok) {
      return fail(error, "invalid value for '" + key + "': '" +
                             std::string(value) + "'");
    }
  }
  if (out->id.empty()) return fail(error, "missing required key 'id'");
  if (out->app.empty()) return fail(error, "missing required key 'app'");
  return true;
}

bool validate_job_spec(const JobSpec& spec, const JobLimits& limits,
                       std::string* error) {
  if (apps::find_app(spec.app) == nullptr) {
    return fail(error, "unknown app '" + spec.app + "'");
  }
  if (spec.nodes < 2 || spec.nodes > limits.max_nodes) {
    return fail(error, "nodes " + std::to_string(spec.nodes) +
                           " outside [2, " + std::to_string(limits.max_nodes) +
                           "]");
  }
  if (spec.threads > limits.max_threads) {
    return fail(error, "threads " + std::to_string(spec.threads) + " exceeds " +
                           std::to_string(limits.max_threads));
  }
  if (spec.deadline_rounds > limits.max_deadline_rounds) {
    return fail(error, "deadline_rounds " + std::to_string(spec.deadline_rounds) +
                           " exceeds " +
                           std::to_string(limits.max_deadline_rounds));
  }
  bool known_family = false;
  for (const std::string& family : apps::graph_families()) {
    if (family == spec.graph) known_family = true;
  }
  if (!known_family) {
    return fail(error, "unknown graph family '" + spec.graph + "'");
  }
  try {
    job_fault_plan(spec).validate(spec.nodes);
  } catch (const std::exception& e) {
    return fail(error, e.what());
  }
  return true;
}

net::FaultPlan job_fault_plan(const JobSpec& spec) {
  net::FaultPlan plan;
  plan.link.drop = spec.drop;
  plan.link.corrupt = spec.corrupt;
  plan.link.duplicate = spec.duplicate;
  for (const JobSpec::Crash& crash : spec.crashes) {
    net::CrashEvent event;
    event.node = crash.node;
    event.crash_round = crash.crash_round;
    event.restart_round = crash.restart_round;
    event.amnesia = crash.amnesia;
    plan.crashes.push_back(event);
  }
  plan.seed = spec.fault_seed_set ? spec.fault_seed : spec.seed * 1000;
  return plan;
}

std::string run_job_report(const JobSpec& spec,
                           std::size_t default_deadline_rounds) {
  const std::size_t deadline =
      spec.deadline_rounds > 0 ? spec.deadline_rounds : default_deadline_rounds;

  obs::RunReport report("qcongestd");
  obs::RunReport::Section& section = report.add_section(spec.app);
  section.set_label("app", spec.app);
  section.set_label("graph", spec.graph);
  section.set_label("nodes", std::to_string(spec.nodes));
  section.set_label("seed", std::to_string(spec.seed));
  section.set_label("fault_seed", std::to_string(job_fault_plan(spec).seed));
  section.set_label("transport", spec.transport == net::Transport::kReliable
                                     ? "reliable"
                                     : "direct");
  section.set_label("deadline_rounds", std::to_string(deadline));
  if (spec.drop > 0.0) section.set_label("drop", format_prob(spec.drop));
  if (spec.corrupt > 0.0) section.set_label("corrupt", format_prob(spec.corrupt));
  if (spec.duplicate > 0.0) {
    section.set_label("duplicate", format_prob(spec.duplicate));
  }
  if (!spec.crashes.empty()) {
    std::string windows;
    for (const JobSpec::Crash& c : spec.crashes) {
      if (!windows.empty()) windows += ' ';
      windows += std::to_string(static_cast<std::size_t>(c.node)) + ":[" +
                 std::to_string(c.crash_round) + "," +
                 (c.restart_round == net::CrashEvent::kNeverRestarts
                      ? std::string("never")
                      : std::to_string(c.restart_round)) +
                 ")" + (c.amnesia ? ":amnesia" : "");
    }
    section.set_label("crashes", windows);
    section.set_label("recover", spec.recover ? "on" : "off");
  }

  // Everything below is job-local — graph, engine, watchdog, taps — so
  // concurrently executing jobs cannot observe each other, which is half of
  // the byte-identity guarantee (the other half is the engine's own
  // threads-independent determinism).
  try {
    const net::Graph graph =
        apps::make_registry_graph(spec.graph, spec.nodes, spec.seed);
    const apps::AppRunner* runner = apps::find_app(spec.app);
    if (runner == nullptr) throw std::invalid_argument("unknown app " + spec.app);

    recover::Watchdog watchdog(recover::WatchdogConfig{
        /*stall_rounds=*/1024, /*deadline_rounds=*/deadline});
    net::Trace trace;
    obs::RoundProfiler profiler;

    apps::NetOptions options;
    options.seed = spec.seed;
    options.threads = spec.threads;
    options.transport = spec.transport;
    options.fault_plan = job_fault_plan(spec);
    options.watchdog = &watchdog;
    options.trace = &trace;
    options.metrics = &profiler;
    if (spec.recover) {
      options.recovery.enabled = true;
      options.recovery.checkpoint.every_rounds = 3;
    }

    apps::AppOutcome out = (*runner)(graph, options);
    section.set_outcome(out.success);
    section.set_result(out.cost);
    section.set_trace(trace);
    section.set_profile(profiler);
  } catch (const recover::LivelockError& e) {
    section.set_outcome(false);
    const char* kind = "retransmit_storm";
    if (e.kind() == recover::LivelockError::Kind::kDeadlineExceeded) {
      kind = "deadline_exceeded";
    } else if (e.kind() == recover::LivelockError::Kind::kQuiescentSpin) {
      kind = "quiescent_spin";
    }
    section.set_label("error_kind", kind);
    section.set_label("error_round", std::to_string(e.round()));
    std::string suspects;
    for (net::NodeId v : e.suspects()) {
      if (!suspects.empty()) suspects += ',';
      suspects += std::to_string(static_cast<std::size_t>(v));
    }
    if (!suspects.empty()) section.set_label("error_suspects", suspects);
    section.set_label("error", e.what());
  } catch (const std::exception& e) {
    section.set_outcome(false);
    section.set_label("error_kind", "exception");
    section.set_label("error", e.what());
  } catch (...) {
    section.set_outcome(false);
    section.set_label("error_kind", "exception");
    section.set_label("error", "unknown exception");
  }
  return report.to_json();
}

std::string job_cache_key(const JobSpec& spec,
                          std::size_t default_deadline_rounds,
                          std::string_view salt) {
  const std::size_t deadline =
      spec.deadline_rounds > 0 ? spec.deadline_rounds : default_deadline_rounds;
  cache::KeyBuilder key;
  key.field("salt", salt);
  key.field("producer", "qcongestd");
  key.field("schema", static_cast<std::uint64_t>(obs::kReportSchemaVersion));
  key.field("app", spec.app);
  key.field("graph", spec.graph);
  key.field("nodes", static_cast<std::uint64_t>(spec.nodes));
  key.field("seed", spec.seed);
  key.field("deadline_rounds", static_cast<std::uint64_t>(deadline));
  key.field("transport",
            spec.transport == net::Transport::kReliable ? "reliable" : "direct");
  key.field("recover", spec.recover);
  key.fault_plan("fault", job_fault_plan(spec));
  return key.digest();
}

}  // namespace qcongest::serve
