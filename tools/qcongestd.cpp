// qcongestd: the fault-tolerant multi-tenant simulation service.
//
// A single binary that listens on a loopback TCP port, accepts job frames
// (app, topology, fault plan, seed, threads, deadline) over the
// length-prefixed wire protocol in src/serve/frame.hpp, runs each job on a
// shared util::ThreadPool, and streams back obs::RunReport JSON documents.
//
//   qcongestd --port 7143 --workers 4 --max-pending 32
//   qcongestd --port 0 --port-file /tmp/qcongestd.port   # ephemeral port
//
// Robustness properties (unit-tested in tests/serve_*_test.cpp, and
// exercised end to end by scripts/service_smoke.sh):
//   - bounded admission queue with structured load shedding;
//   - per-job watchdog deadlines: hung protocols become error reports;
//   - per-job exception isolation: a throwing job never kills the daemon;
//   - strict frame validation: garbage tears down one connection only;
//   - byte-identical reports for identical (job, seed) at any load.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/obs/metrics.hpp"
#include "src/serve/server.hpp"
#include "src/util/env.hpp"
#include "src/util/parse.hpp"

namespace {

using qcongest::util::parse_size;

qcongest::serve::Server* g_server = nullptr;

void handle_signal(int) {
  // request_stop only stores an atomic and write()s the self-pipe, both
  // async-signal-safe; the reactor does the actual teardown.
  if (g_server != nullptr) g_server->request_stop();
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --port <n>            TCP port to bind (default 0 = ephemeral)\n"
      "  --bind <addr>         bind address (default 127.0.0.1)\n"
      "  --workers <n>         job worker threads (default 4)\n"
      "  --max-pending <n>     admission bound before shedding (default 32)\n"
      "  --max-connections <n> concurrent connections (default 64)\n"
      "  --max-nodes <n>       per-job node cap (default 256)\n"
      "  --deadline-rounds <n> default watchdog deadline (default 200000)\n"
      "  --cache-dir <path>    content-addressed result cache root\n"
      "                        (default $QCONGEST_CACHE_DIR; empty = off)\n"
      "  --journal-dir <path>  write-ahead job journal root (empty = off);\n"
      "                        on restart the journal is replayed: completed\n"
      "                        jobs re-serve from the cache, incomplete ones\n"
      "                        re-enqueue in journal order\n"
      "  --journal-fsync       fsync every journal record (power-loss\n"
      "                        durability; default off = survives SIGKILL)\n"
      "  --stats-json <path>   write final server/service/journal counters\n"
      "                        as JSON on clean shutdown\n"
      "  --port-file <path>    write the bound port to this file\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  qcongest::serve::ServerConfig config;
  std::string port_file;
  std::string stats_json_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "qcongestd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    std::size_t value = 0;
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--port") {
      if (!parse_size(next(), &value) || value > 65535) {
        std::fprintf(stderr, "qcongestd: bad --port\n");
        return 2;
      }
      config.port = static_cast<std::uint16_t>(value);
    } else if (arg == "--bind") {
      config.bind_address = next();
    } else if (arg == "--workers") {
      if (!parse_size(next(), &value) || value == 0) {
        std::fprintf(stderr, "qcongestd: bad --workers\n");
        return 2;
      }
      config.service.workers = value;
    } else if (arg == "--max-pending") {
      if (!parse_size(next(), &value) || value == 0) {
        std::fprintf(stderr, "qcongestd: bad --max-pending\n");
        return 2;
      }
      config.service.max_pending = value;
    } else if (arg == "--max-connections") {
      if (!parse_size(next(), &value) || value == 0) {
        std::fprintf(stderr, "qcongestd: bad --max-connections\n");
        return 2;
      }
      config.max_connections = value;
    } else if (arg == "--max-nodes") {
      if (!parse_size(next(), &value) || value < 2) {
        std::fprintf(stderr, "qcongestd: bad --max-nodes\n");
        return 2;
      }
      config.service.limits.max_nodes = value;
    } else if (arg == "--deadline-rounds") {
      if (!parse_size(next(), &value) || value == 0) {
        std::fprintf(stderr, "qcongestd: bad --deadline-rounds\n");
        return 2;
      }
      config.service.default_deadline_rounds = value;
    } else if (arg == "--cache-dir") {
      config.service.cache_dir = next();
    } else if (arg == "--journal-dir") {
      config.service.journal_dir = next();
    } else if (arg == "--journal-fsync") {
      config.service.journal_fsync = true;
    } else if (arg == "--stats-json") {
      stats_json_file = next();
    } else if (arg == "--port-file") {
      port_file = next();
    } else {
      std::fprintf(stderr, "qcongestd: unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  // --cache-dir wins; otherwise the strict QCONGEST_CACHE_DIR parse decides
  // (a malformed value disables caching with a visible reason, it never
  // half-configures the store).
  if (config.service.cache_dir.empty()) {
    std::string warning;
    config.service.cache_dir = qcongest::util::env_cache_dir(
        std::getenv("QCONGEST_CACHE_DIR"), &warning);
    if (!warning.empty()) {
      std::fprintf(stderr, "qcongestd: QCONGEST_CACHE_DIR %s\n", warning.c_str());
    }
  }

  // Durability without a result cache still replays incomplete jobs, but
  // completed ones lose their cheap re-serve path; say so once up front.
  if (!config.service.journal_dir.empty() && config.service.cache_dir.empty()) {
    std::fprintf(stderr,
                 "qcongestd: --journal-dir without --cache-dir: replayed "
                 "completed jobs will re-run instead of re-serving from the "
                 "cache\n");
  }

  qcongest::serve::Server server(config);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "qcongestd: %s\n", error.c_str());
    return 1;
  }

  // Constructing the server replayed the journal (if any); surface what
  // the recovery found before the first new job arrives, so restart logs
  // carry the durability story.
  if (!config.service.journal_dir.empty()) {
    const auto& recovery = server.service().recovery();
    std::printf(
        "qcongestd: journal recovered incomplete=%zu completed=%zu "
        "aborted=%zu records=%zu segments=%zu corrupt=%zu torn_tails=%zu "
        "diagnostics=%zu\n",
        recovery.incomplete.size(), recovery.completed_jobs,
        recovery.aborted_jobs, recovery.records, recovery.segments,
        recovery.corrupt_records, recovery.torn_tails,
        recovery.diagnostics.size());
  }

  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("qcongestd: listening on %s:%u (workers=%zu max_pending=%zu)\n",
              config.bind_address.c_str(), unsigned{server.port()},
              config.service.workers, config.service.max_pending);
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "qcongestd: cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", unsigned{server.port()});
    std::fclose(f);
  }

  server.run();
  g_server = nullptr;

  const auto server_stats = server.stats();
  const auto service_stats = server.service().stats();
  std::printf(
      "qcongestd: shut down cleanly "
      "(connections=%zu shed_connections=%zu frames=%zu protocol_errors=%zu "
      "jobs=%zu completed=%zu shed_jobs=%zu invalid=%zu "
      "cache_hits=%zu cache_misses=%zu "
      "coalesced=%zu recovered=%zu recovery_aborted=%zu)\n",
      server_stats.connections_accepted, server_stats.connections_rejected,
      server_stats.frames_received, server_stats.protocol_errors,
      service_stats.submitted, service_stats.completed,
      service_stats.rejected_overload, service_stats.invalid_specs,
      service_stats.cache_hits, service_stats.cache_misses,
      service_stats.coalesced, service_stats.recovered,
      service_stats.recovery_aborted);
  if (const auto* journal = server.service().journal()) {
    const auto journal_stats = journal->stats();
    std::printf(
        "qcongestd: journal (appends=%zu dropped=%zu io_errors=%zu "
        "rotations=%zu compactions=%zu degraded=%d)\n",
        journal_stats.appends, journal_stats.dropped, journal_stats.io_errors,
        journal_stats.rotations, journal_stats.compactions,
        int{journal_stats.degraded});
  }

  if (!stats_json_file.empty()) {
    qcongest::obs::MetricsRegistry registry;
    registry.count("server.connections_accepted",
                   server_stats.connections_accepted);
    registry.count("server.connections_rejected",
                   server_stats.connections_rejected);
    registry.count("server.frames_received", server_stats.frames_received);
    registry.count("server.protocol_errors", server_stats.protocol_errors);
    registry.count("service.submitted", service_stats.submitted);
    registry.count("service.admitted", service_stats.admitted);
    registry.count("service.completed", service_stats.completed);
    registry.count("service.rejected_overload", service_stats.rejected_overload);
    registry.count("service.invalid_specs", service_stats.invalid_specs);
    registry.count("service.cache_hits", service_stats.cache_hits);
    registry.count("service.cache_misses", service_stats.cache_misses);
    registry.count("service.coalesced", service_stats.coalesced);
    registry.count("service.recovered", service_stats.recovered);
    registry.count("service.recovery_aborted", service_stats.recovery_aborted);
    if (const auto* journal = server.service().journal()) {
      journal->export_metrics(registry);
      const auto& recovery = server.service().recovery();
      registry.count("recovery.incomplete", recovery.incomplete.size());
      registry.count("recovery.completed_jobs", recovery.completed_jobs);
      registry.count("recovery.aborted_jobs", recovery.aborted_jobs);
      registry.count("recovery.records", recovery.records);
      registry.count("recovery.segments", recovery.segments);
      registry.count("recovery.corrupt_records", recovery.corrupt_records);
      registry.count("recovery.torn_tails", recovery.torn_tails);
    }
    std::FILE* f = std::fopen(stats_json_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "qcongestd: cannot write %s\n",
                   stats_json_file.c_str());
      return 1;
    }
    const std::string doc = registry.to_json();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  return 0;
}
