// qload: load generator and correctness client for qcongestd.
//
// Drives a running daemon with a stream of job specs and checks the
// service-level contracts end to end:
//   - every submit gets exactly one structured reply (ok/invalid/rejected);
//   - overload shedding is graceful: rejected jobs carry a retry-after
//     hint and succeed when retried with capped, deterministically
//     jittered backoff (the same jitter discipline as the reliable
//     transport's RTO, see src/serve/backoff.hpp);
//   - identical (job, seed) pairs produce byte-identical reports at
//     thread budgets 1 and 8, under whatever load the rest of the run
//     puts on the server (--check-determinism).
//
//   qload --port 7143 --jobs 24 --apps bfs,leader --nodes 24
//   qload --port-file /tmp/p --jobs 64 --burst --expect-shed
//   qload --port 7143 --check-determinism --shutdown
//   qload --port 7143 --jobs 32 --reconnect --dump-dir /tmp/reports
//
// With --reconnect a lost connection (daemon crash, restart) is not an
// error: qload reconnects with bounded retries and re-submits every
// unacknowledged spec. Resubmission is idempotent end to end — the server
// keys jobs by their content-derived cache key, so the retried job either
// attaches to the original run, re-serves from the result cache, or
// re-runs to the same bytes. Used by scripts/crash_smoke.sh to prove the
// journal's crash-restart contract.
//
// Exit status: 0 when every check passed, 1 otherwise.

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/serve/backoff.hpp"
#include "src/serve/frame.hpp"
#include "src/util/parse.hpp"

namespace {

using qcongest::util::parse_prob;
using qcongest::util::parse_u64;

using qcongest::serve::Frame;
using qcongest::serve::FrameReader;
using qcongest::serve::FrameType;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string port_file;
  std::size_t jobs = 8;
  std::vector<std::string> apps = {"bfs", "leader", "convergecast"};
  std::string graph = "tree";
  std::size_t nodes = 16;
  std::uint64_t seed = 1;
  std::size_t threads = 2;
  std::size_t deadline_rounds = 0;  // 0 = server default
  double drop = 0.0;
  bool burst = false;        // fire all submits before reading any reply
  bool expect_shed = false;  // fail unless at least one overload rejection
  bool check_determinism = false;
  bool shutdown_server = false;
  std::size_t max_retries = 8;
  int timeout_ms = 60000;
  /// Survive lost connections: reconnect (bounded retries, fixed delay)
  /// and re-submit every spec that never got its reply.
  bool reconnect = false;
  std::size_t reconnect_attempts = 120;
  std::uint64_t reconnect_delay_ms = 250;
  /// Write each ok reply body to <dump_dir>/<id>.json (byte-identity
  /// audits across runs; crash_smoke compares these with cmp).
  std::string dump_dir;
};

void sleep_ms(std::uint64_t ms) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

/// Blocking framed client over one TCP connection.
class Client {
 public:
  Client() : reader_(qcongest::serve::kMaxPayload) {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connect(const std::string& host, std::uint16_t port,
               std::string* error) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      *error = "bad host " + host;
      return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = host + ":" + std::to_string(port) + ": " + std::strerror(errno);
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  bool send_frame(FrameType type, std::string_view payload,
                  std::string* error) {
    std::string wire = qcongest::serve::encode_frame(type, payload);
    std::size_t sent = 0;
    while (sent < wire.size()) {
      ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                         MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    return true;
  }

  /// Block until one full frame arrives (or timeout/EOF/framing error).
  bool recv_frame(Frame* out, int timeout_ms, std::string* error) {
    while (true) {
      FrameReader::Result result = reader_.next(out);
      if (result == FrameReader::Result::kFrame) return true;
      if (result == FrameReader::Result::kError) {
        *error = "framing: " + std::string(reader_.error());
        return false;
      }
      pollfd pfd{fd_, POLLIN, 0};
      int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready == 0) {
        *error = "timed out waiting for a reply (server hung?)";
        return false;
      }
      if (ready < 0) {
        if (errno == EINTR) continue;
        *error = std::string("poll: ") + std::strerror(errno);
        return false;
      }
      char buf[16384];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        reader_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        continue;
      }
      if (n == 0) {
        *error = "server closed the connection";
        return false;
      }
      if (errno == EINTR) continue;
      *error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
  }

  /// Drop the connection and all buffered frame state, ready for a fresh
  /// connect() — the reconnect path after a daemon crash.
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    reader_ = FrameReader(qcongest::serve::kMaxPayload);
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

/// A parsed reply payload: `key=value` header lines, then (for ok) a blank
/// line and the report JSON.
struct Reply {
  std::string id;
  std::string status;  // ok | invalid | rejected
  std::string reason;  // rejected: overloaded | shutting_down
  std::string parse_error;
  std::uint64_t retry_after_ms = 0;
  std::string body;  // report JSON (ok only)
};

Reply parse_reply(std::string_view payload) {
  Reply reply;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) {
      reply.body = std::string(payload.substr(pos));
      break;
    }
    std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) continue;
    std::string_view key = line.substr(0, eq);
    std::string_view value = line.substr(eq + 1);
    if (key == "id") {
      reply.id = std::string(value);
    } else if (key == "status") {
      reply.status = std::string(value);
    } else if (key == "reason" || key == "error") {
      reply.reason = std::string(value);
    } else if (key == "retry_after_ms") {
      reply.retry_after_ms = std::strtoull(std::string(value).c_str(),
                                           nullptr, 10);
    }
  }
  return reply;
}

std::string make_spec(const Options& opt, const std::string& id,
                      const std::string& app, std::uint64_t seed,
                      std::size_t threads) {
  std::string spec;
  spec += "id=" + id + "\n";
  spec += "app=" + app + "\n";
  spec += "graph=" + opt.graph + "\n";
  spec += "nodes=" + std::to_string(opt.nodes) + "\n";
  spec += "seed=" + std::to_string(seed) + "\n";
  spec += "threads=" + std::to_string(threads) + "\n";
  if (opt.deadline_rounds > 0) {
    spec += "deadline_rounds=" + std::to_string(opt.deadline_rounds) + "\n";
  }
  if (opt.drop > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "drop=%.6f", opt.drop);
    spec += std::string(buf) + "\n";
  }
  return spec;
}

struct Tally {
  std::size_t ok = 0;
  std::size_t invalid = 0;
  std::size_t shed = 0;      // overload rejections observed (pre-retry)
  std::size_t retried = 0;   // submits re-sent after a shed
  std::size_t failed = 0;    // gave up: retries exhausted or hard error
  std::size_t reconnects = 0;  // connections re-established after a loss
};

/// (Re)connect, with bounded retries when --reconnect is on: a restarting
/// daemon needs a moment between SIGKILL and the fresh bind.
bool connect_with_retry(Client& client, const Options& opt,
                        std::string* error) {
  const std::size_t attempts = opt.reconnect ? opt.reconnect_attempts : 1;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    client.reset();
    if (client.connect(opt.host, opt.port, error)) return true;
    if (attempt + 1 < attempts) sleep_ms(opt.reconnect_delay_ms);
  }
  return false;
}

/// Submit one spec, retrying shed jobs with capped jittered backoff. The
/// jitter stream is the job index, so a burst of shed clients spreads out
/// deterministically instead of re-arriving in lockstep. With --reconnect
/// a transport failure (crash, restart, timeout) additionally reconnects
/// and re-submits: safe because the server dedupes on the spec's cache
/// key, so the retry can only yield the same bytes.
bool submit_with_retry(Client& client, const Options& opt,
                       const std::string& spec, std::uint64_t stream,
                       Reply* out, Tally* tally, std::string* error) {
  qcongest::serve::BackoffParams backoff;
  backoff.seed = opt.seed;
  std::size_t transport_failures = 0;
  for (std::uint32_t attempt = 0;;) {
    Frame frame;
    const bool exchanged = client.send_frame(FrameType::kSubmit, spec, error) &&
                           client.recv_frame(&frame, opt.timeout_ms, error);
    if (!exchanged) {
      if (!opt.reconnect) return false;
      if (++transport_failures > 10) {
        *error = "too many transport failures, last: " + *error;
        return false;
      }
      if (!connect_with_retry(client, opt, error)) return false;
      ++tally->reconnects;
      continue;  // idempotent resubmission of the same spec
    }
    if (frame.type == FrameType::kError) {
      *error = "server error: " + frame.payload;
      return false;
    }
    *out = parse_reply(frame.payload);
    if (out->status != "rejected" || out->reason != "overloaded") return true;
    ++tally->shed;
    if (attempt >= opt.max_retries) {
      *error = "retries exhausted (still overloaded)";
      return false;
    }
    std::uint64_t delay =
        qcongest::serve::backoff_delay_ms(backoff, stream, attempt);
    if (out->retry_after_ms > delay) delay = out->retry_after_ms;
    sleep_ms(delay);
    ++tally->retried;
    ++attempt;
  }
}

/// Persist an ok reply's report for byte-identity audits across runs.
void dump_reply(const Options& opt, const Reply& reply) {
  if (opt.dump_dir.empty() || reply.status != "ok" || reply.id.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(opt.dump_dir, ec);
  std::ofstream out(opt.dump_dir + "/" + reply.id + ".json",
                    std::ios::binary | std::ios::trunc);
  out << reply.body;
}

void count_reply(const Options& opt, const Reply& reply, Tally* tally) {
  if (reply.status == "ok") {
    ++tally->ok;
    dump_reply(opt, reply);
  } else if (reply.status == "invalid") {
    ++tally->invalid;
  } else {
    ++tally->failed;
  }
}

/// Byte-compare report bodies for the same (job, seed) at threads 1 vs 8.
bool run_determinism_check(const Options& opt, Tally* tally) {
  bool all_equal = true;
  for (std::size_t i = 0; i < opt.apps.size(); ++i) {
    const std::string& app = opt.apps[i];
    const std::uint64_t seed = opt.seed + i;
    std::string bodies[2];
    const std::size_t budgets[2] = {1, 8};
    for (int side = 0; side < 2; ++side) {
      // Fresh connection per probe: determinism must hold across
      // connections, not just within one.
      Client client;
      std::string error;
      if (!client.connect(opt.host, opt.port, &error)) {
        std::fprintf(stderr, "qload: determinism probe connect: %s\n",
                     error.c_str());
        return false;
      }
      const std::string id =
          "det-" + app + "-t" + std::to_string(budgets[side]);
      const std::string spec =
          make_spec(opt, id, app, seed, budgets[side]);
      Reply reply;
      if (!submit_with_retry(client, opt, spec, /*stream=*/1000 + i, &reply,
                             tally, &error)) {
        std::fprintf(stderr, "qload: determinism probe %s: %s\n", id.c_str(),
                     error.c_str());
        return false;
      }
      if (reply.status != "ok") {
        std::fprintf(stderr, "qload: determinism probe %s: status=%s %s\n",
                     id.c_str(), reply.status.c_str(), reply.reason.c_str());
        return false;
      }
      count_reply(opt, reply, tally);
      bodies[side] = reply.body;
    }
    if (bodies[0] != bodies[1]) {
      std::fprintf(stderr,
                   "qload: DETERMINISM VIOLATION: app=%s seed=%llu report "
                   "differs between threads=1 (%zu bytes) and threads=8 "
                   "(%zu bytes)\n",
                   app.c_str(), static_cast<unsigned long long>(seed),
                   bodies[0].size(), bodies[1].size());
      all_equal = false;
    } else {
      std::printf("qload: determinism ok: app=%s seed=%llu (%zu bytes)\n",
                  app.c_str(), static_cast<unsigned long long>(seed),
                  bodies[0].size());
    }
  }
  return all_equal;
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --host <addr>          server address (default 127.0.0.1)\n"
      "  --port <n>             server port (or --port-file)\n"
      "  --port-file <path>     read the port from this file\n"
      "  --jobs <n>             jobs to submit (default 8)\n"
      "  --apps <a,b,c>         app rotation (default bfs,leader,convergecast)\n"
      "  --graph <family>       topology family (default tree)\n"
      "  --nodes <n>            nodes per job (default 16)\n"
      "  --seed <n>             base seed; job j uses seed+j (default 1)\n"
      "  --threads <n>          engine threads per job (default 2)\n"
      "  --deadline <rounds>    per-job round deadline (default: server's)\n"
      "  --drop <p>             link drop probability (default 0)\n"
      "  --burst                fire all submits before reading replies\n"
      "  --expect-shed          fail unless overload shedding was observed\n"
      "  --check-determinism    byte-compare reports at threads 1 vs 8\n"
      "  --max-retries <n>      retries per shed job (default 8)\n"
      "  --timeout-ms <n>       per-reply timeout (default 60000)\n"
      "  --reconnect            survive lost connections: reconnect and\n"
      "                         re-submit unacknowledged specs (idempotent)\n"
      "  --dump-dir <path>      write each ok report to <path>/<id>.json\n"
      "  --shutdown             send a shutdown frame when done\n",
      argv0);
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    if (comma > pos) out.push_back(text.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "qload: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    std::uint64_t value = 0;
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--host") {
      opt.host = next();
    } else if (arg == "--port") {
      if (!parse_u64(next(), &value) || value == 0 || value > 65535) {
        std::fprintf(stderr, "qload: bad --port\n");
        return 2;
      }
      opt.port = static_cast<std::uint16_t>(value);
    } else if (arg == "--port-file") {
      opt.port_file = next();
    } else if (arg == "--jobs") {
      if (!parse_u64(next(), &value) || value == 0) {
        std::fprintf(stderr, "qload: bad --jobs\n");
        return 2;
      }
      opt.jobs = static_cast<std::size_t>(value);
    } else if (arg == "--apps") {
      opt.apps = split_csv(next());
      if (opt.apps.empty()) {
        std::fprintf(stderr, "qload: bad --apps\n");
        return 2;
      }
    } else if (arg == "--graph") {
      opt.graph = next();
    } else if (arg == "--nodes") {
      if (!parse_u64(next(), &value) || value < 2) {
        std::fprintf(stderr, "qload: bad --nodes\n");
        return 2;
      }
      opt.nodes = static_cast<std::size_t>(value);
    } else if (arg == "--seed") {
      if (!parse_u64(next(), &value)) {
        std::fprintf(stderr, "qload: bad --seed\n");
        return 2;
      }
      opt.seed = value;
    } else if (arg == "--threads") {
      if (!parse_u64(next(), &value) || value == 0) {
        std::fprintf(stderr, "qload: bad --threads\n");
        return 2;
      }
      opt.threads = static_cast<std::size_t>(value);
    } else if (arg == "--deadline") {
      if (!parse_u64(next(), &value)) {
        std::fprintf(stderr, "qload: bad --deadline\n");
        return 2;
      }
      opt.deadline_rounds = static_cast<std::size_t>(value);
    } else if (arg == "--drop") {
      if (!parse_prob(next(), &opt.drop)) {
        std::fprintf(stderr, "qload: bad --drop\n");
        return 2;
      }
    } else if (arg == "--burst") {
      opt.burst = true;
    } else if (arg == "--expect-shed") {
      opt.expect_shed = true;
    } else if (arg == "--check-determinism") {
      opt.check_determinism = true;
    } else if (arg == "--max-retries") {
      if (!parse_u64(next(), &value)) {
        std::fprintf(stderr, "qload: bad --max-retries\n");
        return 2;
      }
      opt.max_retries = static_cast<std::size_t>(value);
    } else if (arg == "--timeout-ms") {
      // Bound before the int cast: an hour is already absurd for a frame
      // round-trip, and anything past INT_MAX would wrap negative.
      if (!parse_u64(next(), &value) || value == 0 || value > 3600000) {
        std::fprintf(stderr, "qload: bad --timeout-ms (want 1..3600000)\n");
        return 2;
      }
      opt.timeout_ms = static_cast<int>(value);
    } else if (arg == "--reconnect") {
      opt.reconnect = true;
    } else if (arg == "--dump-dir") {
      opt.dump_dir = next();
    } else if (arg == "--shutdown") {
      opt.shutdown_server = true;
    } else {
      std::fprintf(stderr, "qload: unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (!opt.port_file.empty()) {
    std::FILE* f = std::fopen(opt.port_file.c_str(), "r");
    unsigned port = 0;
    if (f == nullptr || std::fscanf(f, "%u", &port) != 1 || port == 0 ||
        port > 65535) {
      std::fprintf(stderr, "qload: cannot read a port from %s\n",
                   opt.port_file.c_str());
      if (f != nullptr) std::fclose(f);
      return 2;
    }
    std::fclose(f);
    opt.port = static_cast<std::uint16_t>(port);
  }
  if (opt.port == 0) {
    std::fprintf(stderr, "qload: --port or --port-file is required\n");
    return 2;
  }

  Tally tally;
  bool all_ok = true;
  std::string error;

  if (opt.burst) {
    // One connection, all submits in flight at once — the overload probe
    // (and, under --reconnect, the crash probe: a daemon SIGKILLed with
    // this burst in flight must answer every job after its restart).
    Client client;
    if (!connect_with_retry(client, opt, &error)) {
      std::fprintf(stderr, "qload: connect: %s\n", error.c_str());
      return 1;
    }
    // Every spec stays in this map until its reply is read; whatever
    // remains after the burst — shed, unacknowledged, or never sent — is
    // re-submitted in the second pass.
    std::map<std::string, std::string> outstanding;  // id -> spec
    bool severed = false;
    for (std::size_t j = 0; j < opt.jobs; ++j) {
      const std::string id = "burst-" + std::to_string(j);
      const std::string spec = make_spec(
          opt, id, opt.apps[j % opt.apps.size()], opt.seed + j, opt.threads);
      outstanding.emplace(id, spec);
      if (severed) continue;  // resubmitted below
      if (!client.send_frame(FrameType::kSubmit, spec, &error)) {
        if (!opt.reconnect) {
          std::fprintf(stderr, "qload: %s\n", error.c_str());
          return 1;
        }
        std::fprintf(stderr, "qload: burst send lost (%s), will resubmit\n",
                     error.c_str());
        severed = true;
      }
    }
    for (std::size_t j = 0; j < opt.jobs && !severed && !outstanding.empty();
         ++j) {
      Frame frame;
      if (!client.recv_frame(&frame, opt.timeout_ms, &error)) {
        if (!opt.reconnect) {
          std::fprintf(stderr, "qload: burst reply %zu/%zu: %s\n", j + 1,
                       opt.jobs, error.c_str());
          return 1;
        }
        std::fprintf(stderr,
                     "qload: burst reply %zu/%zu lost (%s), will resubmit "
                     "%zu outstanding\n",
                     j + 1, opt.jobs, error.c_str(), outstanding.size());
        severed = true;
        break;
      }
      Reply reply = parse_reply(frame.payload);
      if (reply.status == "rejected" && reply.reason == "overloaded") {
        ++tally.shed;
        continue;  // retried below, off the hot burst
      }
      count_reply(opt, reply, &tally);
      outstanding.erase(reply.id);
    }
    // Second pass: everything still outstanding is retried with backoff on
    // a fresh connection, and must now succeed. Idempotent by the server's
    // cache-key dedup: a job that actually completed before a crash (or
    // whose reply was lost on the wire) re-serves the same bytes.
    std::uint64_t stream = 0;
    for (const auto& [id, spec] : outstanding) {
      Client retry_client;
      if (!connect_with_retry(retry_client, opt, &error)) {
        std::fprintf(stderr, "qload: retry connect: %s\n", error.c_str());
        return 1;
      }
      qcongest::serve::BackoffParams backoff;
      backoff.seed = opt.seed;
      sleep_ms(qcongest::serve::backoff_delay_ms(backoff, stream, 0));
      ++tally.retried;
      Reply reply;
      if (!submit_with_retry(retry_client, opt, spec, stream, &reply, &tally,
                             &error)) {
        std::fprintf(stderr, "qload: retry %s: %s\n", id.c_str(),
                     error.c_str());
        ++tally.failed;
        all_ok = false;
        continue;
      }
      count_reply(opt, reply, &tally);
      ++stream;
    }
  } else {
    Client client;
    if (!connect_with_retry(client, opt, &error)) {
      std::fprintf(stderr, "qload: connect: %s\n", error.c_str());
      return 1;
    }
    for (std::size_t j = 0; j < opt.jobs; ++j) {
      const std::string id = "load-" + std::to_string(j);
      const std::string spec = make_spec(
          opt, id, opt.apps[j % opt.apps.size()], opt.seed + j, opt.threads);
      Reply reply;
      if (!submit_with_retry(client, opt, spec, j, &reply, &tally, &error)) {
        std::fprintf(stderr, "qload: job %s: %s\n", id.c_str(), error.c_str());
        ++tally.failed;
        all_ok = false;
        continue;
      }
      count_reply(opt, reply, &tally);
    }
  }

  if (opt.check_determinism) {
    if (!run_determinism_check(opt, &tally)) all_ok = false;
  }

  if (opt.expect_shed && tally.shed == 0) {
    std::fprintf(stderr,
                 "qload: expected overload shedding but every job was "
                 "admitted — raise --jobs or lower the server queue\n");
    all_ok = false;
  }
  if (tally.failed > 0) all_ok = false;

  if (opt.shutdown_server) {
    Client client;
    if (client.connect(opt.host, opt.port, &error)) {
      client.send_frame(FrameType::kShutdown, "", &error);
    }
  }

  std::printf(
      "qload: ok=%zu invalid=%zu shed=%zu retried=%zu failed=%zu "
      "reconnects=%zu -> %s\n",
      tally.ok, tally.invalid, tally.shed, tally.retried, tally.failed,
      tally.reconnects, all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
