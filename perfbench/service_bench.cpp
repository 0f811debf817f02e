// svc-cold: qcongestd's serve::Server in this process, fed over loopback
// TCP by a client in this process, first on an open-loop (seeded, jittered
// fixed rate) schedule, then closed-loop with one job outstanding per
// connection. The traced run replays the same schedule through a copy of
// the service pipeline (TracedService below) that calls the same layer
// functions in the same order as Service::submit and run_job_report, with a
// span around each call.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "perfbench/bench.hpp"
#include "src/apps/net_options.hpp"
#include "src/apps/registry.hpp"
#include "src/cache/key.hpp"
#include "src/cache/sha256.hpp"
#include "src/cache/store.hpp"
#include "src/net/trace.hpp"
#include "src/obs/json.hpp"
#include "src/obs/round_profiler.hpp"
#include "src/obs/run_report.hpp"
#include "src/recover/watchdog.hpp"
#include "src/serve/frame.hpp"
#include "src/serve/job.hpp"
#include "src/serve/journal.hpp"
#include "src/serve/server.hpp"
#include "src/serve/service.hpp"
#include "src/util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace serve = qcongest::serve;
namespace net = qcongest::net;
using qcongest::apps::NetOptions;

// Thread budget: nproc = 4 = the reactor + 2 service workers + the client.
constexpr std::size_t kConnections = 4;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kCheckThreads = 4;
constexpr std::size_t kDeadlineRounds = 200000;  // ServiceConfig's default
// The server keeps ServiceConfig's admission bound; a shed job is a failed
// job, so the open-loop rate must leave room under it.
const std::size_t kMaxPending = serve::ServiceConfig{}.max_pending;
// Open-loop rate. Measured closed-loop saturation on a shared 4-vCPU x86-64
// VM: ~185-300 jobs/s depending on how busy the host is. The open loop runs
// at ~20-35% of it (stated in BENCHMARK.json): at 60%, queueing behind
// 100 ms reliable-transport jobs on two workers moved p50 and p99 by 2-5x
// between runs of one seed, and bursts would reach the admission bound.
constexpr double kOpenRate = 63.0;
// At least this many open-loop jobs, so p99 has ten samples beyond it.
constexpr std::size_t kMinOpenJobs = 1100;
constexpr std::size_t kOpenBlocks = 6;
constexpr double kReplyTimeoutS = 60.0;

// ------------------------------------------------------------- plumbing

class TempDir {
 public:
  explicit TempDir(const std::string& root) {
    fs::create_directories(root);
    std::string pattern = root + "/run-XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + root);
    }
    path_ = buf.data();
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// One framed byte stream (either end).
struct Conn {
  int fd = -1;
  serve::FrameReader reader;
  std::string out;
  std::size_t out_off = 0;
  bool eof = false;  // the peer closed its end
  bool wants_write() const { return out_off < out.size(); }
};

/// Write as much of c.out as the socket takes; false = dead peer.
bool flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

/// Read everything available into c.reader; false on EOF or error.
bool pump_in(Conn& c, std::vector<char>& buf) {
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
    if (n > 0) {
      c.reader.feed(std::string_view(buf.data(), static_cast<std::size_t>(n)));
    } else if (n == 0) {
      return false;
    } else if (errno == EINTR) {
      continue;
    } else {
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
  }
}

/// The job number of a "j<number>" spec or reply id on the payload's first
/// line; -1 when absent.
std::int64_t job_of(std::string_view payload) {
  if (payload.substr(0, 4) != "id=j") return -1;
  std::int64_t value = 0;
  std::size_t i = 4;
  for (; i < payload.size() && payload[i] >= '0' && payload[i] <= '9'; ++i) {
    value = value * 10 + (payload[i] - '0');
  }
  return i == 4 ? -1 : value;
}

timespec to_timespec(double seconds) {
  seconds = std::max(0.0, seconds);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  return ts;
}

// ---------------------------------------------------------------- client

/// The load generator: kConnections loopback connections, one thread.
class LoadClient {
 public:
  using ReplyFn = std::function<void(std::size_t job, serve::FrameType type,
                                     std::string_view payload, Clock::time_point at)>;

  bool connect_all(std::uint16_t port, std::string* error) {
    for (std::size_t i = 0; i < kConnections; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return fail(error, "socket");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return fail(error, "connect");
      }
      set_nodelay(fd);
      set_nonblocking(fd);
      conns_.push_back(std::make_unique<Conn>());
      conns_.back()->fd = fd;
    }
    return true;
  }

  ~LoadClient() {
    for (auto& c : conns_) ::close(c->fd);
  }

  struct Phase {
    Clock::time_point t0;
    std::size_t first = 0;  // jobs first .. first+count-1 of frame_of
    std::size_t count = 0;
    const std::vector<double>* due = nullptr;  // open loop: offsets from t0
    std::size_t window = 0;                    // closed loop: jobs outstanding
    double send_until_s = 0.0;                 // closed loop: stop sending at
  };

  /// Run one phase; returns jobs sent. Replies go to on_reply; a reply
  /// missing kReplyTimeoutS after the last send leaves *timed_out set.
  std::size_t run(const Phase& phase,
                  const std::function<std::string(std::size_t)>& frame_of,
                  std::vector<Clock::time_point>* sent_at, const ReplyFn& on_reply,
                  bool* timed_out) {
    std::vector<pollfd> fds(conns_.size());
    std::vector<char> buf(1 << 18);
    const std::size_t end = phase.first + phase.count;
    std::size_t next = phase.first;
    std::size_t outstanding = 0;
    Clock::time_point last_send = phase.t0;
    *timed_out = false;
    for (;;) {
      Clock::time_point now = Clock::now();
      // Send everything due (open loop) or everything the window allows.
      while (next < end) {
        if (phase.due != nullptr) {
          const auto due_at =
              phase.t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>((*phase.due)[next - phase.first]));
          if (due_at > now) break;
        } else if (outstanding >= phase.window ||
                   std::chrono::duration<double>(now - phase.t0).count() >=
                       phase.send_until_s) {
          break;
        }
        Conn& c = *conns_[next % conns_.size()];
        c.out += frame_of(next);
        (*sent_at)[next] = last_send = Clock::now();
        if (!flush(c)) return next - phase.first;
        ++outstanding;
        peak_outstanding_ = std::max(peak_outstanding_, outstanding);
        ++next;
        now = Clock::now();
      }
      const bool more = next < end && (phase.due != nullptr ||
                                       std::chrono::duration<double>(now - phase.t0).count() <
                                           phase.send_until_s);
      if (!more && outstanding == 0) break;
      if (std::chrono::duration<double>(now - last_send).count() > kReplyTimeoutS &&
          outstanding > 0) {
        *timed_out = true;
        break;
      }
      double wait_s = 0.02;
      if (more && phase.due != nullptr) {
        wait_s = std::min(wait_s, (*phase.due)[next - phase.first] -
                                      std::chrono::duration<double>(now - phase.t0).count());
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        fds[i].fd = conns_[i]->fd;
        fds[i].events = static_cast<short>(POLLIN | (conns_[i]->wants_write() ? POLLOUT : 0));
        fds[i].revents = 0;
      }
      const timespec ts = to_timespec(wait_s);
      const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready <= 0) continue;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = *conns_[i];
        if ((fds[i].revents & POLLOUT) != 0 && !flush(c)) return next - phase.first;
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const bool alive = pump_in(c, buf);
        serve::Frame frame;
        while (c.reader.next(&frame) == serve::FrameReader::Result::kFrame) {
          const Clock::time_point at = Clock::now();
          const std::int64_t job = job_of(frame.payload);
          if (job >= 0) {
            on_reply(static_cast<std::size_t>(job), frame.type, frame.payload, at);
          }
          if (outstanding > 0) --outstanding;
        }
        if (!alive || c.reader.poisoned()) {
          *timed_out = true;
          return next - phase.first;
        }
      }
    }
    return next - phase.first;
  }

  /// Most jobs sent and not yet answered at once, over every phase run.
  std::size_t peak_outstanding() const { return peak_outstanding_; }

 private:
  static bool fail(std::string* error, const char* what) {
    *error = std::string(what) + ": " + std::strerror(errno);
    return false;
  }
  std::vector<std::unique_ptr<Conn>> conns_;
  std::size_t peak_outstanding_ = 0;
};

// ------------------------------------------------------ traced pipeline

/// The service's job options: the same taps run_job_report installs
/// (watchdog, trace, profiler), or none of them.
NetOptions job_options(const serve::JobSpec& spec, qcongest::recover::Watchdog* watchdog,
                       net::Trace* trace, qcongest::obs::RoundProfiler* profiler) {
  NetOptions options;
  options.seed = spec.seed;
  options.threads = spec.threads;
  options.transport = spec.transport;
  options.fault_plan = serve::job_fault_plan(spec);
  options.watchdog = watchdog;
  options.trace = trace;
  options.metrics = profiler;
  if (spec.recover) {
    options.recovery.enabled = true;
    options.recovery.checkpoint.every_rounds = 3;
  }
  return options;
}

/// What one engine run did, for the count and per-word metrics.
struct Executed {
  bool success = false;
  net::RunResult cost;
  net::Transport transport = net::Transport::kDirect;
  double run_us = 0.0;
};

/// run_job_report, call for call, with spans around the layer calls:
/// report assembly (obs.render), make_registry_graph (apps.graph), the
/// AppRunner (apps.run) and to_json (obs.render). The bytes must equal
/// run_job_report's; the benchmark checks that they do.
std::string traced_job_report(const serve::JobSpec& spec, SpanLog* log, std::int64_t job,
                              std::uint64_t parent, Executed* executed) {
  const std::size_t deadline =
      spec.deadline_rounds > 0 ? spec.deadline_rounds : kDeadlineRounds;
  qcongest::obs::RunReport report("qcongestd");
  qcongest::obs::RunReport::Section* section = nullptr;
  {
    ScopedSpan span(log, "obs.render", job, parent);
    section = &report.add_section(spec.app);
    section->set_label("app", spec.app);
    section->set_label("graph", spec.graph);
    section->set_label("nodes", std::to_string(spec.nodes));
    section->set_label("seed", std::to_string(spec.seed));
    section->set_label("fault_seed", std::to_string(serve::job_fault_plan(spec).seed));
    section->set_label("transport",
                       spec.transport == net::Transport::kReliable ? "reliable" : "direct");
    section->set_label("deadline_rounds", std::to_string(deadline));
    if (spec.drop > 0.0) section->set_label("drop", format_prob(spec.drop));
    if (spec.corrupt > 0.0) section->set_label("corrupt", format_prob(spec.corrupt));
    if (spec.duplicate > 0.0) section->set_label("duplicate", format_prob(spec.duplicate));
    if (!spec.crashes.empty()) {
      std::string windows;
      for (const serve::JobSpec::Crash& c : spec.crashes) {
        if (!windows.empty()) windows += ' ';
        windows += std::to_string(static_cast<std::size_t>(c.node)) + ":[" +
                   std::to_string(c.crash_round) + "," +
                   (c.restart_round == net::CrashEvent::kNeverRestarts
                        ? std::string("never")
                        : std::to_string(c.restart_round)) +
                   ")" + (c.amnesia ? ":amnesia" : "");
      }
      section->set_label("crashes", windows);
      section->set_label("recover", spec.recover ? "on" : "off");
    }
  }
  executed->transport = spec.transport;
  try {
    std::optional<net::Graph> graph;
    {
      ScopedSpan span(log, "apps.graph", job, parent);
      graph.emplace(qcongest::apps::make_registry_graph(spec.graph, spec.nodes, spec.seed));
    }
    const qcongest::apps::AppRunner* runner = qcongest::apps::find_app(spec.app);
    if (runner == nullptr) throw std::invalid_argument("unknown app " + spec.app);
    qcongest::recover::Watchdog watchdog(
        qcongest::recover::WatchdogConfig{/*stall_rounds=*/1024, /*deadline_rounds=*/deadline});
    net::Trace trace;
    qcongest::obs::RoundProfiler profiler;
    const NetOptions options = job_options(spec, &watchdog, &trace, &profiler);
    qcongest::apps::AppOutcome out;
    {
      ScopedSpan span(log, "apps.run", job, parent);
      const Clock::time_point t0 = Clock::now();
      out = (*runner)(*graph, options);
      executed->run_us = us_between(t0, Clock::now());
    }
    executed->success = out.success;
    executed->cost = out.cost;
    ScopedSpan span(log, "obs.render", job, parent);
    section->set_outcome(out.success);
    section->set_result(out.cost);
    section->set_trace(trace);
    section->set_profile(profiler);
  } catch (const qcongest::recover::LivelockError& e) {
    executed->success = false;
    section->set_outcome(false);
    const char* kind = "retransmit_storm";
    if (e.kind() == qcongest::recover::LivelockError::Kind::kDeadlineExceeded) {
      kind = "deadline_exceeded";
    } else if (e.kind() == qcongest::recover::LivelockError::Kind::kQuiescentSpin) {
      kind = "quiescent_spin";
    }
    section->set_label("error_kind", kind);
    section->set_label("error_round", std::to_string(e.round()));
    std::string suspects;
    for (net::NodeId v : e.suspects()) {
      if (!suspects.empty()) suspects += ',';
      suspects += std::to_string(static_cast<std::size_t>(v));
    }
    if (!suspects.empty()) section->set_label("error_suspects", suspects);
    section->set_label("error", e.what());
  } catch (const std::exception& e) {
    executed->success = false;
    section->set_outcome(false);
    section->set_label("error_kind", "exception");
    section->set_label("error", e.what());
  }
  ScopedSpan span(log, "obs.render", job, parent);
  return report.to_json();
}

qcongest::serve::JournalRecord lifecycle(serve::JournalRecordType type,
                                         const std::string& key, const std::string& id) {
  serve::JournalRecord record;
  record.type = type;
  record.key = key;
  record.id = id;
  return record;
}

/// Service + Server, rebuilt from their public layer calls with a span
/// around each: one reactor thread (run), kWorkers pool workers.
class TracedService {
 public:
  TracedService(const std::string& dir, SpanLog* log) : log_(log) {
    const std::string journal_dir = dir + "/journal";
    store_ = std::make_unique<qcongest::cache::Store>(dir + "/cache");
    serve::JournalRecovery recovery = serve::recover_journal(journal_dir);
    serve::compact_journal(journal_dir, recovery);
    serve::JournalConfig config;
    config.dir = journal_dir;
    journal_ = std::make_unique<serve::Journal>(config);
    journal_->seed_live(recovery.incomplete);
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
    wake_r_ = pipe_fds[0];
    wake_w_ = pipe_fds[1];
    set_nonblocking(wake_r_);
    set_nonblocking(wake_w_);
    pool_ = std::make_unique<qcongest::util::ThreadPool>(kWorkers + 1);
  }

  ~TracedService() {
    pool_.reset();  // drain workers before the rest goes away
    for (auto& c : conns_) ::close(c->fd);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    ::close(wake_r_);
    ::close(wake_w_);
  }

  TracedService(const TracedService&) = delete;
  TracedService& operator=(const TracedService&) = delete;

  std::uint16_t listen(std::string* error) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 16) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      *error = std::string("traced listen: ") + std::strerror(errno);
      return 0;
    }
    return ntohs(addr.sin_port);
  }

  /// The reactor: accept kConnections, then serve until stop() and idle.
  void run() {
    while (conns_.size() < kConnections) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;
      }
      set_nodelay(fd);
      set_nonblocking(fd);
      conns_.push_back(std::make_unique<Conn>());
      conns_.back()->fd = fd;
    }
    std::vector<pollfd> fds(conns_.size() + 1);
    std::vector<char> buf(1 << 16);
    for (;;) {
      drain_replies();
      if (stop_.load() && idle()) return;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        fds[i].fd = conns_[i]->eof ? -1 : conns_[i]->fd;  // poll skips negative fds
        fds[i].events = static_cast<short>(POLLIN | (conns_[i]->wants_write() ? POLLOUT : 0));
        fds[i].revents = 0;
      }
      fds.back().fd = wake_r_;
      fds.back().events = POLLIN;
      fds.back().revents = 0;
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      if ((fds.back().revents & POLLIN) != 0) {
        char sink[256];
        while (::read(wake_r_, sink, sizeof(sink)) > 0) {
        }
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = *conns_[i];
        if ((fds[i].revents & POLLOUT) != 0) flush(c);
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        c.eof = !pump_in(c, buf);  // the client closes only after its last reply
        for (;;) {
          serve::Frame frame;
          const Clock::time_point d0 = Clock::now();
          if (c.reader.next(&frame) != serve::FrameReader::Result::kFrame) break;
          const Clock::time_point d1 = Clock::now();
          const std::int64_t job = job_of(frame.payload);
          record(0, "serve.frame", job, d0, d1);
          if (frame.type == serve::FrameType::kSubmit) submit(i, std::move(frame.payload), job);
        }
      }
    }
  }

  void stop() {
    stop_.store(true);
    wake();
  }

  std::map<std::int64_t, Executed> executed() {
    std::lock_guard<std::mutex> lock(mutex_);
    return executed_;
  }

 private:
  struct Waiter {
    std::string id;
    std::size_t conn = 0;
  };

  void record(std::uint64_t parent, const char* name, std::int64_t job,
              Clock::time_point start, Clock::time_point end) {
    Span span;
    span.id = log_->next_id();
    span.parent = parent;
    span.name = name;
    span.job = job;
    span.start = start;
    span.end = end;
    log_->record(span);
  }

  /// Service::submit, call for call.
  void submit(std::size_t conn, std::string spec_text, std::int64_t job) {
    ScopedSpan submit_span(log_, "serve.submit", job);
    serve::JobSpec spec;
    std::string error;
    bool valid = false;
    {
      ScopedSpan span(log_, "serve.parse", job, submit_span.id());
      valid = serve::parse_job_spec(spec_text, &spec, &error) &&
              serve::validate_job_spec(spec, serve::JobLimits{}, &error);
    }
    if (!valid) {
      serve::JobReply reply;
      reply.status = serve::JobReply::Status::kInvalid;
      reply.id = spec.id.empty() ? "?" : spec.id;
      reply.error = "bad job spec: " + error;
      queue_reply(conn, serve::FrameType::kResult, reply, job, submit_span.id());
      return;
    }
    std::string key;
    {
      ScopedSpan span(log_, "cache.key", job, submit_span.id());
      key = serve::job_cache_key(spec, kDeadlineRounds, qcongest::cache::code_version_salt());
    }
    std::size_t shed_depth = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        it->second.push_back(Waiter{spec.id, conn});
        return;
      }
      if (pending_ >= kMaxPending) {
        shed_depth = pending_;
      } else {
        ++pending_;
        inflight_[key].push_back(Waiter{spec.id, conn});
      }
    }
    if (shed_depth > 0) {
      serve::JobReply reply;
      reply.status = serve::JobReply::Status::kRejected;
      reply.id = spec.id;
      reply.error = "overloaded";
      reply.queue_depth = shed_depth;
      reply.retry_after_ms = serve::ServiceConfig{}.retry_after_base_ms *
                             std::max<std::size_t>(1, shed_depth / kWorkers);
      queue_reply(conn, serve::FrameType::kRejected, reply, job, submit_span.id());
      return;
    }
    {
      ScopedSpan span(log_, "journal.append", job, submit_span.id());
      serve::JournalRecord accepted = lifecycle(serve::JournalRecordType::kAccepted, key, spec.id);
      accepted.spec = spec_text;
      journal_->append(accepted);
    }
    const Clock::time_point admitted = Clock::now();
    pool_->submit([this, spec = std::move(spec), key = std::move(key), job, admitted]() {
      execute(spec, key, job, admitted);
    });
  }

  /// Service::enqueue_job's worker task, call for call.
  void execute(const serve::JobSpec& spec, const std::string& key, std::int64_t job,
               Clock::time_point admitted) {
    const Clock::time_point start = Clock::now();
    record(0, "serve.queue_wait", job, admitted, start);
    ScopedSpan exec(log_, "serve.execute", job);
    std::string body;
    bool cached = false;
    {
      ScopedSpan span(log_, "cache.get", job, exec.id());
      cached = store_->get(key, &body);
    }
    if (!cached) {
      {
        ScopedSpan span(log_, "journal.append", job, exec.id());
        journal_->append(lifecycle(serve::JournalRecordType::kStarted, key, spec.id));
      }
      Executed executed;
      body = traced_job_report(spec, log_, job, exec.id(), &executed);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        executed_[job] = executed;
      }
      ScopedSpan span(log_, "cache.put", job, exec.id());
      std::string put_error;
      (void)store_->put(key, body, &put_error);
    }
    {
      ScopedSpan span(log_, "journal.append", job, exec.id());
      journal_->append(lifecycle(serve::JournalRecordType::kCompleted, key, spec.id));
    }
    std::vector<Waiter> waiters;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_;
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        waiters = std::move(it->second);
        inflight_.erase(it);
      }
    }
    for (const Waiter& waiter : waiters) {
      serve::JobReply reply;
      reply.status = serve::JobReply::Status::kOk;
      reply.id = waiter.id;
      reply.body = body;
      queue_reply(waiter.conn, serve::FrameType::kResult, reply, job, exec.id());
    }
  }

  void queue_reply(std::size_t conn, serve::FrameType type, const serve::JobReply& reply,
                   std::int64_t job, std::uint64_t parent) {
    std::string payload;
    {
      ScopedSpan span(log_, "serve.reply", job, parent);
      payload = serve::render_reply_payload(reply);
    }
    std::string frame;
    {
      ScopedSpan span(log_, "serve.frame", job, parent);
      frame = serve::encode_frame(type, payload);
    }
    {
      std::lock_guard<std::mutex> lock(replies_mutex_);
      replies_.emplace_back(conn, std::move(frame));
    }
    wake();
  }

  void wake() {
    const char byte = 1;
    (void)!::write(wake_w_, &byte, 1);
  }

  void drain_replies() {
    std::vector<std::pair<std::size_t, std::string>> ready;
    {
      std::lock_guard<std::mutex> lock(replies_mutex_);
      ready.swap(replies_);
    }
    for (auto& [conn, frame] : ready) {
      Conn& c = *conns_[conn];
      c.out += frame;
      flush(c);
    }
  }

  bool idle() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& c : conns_) {
      if (c->wants_write()) return false;
    }
    return pending_ == 0;
  }

  SpanLog* log_;
  int listen_fd_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<Conn>> conns_;
  std::unique_ptr<serve::Journal> journal_;
  std::unique_ptr<qcongest::cache::Store> store_;
  std::mutex mutex_;  // guards inflight_, pending_, executed_
  std::map<std::string, std::vector<Waiter>> inflight_;
  std::size_t pending_ = 0;
  std::map<std::int64_t, Executed> executed_;
  std::mutex replies_mutex_;
  std::vector<std::pair<std::size_t, std::string>> replies_;
  std::unique_ptr<qcongest::util::ThreadPool> pool_;  // last: destroyed first
};

// ------------------------------------------------------------- workload

/// Every job a run may send: open loop, then the closed-loop supply.
struct Workload {
  std::size_t open_jobs = 0;
  std::size_t total = 0;  // jobs a pass may send: open loop + closed-loop cap
  std::vector<double> due;
  std::vector<serve::JobSpec> specs;
  std::vector<std::string> frames;
};

Workload make_workload(const Options& opt, std::size_t open_jobs, std::size_t closed_cap) {
  Workload w;
  const SpecGenerator gen(opt.seed);
  w.open_jobs = open_jobs;
  w.total = open_jobs + closed_cap;
  w.specs.reserve(w.total);
  w.frames.reserve(w.total);
  for (std::size_t k = 0; k < w.total; ++k) {
    w.specs.push_back(gen.make(k));
    w.frames.push_back(
        serve::encode_frame(serve::FrameType::kSubmit, spec_text(w.specs.back())));
  }
  w.due = open_loop_schedule(opt.seed, kOpenRate, open_jobs);
  return w;
}

/// What the client saw of one job.
struct JobSeen {
  Clock::time_point sent;
  Clock::time_point done;
  bool replied = false;
  bool ok = false;  // kResult with status=ok
  std::size_t body_bytes = 0;
  std::uint64_t body_hash = 0;
};

/// Split "id=..\nstatus=ok\n\n<body>"; false unless status=ok.
bool reply_body(std::string_view payload, std::string_view* body) {
  const std::size_t split = payload.find("\n\n");
  if (split == std::string_view::npos) return false;
  if (payload.substr(0, split).find("\nstatus=ok") == std::string_view::npos) return false;
  *body = payload.substr(split + 2);
  return true;
}

/// One pass (open loop then closed loop) against whatever listens on port.
struct PassResult {
  std::vector<JobSeen> seen;
  Clock::time_point open_t0;
  Clock::time_point closed_t0;
  double closed_s = 0.0;
  std::size_t sent = 0;  // jobs sent over both phases
  bool timed_out = false;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::size_t peak_outstanding = 0;
};

PassResult run_pass(std::uint16_t port, const Workload& w, double closed_s,
                    std::string* error) {
  PassResult pass;
  pass.seen.resize(w.total);
  pass.closed_s = closed_s;
  LoadClient client;
  if (!client.connect_all(port, error)) return pass;
  std::vector<Clock::time_point> sent_at(w.total);
  auto frame_of = [&w](std::size_t k) { return w.frames[k]; };
  auto on_reply = [&](std::size_t job, serve::FrameType type, std::string_view payload,
                      Clock::time_point at) {
    if (job >= pass.seen.size()) return;
    JobSeen& s = pass.seen[job];
    s.replied = true;
    s.done = at;
    std::string_view body;
    s.ok = type == serve::FrameType::kResult && reply_body(payload, &body);
    if (!s.ok) return;
    s.body_bytes = body.size();
    s.body_hash = qcongest::cache::fnv1a64(body);
  };
  const double cpu0 = cpu_seconds();
  const Clock::time_point wall0 = Clock::now();
  LoadClient::Phase open;
  open.t0 = pass.open_t0 = Clock::now() + std::chrono::milliseconds(5);
  open.first = 0;
  open.count = w.open_jobs;
  open.due = &w.due;
  bool timed_out = false;
  pass.sent = client.run(open, frame_of, &sent_at, on_reply, &timed_out);
  pass.timed_out = timed_out;
  LoadClient::Phase closed;
  closed.t0 = pass.closed_t0 = Clock::now();
  closed.first = w.open_jobs;
  closed.count = w.total - w.open_jobs;
  closed.window = kConnections;
  closed.send_until_s = closed_s;
  if (!timed_out) {
    pass.sent += client.run(closed, frame_of, &sent_at, on_reply, &timed_out);
    pass.timed_out = timed_out;
  }
  pass.wall_s = std::chrono::duration<double>(Clock::now() - wall0).count();
  pass.cpu_s = cpu_seconds() - cpu0;
  pass.peak_outstanding = client.peak_outstanding();
  for (std::size_t k = 0; k < pass.seen.size(); ++k) pass.seen[k].sent = sent_at[k];
  return pass;
}

/// Latency of each open-loop job, ms from its due time to its reply. A job
/// that was shed, failed or never answered counts as infinitely late.
std::vector<double> open_latencies(const PassResult& pass, const Workload& w) {
  std::vector<double> out;
  for (std::size_t k = 0; k < w.open_jobs; ++k) {
    if (!pass.seen[k].replied || !pass.seen[k].ok) {
      out.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    const auto due = pass.open_t0 + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(w.due[k]));
    out.push_back(ms_between(due, pass.seen[k].done));
  }
  return out;
}

/// Replies per second inside the closed-loop window, and the median time
/// for `block` consecutive closed-loop replies.
void closed_loop_rates(const PassResult& pass, const Workload& w, std::size_t block,
                       double* throughput, double* block_s) {
  std::vector<double> at;
  for (std::size_t k = w.open_jobs; k < pass.seen.size(); ++k) {
    if (pass.seen[k].replied) {
      at.push_back(std::chrono::duration<double>(pass.seen[k].done - pass.closed_t0).count());
    }
  }
  std::sort(at.begin(), at.end());
  const auto in_window =
      std::count_if(at.begin(), at.end(), [&](double t) { return t <= pass.closed_s; });
  *throughput = static_cast<double>(in_window) / pass.closed_s;
  std::vector<double> blocks;
  for (std::size_t i = block; i < at.size() && at[i] <= pass.closed_s; i += block) {
    blocks.push_back(at[i] - at[i - block]);
  }
  *block_s = blocks.empty() ? pass.closed_s : median(blocks);
}

/// A running qcongestd: Server + reactor thread, in a fresh temp dir.
struct LiveServer {
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<serve::Server> server;
  std::thread reactor;

  LiveServer(const std::string& tmp_root) : dir(std::make_unique<TempDir>(tmp_root)) {
    serve::ServerConfig config;
    config.max_connections = 16;
    config.service.workers = kWorkers;
    config.service.max_pending = kMaxPending;
    config.service.default_deadline_rounds = kDeadlineRounds;
    config.service.cache_dir = dir->path() + "/cache";
    config.service.journal_dir = dir->path() + "/journal";
    server = std::make_unique<serve::Server>(config);
    std::string error;
    if (!server->start(&error)) throw std::runtime_error("server start: " + error);
    reactor = std::thread([this] { server->run(); });
  }
  void stop() {
    if (!reactor.joinable()) return;
    server->request_stop();
    reactor.join();
  }
  ~LiveServer() { stop(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;
};

struct Reference {
  std::uint64_t hash = 0;
  std::size_t bytes = 0;
  bool valid_json = false;
  bool success = false;
};

/// serve::run_job_report on every listed job, kCheckThreads at a time.
std::vector<Reference> references(const std::vector<serve::JobSpec>& specs,
                                  std::size_t count) {
  std::vector<Reference> refs(count);
  qcongest::util::ThreadPool pool(kCheckThreads);
  pool.parallel_for(count, [&](std::size_t k) {
    const std::string body = serve::run_job_report(specs[k], kDeadlineRounds);
    refs[k].hash = qcongest::cache::fnv1a64(body);
    refs[k].bytes = body.size();
    refs[k].valid_json = qcongest::obs::json_valid(body);
    refs[k].success = body.find("\"success\": true") != std::string::npos;
  });
  return refs;
}

/// Count the jobs of one pass that failed: never replied, shed or otherwise
/// not ok, invalid JSON, or bytes unlike run_job_report's.
std::size_t failed_jobs(const PassResult& pass, const std::vector<Reference>& refs,
                        std::string* first_failure) {
  std::size_t failed = 0;
  for (std::size_t k = 0; k < pass.sent; ++k) {
    const JobSeen& s = pass.seen[k];
    bool good = s.replied && s.ok;
    if (good) {
      const Reference& r = refs[k];
      good = r.valid_json && r.hash == s.body_hash && r.bytes == s.body_bytes;
    }
    if (!good) {
      if (failed == 0) *first_failure = 'j' + std::to_string(k);
      ++failed;
    }
  }
  return failed + (pass.timed_out ? 1 : 0);
}

}  // namespace

void run_service_workload(const Options& opt, Results* res) {
  // setup_s: the median over fresh copies of this program, each timed from
  // its spawn to the end of the set-up below (see probe_setups).
  std::vector<double> setup_s;
  if (!opt.trace && !opt.setup_probe) setup_s = probe_setups(opt);

  // Whole generator blocks, so every seed offers one mix; six of them
  // (~42 s) average over the host's slower and faster spells. The traced
  // run replays the same schedule twice, so it keeps the first three
  // blocks to stay within one run's time limit.
  const std::size_t block = SpecGenerator::kBlock;
  const std::size_t open_jobs =
      std::max({kMinOpenJobs, static_cast<std::size_t>(std::ceil(kOpenRate * 0.6 * opt.seconds)),
                (opt.trace ? kOpenBlocks / 2 : kOpenBlocks) * block});
  const double closed_s = std::max(0.4 * opt.seconds, 1.0);
  // Closed-loop jobs on hand: well above the mix's saturation.
  const std::size_t closed_cap = static_cast<std::size_t>(std::ceil(400.0 * closed_s));

  // Set-up: spec generation, then service start with journal replay.
  const Workload w = make_workload(opt, open_jobs, closed_cap);
  auto live = std::make_unique<LiveServer>(opt.tmp_root);
  if (opt.setup_probe) {
    report_setup_ready();
    return;
  }

  // ---- untraced pass: the real Server.
  std::string error;
  PassResult pass = run_pass(live->server->port(), w, closed_s, &error);
  if (!error.empty()) throw std::runtime_error(error);
  const double rss = peak_rss_mib();
  live->stop();
  const serve::Service::Stats stats = live->server->service().stats();
  const serve::Journal::Stats jstats = live->server->service().journal()->stats();
  live.reset();

  // ---- traced pass: same seed, same schedule, spans on every layer call.
  SpanLog log;
  PassResult traced;
  std::map<std::int64_t, Executed> executed;
  Clock::time_point traced_epoch = Clock::now();
  if (opt.trace) {
    TempDir dir(opt.tmp_root);
    TracedService svc(dir.path(), &log);
    const std::uint16_t port = svc.listen(&error);
    if (port == 0) throw std::runtime_error(error);
    std::thread reactor([&svc] { svc.run(); });
    traced_epoch = Clock::now();
    traced = run_pass(port, w, closed_s, &error);
    svc.stop();
    reactor.join();
    if (!error.empty()) throw std::runtime_error(error);
    executed = svc.executed();
  }

  // ---- output checks, outside set-up and the timed phases.
  const std::size_t checked = std::max(pass.sent, opt.trace ? traced.sent : 0);
  const std::vector<Reference> refs = references(w.specs, checked);
  std::string first_failure;
  const std::size_t failed = failed_jobs(pass, refs, &first_failure);
  res->attempt(pass.sent, failed);
  if (failed > 0) res->note("first failed job: " + first_failure);
  if (opt.trace) {
    const std::size_t tfailed = failed_jobs(traced, refs, &first_failure);
    if (tfailed > 0) {
      res->fail_check("traced run: " + std::to_string(tfailed) +
                      " replies differ from run_job_report (first " + first_failure + ")");
    }
  }
  // Bounded-error and known-defect outcomes: reports ending success=false.
  const std::size_t sim_runs = checked;
  const std::size_t sim_failed = static_cast<std::size_t>(std::count_if(
      refs.begin(), refs.end(), [](const Reference& r) { return !r.success; }));

  const std::vector<double> lat = open_latencies(pass, w);
  double throughput = 0.0, block_s = 0.0;
  closed_loop_rates(pass, w, block, &throughput, &block_s);
  double p99 = 0.0;
  if (!percentile(lat, 0.99, &p99)) {
    res->fail_check("latency_p99_ms: fewer than ten samples beyond p99 (" +
                    std::to_string(lat.size()) + " samples)");
  }
  res->note("svc-cold: open loop " + std::to_string(w.open_jobs) + " jobs at " +
            std::to_string(kOpenRate) + " jobs/s (jittered fixed rate), closed loop " +
            std::to_string(kConnections) + " outstanding for " + std::to_string(closed_s) +
            " s; " + std::to_string(pass.sent) + " jobs sent, " + std::to_string(failed) +
            " failed");
  res->note("admission: " + std::to_string(stats.rejected_overload) + " shed at max_pending " +
            std::to_string(kMaxPending) + "; peak outstanding at the client " +
            std::to_string(pass.peak_outstanding));
  res->note("latency samples: " + std::to_string(lat.size()) + " (p99 has " +
            std::to_string(lat.size() - static_cast<std::size_t>(
                                            std::ceil(0.99 * static_cast<double>(lat.size())))) +
            " beyond it)");

  // Printed, not gated: on a shared VM the median moved 0.2-0.4 (IQR over
  // median) between seeds, because it is mostly hand-off and wake-up
  // latency rather than work; p99 is set by the slow jobs' work.
  res->note("latency_p50_ms " + std::to_string(median(lat)) + " ms (not a gated metric)");
  if (!opt.trace) {
    res->note("setup_s samples: " + std::to_string(setup_s.size()) +
              " fresh processes, spawn to server ready");
    res->add("latency_p99_ms", p99, "ms");
    res->add("throughput_jobs_s", throughput, "jobs/s");
    res->add("sweep_s", block_s, "s");
    res->add("setup_s", median(setup_s), "s");
    res->add("peak_rss_mb", rss, "MiB");
    return;
  }

  // ---------------------------------------------------- per-layer metrics
  if (!opt.trace_out.empty()) {
    res->note(log.write_jsonl(opt.trace_out, traced_epoch)
                  ? "spans written to " + opt.trace_out
                  : "could not write spans to " + opt.trace_out);
  }
  const std::vector<Span> spans = log.take();
  std::map<std::string, SpanTotals> totals;
  for (auto& [name, t] : span_totals(spans)) totals[name] = t;
  auto mean_us = [&](const char* name) {
    const SpanTotals& t = totals[name];
    return t.count == 0 ? 0.0 : t.total_us / static_cast<double>(t.count);
  };
  const double replies = static_cast<double>(std::max<std::size_t>(traced.sent, 1));
  // Per job: latency minus the top-level spans (reactor, sockets, hand-off).
  std::map<std::int64_t, double> top_us;
  std::vector<double> queue_wait_ms;
  for (const Span& s : spans) {
    if (s.parent == 0 && s.job >= 0) top_us[s.job] += us_between(s.start, s.end);
    if (std::string_view(s.name) == "serve.queue_wait") {
      queue_wait_ms.push_back(ms_between(s.start, s.end));
    }
  }
  std::vector<double> unattributed;
  for (std::size_t k = 0; k < w.open_jobs; ++k) {
    if (!traced.seen[k].replied) continue;
    const auto due = traced.open_t0 + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(w.due[k]));
    unattributed.push_back(ms_between(due, traced.seen[k].done) -
                           top_us[static_cast<std::int64_t>(k)] / 1e3);
  }
  const std::vector<double> traced_lat = open_latencies(traced, w);

  // net.tap_share: the service's taps against the same runner without
  // them, paired and serial, on the first open-loop specs.
  double tap_share = 0.0;
  {
    double with_us = 0.0, without_us = 0.0;
    const Clock::time_point budget = Clock::now() + std::chrono::seconds(2);
    for (std::size_t k = 0; k < w.open_jobs && Clock::now() < budget; ++k) {
      const serve::JobSpec& spec = w.specs[k];
      const net::Graph graph =
          qcongest::apps::make_registry_graph(spec.graph, spec.nodes, spec.seed);
      const qcongest::apps::AppRunner* runner = qcongest::apps::find_app(spec.app);
      for (int order = 0; order < 2; ++order) {
        const bool tapped = (order == 0) == (k % 2 == 0);
        qcongest::recover::Watchdog watchdog(
            qcongest::recover::WatchdogConfig{1024, kDeadlineRounds});
        net::Trace trace;
        qcongest::obs::RoundProfiler profiler;
        const NetOptions options = tapped ? job_options(spec, &watchdog, &trace, &profiler)
                                          : job_options(spec, nullptr, nullptr, nullptr);
        const Clock::time_point t0 = Clock::now();
        try {
          (void)(*runner)(graph, options);
        } catch (const std::exception&) {
          // A watchdog verdict ends the tapped run early; both sides count.
        }
        (tapped ? with_us : without_us) += us_between(t0, Clock::now());
      }
    }
    tap_share = without_us > 0.0 ? with_us / without_us - 1.0 : 0.0;
  }

  // Exact counts over a fixed job set: the open-loop jobs.
  net::RunResult sum;
  double direct_us = 0, direct_words = 0, reliable_us = 0, reliable_words = 0;
  auto tally = [&](const Executed& e) {
    sum += e.cost;
    const double words =
        static_cast<double>(e.cost.classical_words + e.cost.quantum_words);
    if (e.transport == net::Transport::kReliable) {
      reliable_us += e.run_us;
      reliable_words += words;
    } else {
      direct_us += e.run_us;
      direct_words += words;
    }
  };
  for (std::size_t k = 0; k < w.open_jobs; ++k) {
    auto it = executed.find(static_cast<std::int64_t>(k));
    if (it != executed.end()) tally(it->second);
  }
  std::vector<double> report_kb;
  for (std::size_t k = 0; k < w.open_jobs; ++k) {
    if (pass.seen[k].replied) report_kb.push_back(static_cast<double>(pass.seen[k].body_bytes) / 1024.0);
  }
  double qw_p99 = 0.0, kb_p99 = 0.0, late_p99 = 0.0;
  percentile(queue_wait_ms, 0.99, &qw_p99);
  percentile(report_kb, 0.99, &kb_p99);
  std::vector<double> due_s(w.due.begin(), w.due.begin() + static_cast<long>(w.open_jobs));
  std::vector<double> sent_s;
  for (std::size_t k = 0; k < w.open_jobs; ++k) {
    sent_s.push_back(std::chrono::duration<double>(pass.seen[k].sent - pass.open_t0).count());
  }
  const Lateness late = lateness(due_s, sent_s);
  percentile(late.late_ms, 0.99, &late_p99);

  auto self_ms_per_job = [&](std::initializer_list<const char*> names) {
    double us = 0.0;
    for (const char* n : names) us += totals[n].self_us;
    return us / replies / 1e3;
  };
  const double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
  const double untraced_p50 = median(lat);
  const double traced_p50 = median(traced_lat);

  res->add("serve.frame_us", totals["serve.frame"].total_us / replies, "us/job");
  res->add("serve.parse_us", mean_us("serve.parse"), "us/job");
  res->add("serve.queue_wait_p50_ms", median(queue_wait_ms), "ms");
  res->add("serve.queue_wait_p99_ms", qw_p99, "ms");
  res->add("serve.reply_us", mean_us("serve.reply"), "us/job");
  res->add("serve.unattributed_ms", median(unattributed), "ms/job");
  res->add("serve.submitted", static_cast<double>(stats.submitted), "count");
  res->add("serve.rejected", static_cast<double>(stats.rejected_overload + stats.invalid_specs),
           "count");
  res->add("serve.coalesced", static_cast<double>(stats.coalesced), "count");
  res->add("journal.append_us", mean_us("journal.append"), "us/record");
  res->add("journal.bytes_per_job",
           static_cast<double>(jstats.bytes_appended) /
               static_cast<double>(std::max<std::size_t>(stats.submitted, 1)),
           "B/job");
  res->add("journal.compactions", static_cast<double>(jstats.compactions), "count");
  res->add("cache.key_us", mean_us("cache.key"), "us/job");
  res->add("cache.put_us", mean_us("cache.put"), "us/miss");
  res->add("cache.lookups", lookups, "count");
  res->add("cache.hit_share", lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0,
           "ratio");
  res->add("apps.graph_us", mean_us("apps.graph"), "us/job");
  res->add("apps.run_ms", mean_us("apps.run") / 1e3, "ms/job");
  res->add("apps.sim_runs", static_cast<double>(sim_runs), "count");
  res->add("apps.sim_failed_share",
           sim_runs > 0 ? static_cast<double>(sim_failed) / static_cast<double>(sim_runs) : 0.0,
           "ratio");
  res->add("net.direct_ns_per_word", direct_words > 0 ? direct_us * 1e3 / direct_words : 0.0,
           "ns/word");
  res->add("net.reliable_ns_per_word",
           reliable_words > 0 ? reliable_us * 1e3 / reliable_words : 0.0, "ns/word");
  res->add("net.tap_share", tap_share, "ratio");
  res->add("net.rounds", static_cast<double>(sum.rounds), "count");
  res->add("net.words", static_cast<double>(sum.classical_words + sum.quantum_words), "count");
  res->add("net.retransmissions", static_cast<double>(sum.retransmissions), "count");
  res->add("recover.recovery_words", static_cast<double>(sum.recovery_words), "count");
  res->add("obs.render_ms", totals["obs.render"].total_us /
                                static_cast<double>(std::max<std::size_t>(totals["apps.run"].count, 1)) / 1e3,
           "ms/job");
  res->add("obs.report_kb_p50", median(report_kb), "KiB");
  res->add("obs.report_kb_p99", kb_p99, "KiB");
  res->add("framework.batch_us", 0.0, "us/batch");
  res->add("framework.batches", 0.0, "count");
  for (const char* stage : {"sweep.eccentricity_ms", "sweep.meeting_ms", "sweep.distinctness_ms",
                            "sweep.cycles_ms", "sweep.dj_ms", "sweep.minfind_ms",
                            "sweep.gate_level_ms"}) {
    res->add(stage, 0.0, "ms/pass");
  }
  res->add("quantum.gate_ns_per_amp", 0.0, "ns");
  res->add("quantum.gate_bytes", 0.0, "bytes");
  res->add("proc.cpu_util", pass.cpu_s / (pass.wall_s * 4.0), "ratio");
  res->add("loadgen.late_p99_ms", late_p99, "ms");
  res->add("loadgen.peak_outstanding", static_cast<double>(pass.peak_outstanding), "count");
  res->add("self.serve_ms", self_ms_per_job({"serve.frame", "serve.submit", "serve.parse",
                                             "serve.execute", "serve.reply"}),
           "ms/job");
  res->add("self.journal_ms", self_ms_per_job({"journal.append"}), "ms/job");
  res->add("self.cache_ms", self_ms_per_job({"cache.key", "cache.get", "cache.put"}),
           "ms/job");
  res->add("self.apps_ms", self_ms_per_job({"apps.graph", "apps.run"}), "ms/job");
  res->add("self.obs_ms", self_ms_per_job({"obs.render"}), "ms/job");
  res->add("trace.overhead_share",
           untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "ratio");
  res->add("failed_share",
           static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(pass.sent, 1)),
           "ratio");

  res->note("traced run: latency p50 " + std::to_string(traced_p50) + " ms vs untraced " +
            std::to_string(untraced_p50) + " ms (tracing overhead)");
  for (const auto& [name, t] : totals) {
    char line[160];
    std::snprintf(line, sizeof(line), "span %-18s n=%-7zu total=%10.1f ms self=%10.1f ms",
                  name.c_str(), t.count, t.total_us / 1e3, t.self_us / 1e3);
    res->note(line);
  }
  res->note("apps.sim_failed_share base: " + std::to_string(sim_runs) +
            " reports; cache.hit_share base: " + std::to_string(static_cast<std::size_t>(lookups)) +
            " lookups; serve.* base: " + std::to_string(stats.submitted) + " submitted; " +
            "loadgen: " + std::to_string(late.late_jobs) + " of " + std::to_string(w.open_jobs) +
            " sends late");
}

}  // namespace perfbench
