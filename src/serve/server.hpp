#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/serve/frame.hpp"
#include "src/serve/service.hpp"

namespace qcongest::serve {

struct ServerConfig {
  /// Listen address. Loopback by default — qcongestd is a local simulation
  /// service, not an internet-facing one.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port (see Server::port after start()).
  std::uint16_t port = 0;
  /// Concurrent connections; one past the cap is told so and closed.
  std::size_t max_connections = 64;
  /// Frame payload cap handed to each connection's FrameReader.
  std::size_t max_frame_payload = kMaxPayload;
  ServiceConfig service;
};

/// The qcongestd network front end: a single-threaded poll() reactor (the
/// monotone netsync serve-loop idiom) over the Service. The reactor thread
/// owns every socket and all connection state; pool workers finishing jobs
/// hand replies over via a locked queue plus a self-pipe wakeup, and never
/// touch a socket themselves.
///
/// Robustness:
///  - framing violations (bad magic/version/type, oversized length,
///    truncation) get a best-effort kError frame and a clean teardown of
///    that connection only — parser state is per-connection, so nothing
///    leaks across tenants;
///  - a slow or dead client only ever stalls its own connection: writes
///    are buffered per connection and flushed as POLLOUT allows, reads are
///    nonblocking, and the reactor never blocks on any one peer;
///  - replies addressed to a connection that vanished are dropped;
///  - a kShutdown frame (or request_stop from a signal handler) stops
///    accepting, lets admitted jobs finish, flushes every reply, reads
///    every connection once more without blocking (a submit already there
///    gets kRejected shutting_down), then closes every connection and
///    returns from run(). That last read only narrows the race: a submit
///    that arrives after it gets end of stream, not a kRejected.
class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind and listen. False (with *error) on failure.
  bool start(std::string* error);

  /// The port actually bound (after start; meaningful with config port 0).
  std::uint16_t port() const { return bound_port_; }

  /// Serve until shutdown. Call start() first.
  void run();

  /// Async-signal-safe-ish stop request: sets a flag and pokes the
  /// self-pipe; run() notices on its next wakeup. Callable from any thread
  /// (the signal handler in tools/qcongestd calls it).
  void request_stop();

  struct Stats {
    std::size_t connections_accepted = 0;
    std::size_t connections_rejected = 0;  // over max_connections
    std::size_t frames_received = 0;
    std::size_t protocol_errors = 0;  // connections torn down for framing
  };
  Stats stats() const { return stats_; }
  Service& service() { return *service_; }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t serial = 0;
    FrameReader reader;
    std::string out;            // bytes queued for the peer
    std::size_t out_offset = 0; // flushed prefix of out
    bool closing = false;       // flush out, then close

    explicit Connection(std::size_t max_payload) : reader(max_payload) {}
  };

  void accept_new();
  /// Read and process what the peer sent; true to keep the connection.
  bool service_input(Connection& conn);
  void handle_frame(Connection& conn, const Frame& frame);
  void queue_frame(Connection& conn, FrameType type, std::string_view payload);
  /// Flush the out buffer as far as the socket allows; false = dead peer.
  bool flush_output(Connection& conn);
  void close_connection(std::map<int, Connection>::iterator it);
  void drain_replies();
  void wake();

  ServerConfig config_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::uint64_t next_serial_ = 1;
  std::map<int, Connection> connections_;  // keyed by fd
  Stats stats_;
  /// Reactor-local shutdown state; stop_requested_ is the cross-thread
  /// trigger (signal handler / other threads), folded into stopping_ at
  /// the top of each reactor iteration.
  bool stopping_ = false;
  std::atomic<bool> stop_requested_{false};

  /// Replies finished by pool workers, awaiting the reactor. Guarded by
  /// replies_mutex_; (connection serial, encoded frame) pairs — the serial
  /// (not the fd, which the OS recycles) proves the connection is still
  /// the same one the job came from.
  std::mutex replies_mutex_;
  std::vector<std::pair<std::uint64_t, std::string>> pending_replies_;

  /// Declared last, destroyed first: ~Service drains pool workers whose
  /// completion callbacks touch replies_mutex_/pending_replies_ above, so
  /// those members must still be alive while it runs.
  std::unique_ptr<Service> service_;
};

}  // namespace qcongest::serve
