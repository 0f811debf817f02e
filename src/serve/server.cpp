#include "src/serve/server.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace qcongest::serve {

namespace {

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      service_(std::make_unique<Service>(config_.service)) {}

Server::~Server() {
  // Drain the service first: its pool workers' completion callbacks touch
  // the reply queue, which must outlive them.
  service_.reset();
  for (auto& [fd, conn] : connections_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

bool Server::start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return false;
  };
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return fail("pipe");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  if (!set_nonblocking(wake_read_fd_) || !set_nonblocking(wake_write_fd_)) {
    return fail("fcntl(pipe)");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad bind address " + config_.bind_address;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind " + config_.bind_address + ":" +
                std::to_string(config_.port));
  }
  if (::listen(listen_fd_, 64) != 0) return fail("listen");
  if (!set_nonblocking(listen_fd_)) return fail("fcntl(listen)");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return fail("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);
  return true;
}

void Server::request_stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  wake();
}

void Server::wake() {
  // write() is async-signal-safe; a full pipe just means a wakeup is
  // already pending, which is all we need. A signal landing mid-write must
  // not eat the wakeup though — a swallowed EINTR here would stall reply
  // delivery until the poll timeout.
  char byte = 1;
  ssize_t n;
  do {
    n = ::write(wake_write_fd_, &byte, 1);
  } while (n < 0 && errno == EINTR);
}

void Server::queue_frame(Connection& conn, FrameType type,
                         std::string_view payload) {
  conn.out += encode_frame(type, payload);
}

bool Server::flush_output(Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                       conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer is gone
  }
  if (conn.out_offset == conn.out.size() && conn.out_offset > 0) {
    conn.out.clear();
    conn.out_offset = 0;
  }
  return true;
}

void Server::handle_frame(Connection& conn, const Frame& frame) {
  ++stats_.frames_received;
  switch (frame.type) {
    case FrameType::kPing:
      queue_frame(conn, FrameType::kPong, frame.payload);
      return;
    case FrameType::kShutdown:
      stopping_ = true;
      return;
    case FrameType::kSubmit: {
      if (stopping_) {
        // Draining: structured shed, never a silently dropped submit.
        JobReply reply;
        reply.status = JobReply::Status::kRejected;
        reply.error = "shutting_down";
        reply.id = std::string("?");
        JobSpec spec;
        std::string parse_error;
        if (parse_job_spec(frame.payload, &spec, &parse_error)) reply.id = spec.id;
        queue_frame(conn, FrameType::kRejected, render_reply_payload(reply));
        return;
      }
      const std::uint64_t serial = conn.serial;
      // The callback runs on a pool worker (or inline for rejections):
      // encode the full frame there, hand it to the reactor via the locked
      // queue, and poke the self-pipe. No socket is touched off-reactor.
      service_->submit(
          frame.payload, [this, serial](const JobReply& reply) {
            const FrameType type = reply.status == JobReply::Status::kRejected
                                       ? FrameType::kRejected
                                       : FrameType::kResult;
            std::string encoded = encode_frame(type, render_reply_payload(reply));
            {
              std::lock_guard<std::mutex> lock(replies_mutex_);
              pending_replies_.emplace_back(serial, std::move(encoded));
            }
            wake();
          });
      return;
    }
    case FrameType::kResult:
    case FrameType::kRejected:
    case FrameType::kError:
    case FrameType::kPong:
      // Server-to-client types arriving at the server: protocol violation.
      ++stats_.protocol_errors;
      queue_frame(conn, FrameType::kError,
                  "protocol violation: client sent a server-only frame type");
      conn.closing = true;
      return;
  }
}

bool Server::service_input(Connection& conn) {
  char buf[16384];
  while (true) {
    ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      // Peer half-closed. Whatever is buffered is all there will ever be;
      // a partial frame is now a truncation error.
      conn.reader.finish();
      conn.closing = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // connection reset
  }

  Frame frame;
  while (true) {
    FrameReader::Result result = conn.reader.next(&frame);
    if (result == FrameReader::Result::kFrame) {
      handle_frame(conn, frame);
      continue;
    }
    if (result == FrameReader::Result::kError) {
      // Tear down cleanly with a structured reason; the poisoned reader
      // guarantees no further bytes from this peer are interpreted.
      ++stats_.protocol_errors;
      queue_frame(conn, FrameType::kError, conn.reader.error());
      conn.closing = true;
    }
    break;
  }
  return true;
}

void Server::close_connection(std::map<int, Connection>::iterator it) {
  ::close(it->second.fd);
  connections_.erase(it);
}

void Server::drain_replies() {
  std::vector<std::pair<std::uint64_t, std::string>> batch;
  {
    std::lock_guard<std::mutex> lock(replies_mutex_);
    batch.swap(pending_replies_);
  }
  for (auto& [serial, encoded] : batch) {
    // Find the (still-open) connection this job arrived on; replies to
    // closed connections are dropped — their tenant is gone.
    for (auto& [fd, conn] : connections_) {
      if (conn.serial == serial) {
        conn.out += encoded;
        break;
      }
    }
  }
}

void Server::accept_new() {
  while (true) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (connections_.size() >= config_.max_connections) {
      // Structured connection-level shed: tell the peer before closing.
      ++stats_.connections_rejected;
      std::string frame = encode_frame(FrameType::kError,
                                       "too many connections, try again later");
      [[maybe_unused]] ssize_t n =
          ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      continue;
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ++stats_.connections_accepted;
    Connection conn(config_.max_frame_payload);
    conn.fd = fd;
    conn.serial = next_serial_++;
    connections_.emplace(fd, std::move(conn));
  }
}

void Server::run() {
  std::vector<pollfd> fds;
  bool last_read_done = false;
  while (true) {
    if (stop_requested_.load(std::memory_order_relaxed)) stopping_ = true;

    drain_replies();

    // Shutdown barrier: no admitted job in flight and every reply flushed.
    if (stopping_) {
      bool replies_pending;
      {
        std::lock_guard<std::mutex> lock(replies_mutex_);
        replies_pending = !pending_replies_.empty();
      }
      bool output_pending = false;
      for (auto& [fd, conn] : connections_) {
        if (conn.out_offset < conn.out.size()) output_pending = true;
      }
      if (!replies_pending && !output_pending &&
          service_->stats().pending == 0) {
        if (last_read_done) break;
        // One last read of every connection: a submit that reached the
        // socket after the kShutdown, in a later read, still gets its
        // kRejected shutting_down. Reading ends here, so the loop only
        // flushes what this read queued.
        last_read_done = true;
        std::vector<int> reset;
        for (auto& [fd, conn] : connections_) {
          if (!conn.closing && !service_input(conn)) reset.push_back(fd);
          conn.closing = true;
        }
        for (int fd : reset) close_connection(connections_.find(fd));
        continue;
      }
    }

    fds.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    if (!stopping_) fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [fd, conn] : connections_) {
      // A closing connection is write-only: watching POLLIN on bytes we
      // will never read would spin the reactor hot. poll still reports
      // POLLHUP/POLLERR with no events requested.
      short events = 0;
      if (!conn.closing) events |= POLLIN;
      if (conn.out_offset < conn.out.size()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }

    // Finite timeout: a belt-and-braces liveness floor under the self-pipe
    // wakeup, and the poll granularity of the shutdown barrier above.
    int ready = ::poll(fds.data(), fds.size(), 200);
    if (ready < 0 && errno != EINTR) break;

    std::size_t index = 0;
    if (fds[index].revents & POLLIN) {
      // Drain until EAGAIN, retrying through EINTR: a signal mid-drain
      // must not leave bytes behind, or the pipe stays readable and poll
      // spins hot on a permanently-ready fd.
      char drain[256];
      while (true) {
        ssize_t n = ::read(wake_read_fd_, drain, sizeof(drain));
        if (n > 0) continue;
        if (n < 0 && errno == EINTR) continue;
        break;  // EAGAIN (empty) or a dead pipe; both end the drain
      }
    }
    ++index;
    if (!stopping_) {
      if (fds[index].revents & (POLLIN | POLLERR)) accept_new();
      ++index;
    }

    // Snapshot the fds the pollfd list was built from: connections_ can
    // shrink while we iterate.
    std::vector<int> to_close;
    for (; index < fds.size(); ++index) {
      auto it = connections_.find(fds[index].fd);
      if (it == connections_.end()) continue;
      Connection& conn = it->second;
      bool alive = true;
      if (fds[index].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!conn.closing) {
          alive = service_input(conn);
        } else if (fds[index].revents & (POLLHUP | POLLERR)) {
          alive = false;
        }
      }
      if (alive && (conn.out_offset < conn.out.size())) {
        alive = flush_output(conn);
      }
      if (!alive || (conn.closing && conn.out_offset >= conn.out.size())) {
        to_close.push_back(fds[index].fd);
      }
    }
    for (int fd : to_close) {
      auto it = connections_.find(fd);
      if (it != connections_.end()) close_connection(it);
    }
  }

  // Reactor exit: close the listen socket so no new tenants arrive during
  // teardown, and every connection, so a peer whose later bytes will never
  // be read sees end of stream now, not when the Server is destroyed.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  while (!connections_.empty()) close_connection(connections_.begin());
}

}  // namespace qcongest::serve
