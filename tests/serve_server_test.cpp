// The qcongestd network front end over loopback sockets: the protocol
// branches of serve::Server that the frame codec tests cannot reach — a
// ping, a submit that arrives while the server drains, a submit after
// run() has returned, and a connection beyond the limit.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/serve/frame.hpp"
#include "src/serve/server.hpp"
#include "src/util/thread_pool.hpp"

namespace qcongest::serve {
namespace {

/// A blocking loopback client with a receive timeout, so a server that
/// never answers fails the test instead of hanging it.
class Client {
 public:
  explicit Client(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) return;
    timeval timeout{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return connected_; }

  /// All of `bytes` in one send call where the socket allows.
  bool send_all(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// True when the peer has closed the stream (end of stream or a reset);
  /// false on data or a receive timeout.
  bool peer_closed() {
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    return n == 0 || (n < 0 && (errno == ECONNRESET || errno == EPIPE));
  }

  /// The next frame; false at end of stream, on a timeout or a framing
  /// error.
  bool next(Frame* out) {
    while (true) {
      const FrameReader::Result result = reader_.next(out);
      if (result == FrameReader::Result::kFrame) return true;
      if (result == FrameReader::Result::kError) return false;
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      reader_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

 private:
  int fd_;
  bool connected_ = false;
  FrameReader reader_;
};

/// A Server on an ephemeral loopback port, its reactor running on a pool
/// worker until a kShutdown frame ends it; the destructor stops it
/// otherwise. Destroying the pool waits for run() to return.
class RunningServer {
 public:
  explicit RunningServer(ServerConfig config) : server_(std::move(config)) {
    std::string error;
    started_ = server_.start(&error);
    if (started_) reactor_->submit([this] { server_.run(); });
  }
  ~RunningServer() {
    server_.request_stop();
    reactor_.reset();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  bool started() const { return started_; }
  std::uint16_t port() const { return server_.port(); }

  /// Waits for run() to return on its own; stats are safe to read after.
  Server::Stats join_and_stats() {
    reactor_.reset();
    return server_.stats();
  }

 private:
  Server server_;
  bool started_ = false;
  // Last: drained before the server its task runs is destroyed.
  std::unique_ptr<util::ThreadPool> reactor_ = std::make_unique<util::ThreadPool>(2);
};

ServerConfig small_config() {
  ServerConfig config;
  config.service.workers = 1;
  return config;
}

TEST(ServeServer, PingGetsPongEchoingItsPayload) {
  RunningServer server(small_config());
  ASSERT_TRUE(server.started());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string payload("are you there?\0\xff", 16);
  ASSERT_TRUE(client.send_all(encode_frame(FrameType::kPing, payload)));
  Frame frame;
  ASSERT_TRUE(client.next(&frame));
  EXPECT_EQ(frame.type, FrameType::kPong);
  EXPECT_EQ(frame.payload, payload);
  ASSERT_TRUE(client.send_all(encode_frame(FrameType::kShutdown, "")));
  EXPECT_EQ(server.join_and_stats().frames_received, 2u);
}

TEST(ServeServer, SubmitAfterShutdownIsRejectedWithItsId) {
  RunningServer server(small_config());
  ASSERT_TRUE(server.started());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  // One write, so the submits reach the server in the same read as the
  // shutdown that starts its drain.
  ASSERT_TRUE(client.send_all(
      encode_frame(FrameType::kShutdown, "") +
      encode_frame(FrameType::kSubmit, "id=late-1\napp=leader\nnodes=9\nseed=3\n") +
      encode_frame(FrameType::kSubmit, "not a job spec")));
  Frame frame;
  ASSERT_TRUE(client.next(&frame));
  EXPECT_EQ(frame.type, FrameType::kRejected);
  EXPECT_EQ(frame.payload.rfind("id=late-1\nstatus=rejected\n", 0), 0u)
      << frame.payload;
  EXPECT_NE(frame.payload.find("reason=shutting_down\n"), std::string::npos);
  ASSERT_TRUE(client.next(&frame));
  EXPECT_EQ(frame.type, FrameType::kRejected);
  EXPECT_EQ(frame.payload.rfind("id=?\nstatus=rejected\n", 0), 0u)
      << frame.payload;
  EXPECT_NE(frame.payload.find("reason=shutting_down\n"), std::string::npos);
  const Server::Stats stats = server.join_and_stats();
  EXPECT_EQ(stats.frames_received, 3u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ServeServer, SubmitAfterRunReturnsSeesTheConnectionClosed) {
  RunningServer server(small_config());
  ASSERT_TRUE(server.started());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all(encode_frame(FrameType::kShutdown, "")));
  EXPECT_EQ(server.join_and_stats().frames_received, 1u);
  // run() has returned while the Server lives on: nothing reads this
  // connection any more, so the submit must meet a closed stream, not
  // silence until the receive timeout.
  const bool sent = client.send_all(
      encode_frame(FrameType::kSubmit, "id=late-2\napp=leader\nnodes=9\nseed=3\n"));
  EXPECT_TRUE(!sent || client.peer_closed());
}

TEST(ServeServer, ConnectionBeyondTheLimitGetsOneErrorFrameAndIsClosed) {
  ServerConfig config = small_config();
  config.max_connections = 1;
  RunningServer server(config);
  ASSERT_TRUE(server.started());
  Client first(server.port());
  ASSERT_TRUE(first.connected());
  // A pong proves the reactor has registered the first connection.
  ASSERT_TRUE(first.send_all(encode_frame(FrameType::kPing, "")));
  Frame frame;
  ASSERT_TRUE(first.next(&frame));
  ASSERT_EQ(frame.type, FrameType::kPong);

  Client second(server.port());
  ASSERT_TRUE(second.connected());  // the kernel completes the handshake
  ASSERT_TRUE(second.next(&frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_NE(frame.payload.find("too many connections"), std::string::npos);
  EXPECT_FALSE(second.next(&frame));  // then end of stream

  ASSERT_TRUE(first.send_all(encode_frame(FrameType::kShutdown, "")));
  const Server::Stats stats = server.join_and_stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_rejected, 1u);
}

}  // namespace
}  // namespace qcongest::serve
