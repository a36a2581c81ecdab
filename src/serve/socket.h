#ifndef DBPL_SERVE_SOCKET_H_
#define DBPL_SERVE_SOCKET_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/status.h"

namespace dbpl::serve {

/// A thin RAII wrapper over a POSIX stream socket (or any byte-stream
/// fd, e.g. one end of a socketpair — which is how the differential
/// tests drive the server without touching the network stack).
///
/// All sends use MSG_NOSIGNAL so a peer that disappeared mid-response
/// surfaces as an IoError status, never a process-killing SIGPIPE.
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of `fd` (closed on destruction).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept
      : fd_(other.fd_), recv_timeout_(other.recv_timeout_) {
    other.fd_ = -1;
  }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      recv_timeout_ = other.recv_timeout_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Releases ownership of the fd without closing it.
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

  void Close();

  /// Writes all `n` bytes, retrying on EINTR/short writes and polling
  /// through EAGAIN (so it works on non-blocking sockets too).
  Status SendAll(const void* data, size_t n);

  /// One send(2): the number of bytes written (possibly short), or
  /// IoError. On a non-blocking socket whose send buffer is full it
  /// yields the would-block status below instead of waiting.
  Result<size_t> Send(const void* data, size_t n);

  /// One read(2): the number of bytes received (0 = orderly shutdown
  /// by the peer), or IoError. On a non-blocking socket an empty
  /// socket yields the special status below.
  Result<size_t> Recv(void* out, size_t n);

  /// True when `s` is the would-block pseudo-error from Recv or Send
  /// on a non-blocking socket that cannot make progress.
  static bool IsWouldBlock(const Status& s);

  /// Reads exactly `n` bytes (blocking sockets; polls through EAGAIN).
  /// IoError "connection closed" if the peer shuts down first. With a
  /// receive timeout set, a peer that stalls mid-read for longer than
  /// the timeout surfaces kDeadlineExceeded instead of blocking the
  /// caller forever (the deadline spans the whole RecvAll, computed
  /// once at entry).
  Status RecvAll(void* out, size_t n);

  /// Bounds how long RecvAll may wait for the peer. Zero (the
  /// default) preserves the historical wait-forever behavior.
  void set_recv_timeout(std::chrono::milliseconds timeout) {
    recv_timeout_ = timeout;
  }
  std::chrono::milliseconds recv_timeout() const { return recv_timeout_; }

  Status SetNonBlocking(bool enable);

  /// Disables Nagle's algorithm (no-op for non-TCP fds): a pipelined
  /// request/response protocol must not wait out delayed ACKs.
  void SetNoDelay();

  /// A connected AF_UNIX stream pair — the test transport.
  static Result<std::pair<Socket, Socket>> Pair();

 private:
  int fd_ = -1;
  /// Zero = no deadline.
  std::chrono::milliseconds recv_timeout_{0};
};

/// A listening TCP socket bound to 127.0.0.1 (or the given host).
class Listener {
 public:
  Listener() = default;
  Listener(Listener&&) noexcept = default;
  Listener& operator=(Listener&&) noexcept = default;

  /// Binds and listens; `port` 0 picks an ephemeral port (read it back
  /// with port()).
  static Result<Listener> Listen(const std::string& host, uint16_t port,
                                 int backlog);

  /// Accepts one connection (blocking). IoError on failure — including
  /// the listener being closed from another thread, which is how the
  /// server shuts the accept loop down.
  Result<Socket> Accept();

  uint16_t port() const { return port_; }
  int fd() const { return sock_.fd(); }
  bool valid() const { return sock_.valid(); }
  void Close() { sock_.Close(); }

 private:
  Socket sock_;
  uint16_t port_ = 0;
};

/// Connects to a TCP endpoint (blocking).
Result<Socket> ConnectTcp(const std::string& host, uint16_t port);

}  // namespace dbpl::serve

#endif  // DBPL_SERVE_SOCKET_H_
