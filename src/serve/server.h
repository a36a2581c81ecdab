#ifndef DBPL_SERVE_SERVER_H_
#define DBPL_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "persist/wal_database.h"
#include "serve/protocol.h"
#include "serve/socket.h"

namespace dbpl::serve {

/// Construction-time knobs for a Server.
struct ServeOptions {
  /// Worker threads executing requests. Each session is owned by at
  /// most one worker at a time, which is what makes pipelined
  /// responses arrive in request order.
  int workers = 4;
  /// Admission bound: the most sessions admitted at once. A connection
  /// arriving beyond it is *shed* — answered with one kUnavailable
  /// frame and closed — instead of queued, so saturation degrades into
  /// explicit, retryable refusals rather than unbounded latency.
  int max_sessions = 1024;
  /// When true, bind a TCP listener on `host`:`port` (0 = ephemeral;
  /// read the bound port back with Server::port()). When false the
  /// server only serves connections handed to AdoptConnection — the
  /// transport the in-process tests use.
  bool listen = false;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int backlog = 128;
};

/// Monotonic counters, readable at any time without stopping traffic.
struct ServerStats {
  uint64_t sessions_accepted = 0;
  uint64_t sessions_shed = 0;
  uint64_t sessions_closed = 0;
  uint64_t requests_ok = 0;
  uint64_t requests_error = 0;
  /// Sessions dropped for framing violations (bad CRC, oversized
  /// length, undecodable request body).
  uint64_t protocol_errors = 0;
};

/// Most response bytes a session may hold unsent. Past it the server
/// stops reading that session and stops executing its buffered
/// requests until the peer drains: backpressure, never a blocked
/// worker. Two maximal frames, so one response that crosses the line
/// still fits beside the one before it.
inline constexpr size_t kMaxUnsentBytes = 2 * kMaxFrameBody;

/// The dbpl-serve front-end: a pool of worker threads over one shared
/// epoll set, serving the wire protocol of serve/protocol.h on top of
/// a persist::WalDatabase.
///
/// ## Architecture
///
/// One epoll set holds every session fd, the listener (when listening)
/// and a stop eventfd, all registered EPOLLONESHOT. The `workers`
/// threads all wait on it; the kernel hands each readiness event to
/// exactly one of them and disarms the fd. That worker owns the
/// session for one *turn*: it flushes pending output, drains the
/// socket, executes every complete pipelined request in arrival order
/// (reads resolve against a lock-free dyndb snapshot; writes funnel
/// through the WalDatabase's sharded group-commit path), queues the
/// responses, flushes them with non-blocking sends, and re-arms the fd
/// with one epoll_ctl(MOD) — for EPOLLOUT too while output is pending.
/// A session therefore has one owner per turn, and idle workers pick
/// up whichever session turns ready next.
///
/// ## Locking
///
/// `mu_` (rank kServe, below the whole database stack — DESIGN.md
/// §10/§12) guards only the session table and stop flag, at admission
/// and close. Each turn runs under its session's own `mu`, also rank
/// kServe, and re-arms the fd before releasing it. The kernel already
/// serializes turns, so the next owner waits on `mu` at most for that
/// unlock; the lock makes the handoff between turns visible to TSan
/// and the lock-rank checker. It is never nested with `mu_`.
///
/// ## Failure containment
///
/// Per-request errors (NotFound, TypeError, a vetoed write, ...) are
/// answered in-band with the typed status mapping and the session
/// lives on. Framing violations are unrecoverable for that stream:
/// the session is answered with one final error frame (op kNone) and
/// closed once that frame is sent. A peer vanishing mid-request tears
/// down only its session; buffered partial requests are discarded
/// unexecuted. A peer that stops reading holds at most
/// kMaxUnsentBytes plus one response of output; no worker ever waits
/// on it.
class Server {
 public:
  /// Starts the threads (and listener, when configured). `wdb` must
  /// outlive the returned server.
  static Result<std::unique_ptr<Server>> Start(persist::WalDatabase* wdb,
                                               const ServeOptions& options);

  /// Stops and joins all threads, closing every session.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Hands an already-connected byte stream (e.g. one end of a
  /// socketpair) to the server, subject to the same admission bound as
  /// accepted connections: over capacity the socket is answered with a
  /// kUnavailable frame, closed, and kUnavailable is returned.
  Status AdoptConnection(Socket sock) DBPL_EXCLUDES(mu_);

  /// The bound TCP port (0 when not listening).
  uint16_t port() const { return port_; }

  /// Sessions currently admitted (idle or being served).
  int active_sessions() const DBPL_EXCLUDES(mu_);

  ServerStats stats() const;

  /// Idempotent shutdown: refuse new work, join threads, close
  /// sessions. Called by the destructor.
  void Stop() DBPL_EXCLUDES(mu_);

 private:
  struct Session {
    explicit Session(Socket s) : sock(std::move(s)) {}
    /// Held for one whole turn; see "Locking" above.
    dbpl::Mutex mu{dbpl::LockRank::kServe, "serve.session.mu"};
    /// Set at admission, never reassigned.
    Socket sock;
    /// Received-but-unparsed bytes (may end mid-frame).
    std::vector<uint8_t> in DBPL_GUARDED_BY(mu);
    /// Framed responses not yet fully sent, oldest first; the first
    /// `out_head` bytes of the front one are already on the wire.
    std::deque<ByteBuffer> out DBPL_GUARDED_BY(mu);
    size_t out_head DBPL_GUARDED_BY(mu) = 0;
    /// Bytes in `out` not yet sent.
    size_t unsent DBPL_GUARDED_BY(mu) = 0;
    /// Peer performed an orderly shutdown: answer the buffered
    /// complete requests, then close.
    bool saw_eof DBPL_GUARDED_BY(mu) = false;
    /// Framing is lost: close once the final error frame is sent.
    bool closing DBPL_GUARDED_BY(mu) = false;

    /// Whether to take more requests from the peer now.
    bool reading() const DBPL_REQUIRES(mu) {
      return !closing && !saw_eof && unsent <= kMaxUnsentBytes;
    }
  };

  Server(persist::WalDatabase* wdb, const ServeOptions& options)
      : wdb_(wdb), options_(options) {}

  Status StartLocked();

  /// One worker: waits on the shared epoll set and serves whatever
  /// event the kernel hands it.
  void WorkerLoop() DBPL_EXCLUDES(mu_);
  /// (Re-)registers `fd` in the epoll set for one event of `events`.
  Status Arm(int op, int fd, uint32_t events, void* tag);

  /// Accepts until EAGAIN, applying admission control.
  void AcceptReady() DBPL_EXCLUDES(mu_);
  /// Registers `sock` as a new session or sheds it. The returned
  /// status is kUnavailable iff shed.
  Status Admit(Socket sock) DBPL_EXCLUDES(mu_);
  /// Best-effort "server at capacity" frame + close.
  void Shed(Socket sock);

  /// Runs one turn of `session` and re-arms or closes it.
  void ServeTurn(Session* session) DBPL_EXCLUDES(mu_, session->mu);
  /// Flush, drain, execute, flush. Returns the events to re-arm the
  /// session with; 0 means close it.
  uint32_t Turn(Session* session) DBPL_REQUIRES(session->mu);
  /// Sends queued output until done or the socket is full. False = the
  /// peer is gone.
  bool Flush(Session* session) DBPL_REQUIRES(session->mu);
  /// Reads at most kMaxReadPerTurn bytes into `in`. False = the peer
  /// is gone.
  bool Drain(Session* session) DBPL_REQUIRES(session->mu);
  /// Answers complete buffered requests, in arrival order, into
  /// `batch` while the session stays within kMaxUnsentBytes. True when
  /// it stopped at that bound rather than for lack of requests.
  bool AnswerBuffered(Session* session, ByteBuffer* batch)
      DBPL_REQUIRES(session->mu);
  /// Unregisters and destroys a session no worker will touch again.
  void CloseSession(Session* session) DBPL_EXCLUDES(mu_, session->mu);

  /// Decodes and executes one CRC-valid frame body, appending the
  /// framed response to `out`. False = session must close (the body
  /// was not a well-formed request).
  bool HandleFrame(const uint8_t* body, size_t n, ByteBuffer* out);
  /// Executes one decoded request against the database.
  Response Execute(const Request& req);

  persist::WalDatabase* const wdb_;
  const ServeOptions options_;

  Listener listener_;
  uint16_t port_ = 0;
  /// The shared EPOLLONESHOT set, and the eventfd that tells workers to
  /// exit.
  int epoll_fd_ = -1;
  int stop_fd_ = -1;

  /// Guards the session table and stop flag; never held across I/O
  /// other than registering or closing a session's fd, and never
  /// together with a Session::mu. Rank kServe (DESIGN.md §12).
  mutable dbpl::Mutex mu_{dbpl::LockRank::kServe, "serve.mu_"};
  /// Keyed by fd, which stays unique while the session owns it.
  std::unordered_map<int, std::unique_ptr<Session>> sessions_
      DBPL_GUARDED_BY(mu_);
  bool stop_ DBPL_GUARDED_BY(mu_) = false;

  // Stats are atomics so workers never take mu_ on the hot path.
  std::atomic<uint64_t> n_accepted_{0};
  std::atomic<uint64_t> n_shed_{0};
  std::atomic<uint64_t> n_closed_{0};
  std::atomic<uint64_t> n_requests_ok_{0};
  std::atomic<uint64_t> n_requests_error_{0};
  std::atomic<uint64_t> n_protocol_errors_{0};

  std::atomic<bool> started_{false};
  std::vector<std::thread> workers_;
};

}  // namespace dbpl::serve

#endif  // DBPL_SERVE_SERVER_H_
