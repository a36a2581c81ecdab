#include "serve/server.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "dyndb/dynamic.h"

namespace dbpl::serve {

namespace {

/// Cap on bytes drained from one session per service turn, so a
/// fire-hosing pipeliner cannot starve other sessions of its worker.
constexpr size_t kMaxReadPerTurn = 256 * 1024;
constexpr size_t kRecvChunkBytes = 16 * 1024;

Status ErrnoStatus(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Result<std::unique_ptr<Server>> Server::Start(persist::WalDatabase* wdb,
                                              const ServeOptions& options) {
  if (wdb == nullptr) {
    return Status::InvalidArgument("Server::Start: null database");
  }
  if (options.workers < 1) {
    return Status::InvalidArgument("Server::Start: need at least one worker");
  }
  if (options.max_sessions < 1) {
    return Status::InvalidArgument("Server::Start: max_sessions must be >= 1");
  }
  std::unique_ptr<Server> server(new Server(wdb, options));
  DBPL_RETURN_IF_ERROR(server->StartLocked());
  return server;
}

Status Server::StartLocked() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return ErrnoStatus("epoll_create1");
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_fd_ < 0) return ErrnoStatus("eventfd");
  DBPL_RETURN_IF_ERROR(Arm(EPOLL_CTL_ADD, stop_fd_, EPOLLIN, &stop_fd_));

  if (options_.listen) {
    DBPL_ASSIGN_OR_RETURN(
        listener_,
        Listener::Listen(options_.host, options_.port, options_.backlog));
    const int flags = ::fcntl(listener_.fd(), F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(listener_.fd(), F_SETFL, flags | O_NONBLOCK) < 0) {
      return ErrnoStatus("fcntl");
    }
    port_ = listener_.port();
    DBPL_RETURN_IF_ERROR(
        Arm(EPOLL_CTL_ADD, listener_.fd(), EPOLLIN, &listener_));
  }

  started_.store(true, std::memory_order_release);
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

Server::~Server() {
  Stop();
  for (int fd : {epoll_fd_, stop_fd_}) {
    if (fd >= 0) ::close(fd);
  }
}

void Server::Stop() {
  if (!started_.exchange(false, std::memory_order_acq_rel)) return;
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  const uint64_t one = 1;
  (void)!::write(stop_fd_, &one, sizeof(one));
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  listener_.Close();
  MutexLock lock(&mu_);
  sessions_.clear();  // RAII closes every socket; clients see EOF
}

Status Server::AdoptConnection(Socket sock) {
  if (!sock.valid()) {
    return Status::InvalidArgument("AdoptConnection: invalid socket");
  }
  return Admit(std::move(sock));
}

int Server::active_sessions() const {
  MutexLock lock(&mu_);
  return static_cast<int>(sessions_.size());
}

ServerStats Server::stats() const {
  ServerStats out;
  out.sessions_accepted = n_accepted_.load(std::memory_order_relaxed);
  out.sessions_shed = n_shed_.load(std::memory_order_relaxed);
  out.sessions_closed = n_closed_.load(std::memory_order_relaxed);
  out.requests_ok = n_requests_ok_.load(std::memory_order_relaxed);
  out.requests_error = n_requests_error_.load(std::memory_order_relaxed);
  out.protocol_errors = n_protocol_errors_.load(std::memory_order_relaxed);
  return out;
}

Status Server::Arm(int op, int fd, uint32_t events, void* tag) {
  struct epoll_event ev = {};
  ev.events = events | EPOLLONESHOT;
  ev.data.ptr = tag;
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0) {
    return ErrnoStatus("epoll_ctl");
  }
  return Status::OK();
}

void Server::WorkerLoop() {
  while (true) {
    struct epoll_event ev;
    const int n = ::epoll_wait(epoll_fd_, &ev, 1, -1);
    if (n < 0 && errno != EINTR) return;  // unrecoverable; Stop tears down
    if (n <= 0) continue;
    if (ev.data.ptr == &stop_fd_) {
      // Pass the stop on to the next worker, then exit.
      (void)Arm(EPOLL_CTL_MOD, stop_fd_, EPOLLIN, &stop_fd_);
      return;
    }
    if (ev.data.ptr == &listener_) {
      AcceptReady();
      (void)Arm(EPOLL_CTL_MOD, listener_.fd(), EPOLLIN, &listener_);
      continue;
    }
    ServeTurn(static_cast<Session*>(ev.data.ptr));
  }
}

void Server::AcceptReady() {
  // The listener is non-blocking: accept until it runs dry.
  while (true) {
    Result<Socket> sock = listener_.Accept();
    if (!sock.ok()) return;  // EAGAIN (drained) or a transient error
    (void)Admit(std::move(*sock));
  }
}

Status Server::Admit(Socket sock) {
  sock.SetNoDelay();
  DBPL_RETURN_IF_ERROR(sock.SetNonBlocking(true));
  {
    MutexLock lock(&mu_);
    if (!stop_ &&
        static_cast<int>(sessions_.size()) < options_.max_sessions) {
      const int fd = sock.fd();
      auto session = std::make_unique<Session>(std::move(sock));
      // Registered under mu_, so Stop cannot free the session first.
      // From here on a worker may already be serving it.
      DBPL_RETURN_IF_ERROR(Arm(EPOLL_CTL_ADD, fd, EPOLLIN, session.get()));
      sessions_.emplace(fd, std::move(session));
      n_accepted_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
  }
  n_shed_.fetch_add(1, std::memory_order_relaxed);
  Shed(std::move(sock));
  return Status::Unavailable("server at capacity");
}

void Server::Shed(Socket sock) {
  Response resp;
  resp.id = 0;
  resp.op = ReqOp::kNone;
  resp.status = Status::Unavailable("server at capacity");
  ByteBuffer body;
  EncodeResponse(resp, &body);
  ByteBuffer frame;
  // A bare error response cannot exceed the frame limit.
  if (!EncodeFrame(body, &frame).ok()) return;
  // One non-blocking send (an empty socket buffer takes the whole
  // frame), then close.
  (void)sock.Send(frame.data(), frame.size());
}

void Server::ServeTurn(Session* session) {
  {
    MutexLock lock(&session->mu);
    const uint32_t events = Turn(session);
    // Re-armed before the unlock, so the next owner's lock orders after
    // everything this turn did.
    if (events != 0 &&
        Arm(EPOLL_CTL_MOD, session->sock.fd(), events, session).ok()) {
      return;
    }
  }
  // Still disarmed: no other worker can reach the session.
  CloseSession(session);
}

uint32_t Server::Turn(Session* session) {
  if (!Flush(session)) return 0;
  if (session->reading() && !Drain(session)) return 0;
  // Answer in arrival order while the peer keeps up; a flush that makes
  // room below the bound lets the turn go on.
  bool at_bound = true;
  while (at_bound && !session->closing &&
         session->unsent <= kMaxUnsentBytes) {
    ByteBuffer batch;
    at_bound = AnswerBuffered(session, &batch);
    if (!batch.empty()) {
      session->unsent += batch.size();
      session->out.push_back(std::move(batch));
    }
    if (!Flush(session)) return 0;
  }
  uint32_t events = 0;
  if (session->unsent > 0) events |= EPOLLOUT;
  if (session->reading()) events |= EPOLLIN;
  return events;  // 0: done reading and everything is sent
}

bool Server::Flush(Session* session) {
  while (!session->out.empty()) {
    const ByteBuffer& head = session->out.front();
    Result<size_t> sent = session->sock.Send(
        head.data() + session->out_head, head.size() - session->out_head);
    if (!sent.ok()) return Socket::IsWouldBlock(sent.status());
    session->out_head += *sent;
    session->unsent -= *sent;
    if (session->out_head == head.size()) {
      session->out.pop_front();
      session->out_head = 0;
    }
  }
  return true;
}

bool Server::Drain(Session* session) {
  for (size_t drained = 0; drained < kMaxReadPerTurn;) {
    uint8_t chunk[kRecvChunkBytes];
    Result<size_t> got = session->sock.Recv(chunk, sizeof(chunk));
    if (!got.ok()) return Socket::IsWouldBlock(got.status());
    if (*got == 0) {
      session->saw_eof = true;
      return true;
    }
    session->in.insert(session->in.end(), chunk, chunk + *got);
    drained += *got;
  }
  return true;
}

bool Server::AnswerBuffered(Session* session, ByteBuffer* batch) {
  size_t consumed = 0;
  bool at_bound = false;
  while (!session->closing) {
    if (session->unsent + batch->size() > kMaxUnsentBytes) {
      at_bound = true;
      break;
    }
    size_t total = 0;
    std::string error;
    FrameStatus fs = InspectFrame(session->in.data() + consumed,
                                  session->in.size() - consumed, &total,
                                  &error);
    if (fs == FrameStatus::kNeedMore) break;
    if (fs == FrameStatus::kBad) {
      // Framing is lost for good: answer once (op kNone, no id to
      // echo) and drop the session.
      n_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      Response resp;
      resp.status = Status::Corruption(error);
      ByteBuffer body;
      EncodeResponse(resp, &body);
      (void)EncodeFrame(body, batch);  // bare error: cannot be oversize
      session->closing = true;
      break;
    }
    // An undecodable body gets its error response and closes too.
    session->closing =
        !HandleFrame(session->in.data() + consumed + kFrameHeaderBytes,
                     total - kFrameHeaderBytes, batch);
    consumed += total;
  }
  session->in.erase(session->in.begin(),
                    session->in.begin() + static_cast<ptrdiff_t>(consumed));
  return at_bound;
}

void Server::CloseSession(Session* session) {
  const int fd = session->sock.fd();
  // Explicit, so a copy of the fd held elsewhere cannot keep the
  // registration (and a dangling Session*) alive.
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  {
    MutexLock lock(&mu_);
    sessions_.erase(fd);  // closes the socket
  }
  n_closed_.fetch_add(1, std::memory_order_relaxed);
}

bool Server::HandleFrame(const uint8_t* body, size_t n, ByteBuffer* out) {
  Result<Request> req = DecodeRequest(body, n);
  Response resp;
  const bool well_formed = req.ok();
  if (!well_formed) {
    // CRC-valid frame, undecodable body: the peer speaks another
    // protocol (or version) — answer and disconnect.
    n_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    resp.status = req.status();
  } else {
    resp = Execute(*req);
  }
  ByteBuffer resp_body;
  EncodeResponse(resp, &resp_body);
  Status framed = EncodeFrame(resp_body, out);
  if (!framed.ok()) {
    // The response materialized larger than a legal frame (e.g. a
    // GetScan over a huge extent). Answer the *same request* in-band
    // with the refusal instead — the session keeps its framing and
    // lives on; the client can narrow the query and retry.
    Response refusal;
    refusal.id = resp.id;
    refusal.op = resp.op;
    refusal.status = std::move(framed);
    resp.status = refusal.status;
    ByteBuffer refusal_body;
    EncodeResponse(refusal, &refusal_body);
    (void)EncodeFrame(refusal_body, out);  // bare error: always framable
  }
  if (well_formed) {
    if (resp.status.ok()) {
      n_requests_ok_.fetch_add(1, std::memory_order_relaxed);
    } else {
      n_requests_error_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return well_formed;
}

Response Server::Execute(const Request& req) {
  Response resp;
  resp.id = req.id;
  resp.op = req.op;
  switch (req.op) {
    case ReqOp::kPing:
      break;
    case ReqOp::kInsert: {
      Result<dyndb::Database::EntryId> id = wdb_->Insert(req.entry);
      if (id.ok()) {
        resp.entry_id = *id;
      } else {
        resp.status = id.status();
      }
      break;
    }
    case ReqOp::kGet: {
      Result<dyndb::Dynamic> d = wdb_->db().Get(req.entry_id);
      if (d.ok()) {
        resp.entries.push_back(*std::move(d));
      } else {
        resp.status = d.status();
      }
      break;
    }
    case ReqOp::kGetScan: {
      dyndb::Database::Snapshot snap = wdb_->db().GetSnapshot();
      for (core::Value& v : snap.GetScan(req.type)) {
        resp.entries.push_back(dyndb::MakeDynamic(std::move(v)));
      }
      break;
    }
    case ReqOp::kGetViaExtent: {
      dyndb::Database::Snapshot snap = wdb_->db().GetSnapshot();
      Result<std::vector<core::Value>> vs = snap.GetViaExtent(req.type);
      if (vs.ok()) {
        for (core::Value& v : *vs) {
          resp.entries.push_back(dyndb::MakeDynamic(std::move(v)));
        }
      } else {
        resp.status = vs.status();
      }
      break;
    }
    case ReqOp::kGetViaIndex: {
      dyndb::Database::Snapshot snap = wdb_->db().GetSnapshot();
      for (core::Value& v : snap.GetViaIndex(req.type)) {
        resp.entries.push_back(dyndb::MakeDynamic(std::move(v)));
      }
      break;
    }
    case ReqOp::kGetPackages: {
      dyndb::Database::Snapshot snap = wdb_->db().GetSnapshot();
      resp.entries = snap.GetPackages(req.type);
      break;
    }
    case ReqOp::kRegisterExtent:
      resp.status = wdb_->RegisterExtent(req.extent_name, req.type);
      break;
    case ReqOp::kCommit:
      resp.status = wdb_->Commit();
      break;
    case ReqOp::kInfo: {
      dyndb::Database::Snapshot snap = wdb_->db().GetSnapshot();
      resp.size = snap.size();
      resp.epoch = snap.epoch();
      resp.shards = snap.shards();
      break;
    }
    case ReqOp::kShipBounds:
      resp.ship = wdb_->ship_bounds();
      break;
    case ReqOp::kReadChunk: {
      // The (kind, shard) pair resolves to a path server-side; clients
      // never name files, so there is nothing to traverse. Decode
      // already bounded shard and length; geometry is checked here.
      if (req.file == ShipFile::kWalSegment &&
          req.shard >= wdb_->shard_count()) {
        resp.status = Status::InvalidArgument(
            "shard " + std::to_string(req.shard) + " out of range (primary has " +
            std::to_string(wdb_->shard_count()) + ")");
        break;
      }
      const std::string& path = req.file == ShipFile::kCheckpoint
                                    ? wdb_->checkpoint_path()
                                    : wdb_->wal_path(req.shard);
      auto file = wdb_->vfs()->Open(path, storage::OpenMode::kRead);
      if (!file.ok()) {
        // A segment/checkpoint may legitimately not exist yet; map the
        // VFS's NotFound (or crash-injected error) in-band.
        resp.status = file.status();
        break;
      }
      Result<uint64_t> size = (*file)->Size();
      if (!size.ok()) {
        resp.status = size.status();
        break;
      }
      resp.file_size = *size;
      // Size the buffer by what the file holds, not by what the peer
      // asked for: a read at or past EOF allocates nothing.
      const uint64_t avail =
          req.offset < *size ? std::min(req.length, *size - req.offset) : 0;
      resp.chunk.resize(static_cast<size_t>(avail));
      if (avail > 0) {
        Result<size_t> got = (*file)->ReadAt(
            req.offset, resp.chunk.data(), static_cast<size_t>(avail));
        if (!got.ok()) {
          resp.status = got.status();
          resp.chunk.clear();
          break;
        }
        resp.chunk.resize(*got);  // short at EOF, like ReadAt itself
      }
      break;
    }
    default:
      resp.status = Status::Internal("unhandled opcode");
      break;
  }
  return resp;
}

}  // namespace dbpl::serve
