#include "serve/remote_shipper.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>

namespace dbpl::serve {

namespace {

constexpr const char* kCheckpointPath = "remote://checkpoint";
constexpr const char* kWalPathPrefix = "remote://wal.";

}  // namespace

// ---------------------------------------------------------------------------
// RemoteFile
// ---------------------------------------------------------------------------

/// A read-only view of one primary-side file, fetched in kReadChunk
/// round trips. Vfs::ReadFileBytes issues one whole-file ReadAt, so a
/// checkpoint read loops RPCs of at most kMaxReadChunk bytes each.
/// LogReader's header and body reads of a WAL segment go through the
/// read-ahead window instead (class comment, "Read-ahead").
class RemoteShipper::RemoteFile : public storage::VfsFile {
 public:
  RemoteFile(const RemoteShipper* shipper, ShipFile file, int shard)
      : shipper_(shipper), file_(file), shard_(shard) {}

  Result<size_t> ReadAt(uint64_t offset, void* out, size_t n) override {
    uint8_t* p = static_cast<uint8_t*>(out);
    if (file_ == ShipFile::kWalSegment && n <= kMaxReadChunk) {
      return ReadThroughWindow(offset, p, n);
    }
    size_t total = 0;
    while (total < n) {
      const uint64_t want =
          std::min<uint64_t>(n - total, kMaxReadChunk);
      DBPL_ASSIGN_OR_RETURN(
          Client::Chunk chunk,
          shipper_->ReadChunkRpc(file_, shard_, offset + total, want));
      // ReadChunkRpc already rejects over-long chunks; re-check at the
      // copy itself so the memcpy bound never rests on a remote peer.
      if (chunk.data.size() > want) {
        return Status::Corruption("chunk longer than requested");
      }
      std::memcpy(p + total, chunk.data.data(), chunk.data.size());
      total += chunk.data.size();
      // A short chunk is the server's EOF, mirroring local ReadAt.
      if (chunk.data.size() < want) break;
    }
    return total;
  }

  Result<uint64_t> Size() const override {
    // A zero-length read carries the file size for free.
    DBPL_ASSIGN_OR_RETURN(Client::Chunk chunk,
                          shipper_->ReadChunkRpc(file_, shard_, 0, 0));
    return chunk.file_size;
  }

  Status WriteAt(uint64_t, const void*, size_t) override {
    return Status::Unsupported("remote shipping files are read-only");
  }
  Status Append(const void*, size_t) override {
    return Status::Unsupported("remote shipping files are read-only");
  }
  Status Sync() override {
    return Status::Unsupported("remote shipping files are read-only");
  }

 private:
  Result<size_t> ReadThroughWindow(uint64_t offset, uint8_t* out, size_t n) {
    const uint64_t end = window_start_ + window_.size();
    const bool hit = offset >= consumed_ && offset <= end &&
                     n <= end - offset &&
                     window_conn_ == shipper_->connection();
    if (!hit) {
      window_.clear();
      uint64_t conn = 0;
      DBPL_ASSIGN_OR_RETURN(Client::Chunk chunk,
                            shipper_->ReadAheadRpc(shard_, offset, n, &conn));
      window_ = std::move(chunk.data);
      window_start_ = offset;
      window_conn_ = conn;
    }
    // The copy is bounded by `n` and the window, never by the peer; a
    // window shorter than the read is the server's EOF.
    const size_t got = static_cast<size_t>(
        std::min<uint64_t>(n, window_start_ + window_.size() - offset));
    std::memcpy(out, window_.data() + (offset - window_start_), got);
    consumed_ = offset + got;
    return got;
  }

  const RemoteShipper* const shipper_;
  const ShipFile file_;
  const int shard_;
  /// The read-ahead window (WAL segments only): the bytes at
  /// [window_start_, window_start_ + window_.size()) as connection
  /// window_conn_ served them. Bytes below consumed_ are spent.
  std::string window_;
  uint64_t window_start_ = 0;
  uint64_t consumed_ = 0;
  uint64_t window_conn_ = 0;
};

// ---------------------------------------------------------------------------
// RemoteVfs
// ---------------------------------------------------------------------------

Status RemoteShipper::ParsePath(const std::string& path, ShipFile* file,
                                int* shard) const {
  if (path == checkpoint_path_) {
    *file = ShipFile::kCheckpoint;
    *shard = 0;
    return Status::OK();
  }
  for (int s = 0; s < shard_count_; ++s) {
    if (path == wal_paths_[static_cast<size_t>(s)]) {
      *file = ShipFile::kWalSegment;
      *shard = s;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("not a path of this remote shipper: " +
                                 path);
}

Result<std::unique_ptr<storage::VfsFile>> RemoteShipper::RemoteVfs::Open(
    const std::string& path, storage::OpenMode mode) {
  if (mode != storage::OpenMode::kRead) {
    return Status::Unsupported("the remote VFS is read-only");
  }
  ShipFile file = ShipFile::kCheckpoint;
  int shard = 0;
  DBPL_RETURN_IF_ERROR(shipper_->ParsePath(path, &file, &shard));
  // Probe now so Open(kRead) of an absent file fails here (the server
  // answers NotFound in-band), matching local VFS semantics.
  DBPL_RETURN_IF_ERROR(
      shipper_->ReadChunkRpc(file, shard, 0, 0).status());
  return std::unique_ptr<storage::VfsFile>(
      new RemoteFile(shipper_, file, shard));
}

bool RemoteShipper::RemoteVfs::Exists(const std::string& path) const {
  ShipFile file = ShipFile::kCheckpoint;
  int shard = 0;
  if (!shipper_->ParsePath(path, &file, &shard).ok()) return false;
  // Absent file or dead transport both read as "not there yet"; the
  // follower retries on its next poll either way.
  return shipper_->ReadChunkRpc(file, shard, 0, 0).ok();
}

Status RemoteShipper::RemoteVfs::Remove(const std::string&) {
  return Status::Unsupported("the remote VFS is read-only");
}
Status RemoteShipper::RemoteVfs::Rename(const std::string&,
                                        const std::string&) {
  return Status::Unsupported("the remote VFS is read-only");
}
Status RemoteShipper::RemoteVfs::CreateDir(const std::string&) {
  return Status::Unsupported("the remote VFS is read-only");
}
Result<std::vector<std::string>> RemoteShipper::RemoteVfs::ListDir(
    const std::string&) const {
  return Status::Unsupported("the remote VFS is read-only");
}

// ---------------------------------------------------------------------------
// RemoteShipper
// ---------------------------------------------------------------------------

Result<std::unique_ptr<RemoteShipper>> RemoteShipper::Connect(
    const std::string& host, uint16_t port, const Options& options) {
  DBPL_ASSIGN_OR_RETURN(Client client, Client::Connect(host, port));
  return Bootstrap(std::move(client), options, host, port,
                   /*can_redial=*/true);
}

Result<std::unique_ptr<RemoteShipper>> RemoteShipper::Connect(
    const std::string& host, uint16_t port) {
  return Connect(host, port, Options());
}

Result<std::unique_ptr<RemoteShipper>> RemoteShipper::Adopt(
    Socket sock, const Options& options) {
  return Bootstrap(Client(std::move(sock)), options, /*host=*/"", /*port=*/0,
                   /*can_redial=*/false);
}

Result<std::unique_ptr<RemoteShipper>> RemoteShipper::Adopt(Socket sock) {
  return Adopt(std::move(sock), Options());
}

Result<std::unique_ptr<RemoteShipper>> RemoteShipper::Bootstrap(
    Client client, const Options& options, std::string host, uint16_t port,
    bool can_redial) {
  client.set_await_timeout(options.recv_timeout);
  Request req;
  req.op = ReqOp::kShipBounds;
  DBPL_ASSIGN_OR_RETURN(Response resp, client.Call(std::move(req)));
  DBPL_RETURN_IF_ERROR(resp.status);

  std::unique_ptr<RemoteShipper> shipper(
      new RemoteShipper(options, std::move(host), port, can_redial));
  shipper->shard_count_ = static_cast<int>(resp.ship.shards.size());
  shipper->checkpoint_path_ = kCheckpointPath;
  shipper->wal_paths_.reserve(resp.ship.shards.size());
  for (int s = 0; s < shipper->shard_count_; ++s) {
    shipper->wal_paths_.push_back(kWalPathPrefix + std::to_string(s));
  }

  MutexLock lock(&shipper->mu_);
  shipper->client_ = std::move(client);
  // Identity bias on the first connection: reported == raw, so a
  // single-socket follower sees exactly the in-process generations.
  shipper->raw_base_ = resp.ship.generation;
  shipper->gen_base_ = resp.ship.generation;
  shipper->last_reported_ = resp.ship.generation;
  shipper->cached_ = std::move(resp.ship);
  return shipper;
}

storage::Vfs* RemoteShipper::vfs() const { return &remote_vfs_; }

RemoteShipper::ShipState RemoteShipper::ship_bounds() const {
  MutexLock lock(&mu_);
  Result<ShipState> state = FetchBoundsLocked();
  if (state.ok()) return *std::move(state);
  // Transport down: report the last known state. The bounds were true
  // once, so tailing *to* them stays safe; a quiesced follower simply
  // stops advancing until the primary answers again.
  return cached_;
}

Result<RemoteShipper::ShipState> RemoteShipper::FetchBoundsLocked() const {
  Request req;
  req.op = ReqOp::kShipBounds;
  DBPL_ASSIGN_OR_RETURN(Response resp, Rpc(std::move(req)));
  DBPL_RETURN_IF_ERROR(resp.status);
  if (static_cast<int>(resp.ship.shards.size()) != shard_count_) {
    return Status::FailedPrecondition(
        "primary shard count changed from " +
        std::to_string(shard_count_) + " to " +
        std::to_string(resp.ship.shards.size()));
  }
  ShipState state = std::move(resp.ship);
  state.generation = gen_base_ + (state.generation - raw_base_);
  last_reported_ = state.generation;
  cached_ = state;
  bounds_conn_ = conn_;
  return state;
}

Result<Client::Chunk> RemoteShipper::ReadChunkRpc(ShipFile file, int shard,
                                                  uint64_t offset,
                                                  uint64_t length) const {
  MutexLock lock(&mu_);
  return ReadChunkLocked(file, shard, offset, length);
}

Result<Client::Chunk> RemoteShipper::ReadAheadRpc(int shard, uint64_t offset,
                                                  uint64_t length,
                                                  uint64_t* conn) const {
  MutexLock lock(&mu_);
  // Widen only to a bound this connection reported: one learned from
  // an earlier primary incarnation says nothing about this one's bytes.
  const uint64_t durable =
      cached_.shards[static_cast<size_t>(shard)].durable_bytes;
  uint64_t ask = length;
  if (bounds_conn_ == conn_ && offset <= durable &&
      length <= durable - offset) {
    ask = std::min(durable - offset, kMaxReadChunk);
  }
  DBPL_ASSIGN_OR_RETURN(
      Client::Chunk chunk,
      ReadChunkLocked(ShipFile::kWalSegment, shard, offset, ask));
  // A read never survives a reconnect (see Rpc), so the connection
  // now current is the one that answered.
  *conn = conn_;
  return chunk;
}

uint64_t RemoteShipper::connection() const {
  MutexLock lock(&mu_);
  return conn_;
}

Result<Client::Chunk> RemoteShipper::ReadChunkLocked(ShipFile file, int shard,
                                                     uint64_t offset,
                                                     uint64_t length) const {
  Request req;
  req.op = ReqOp::kReadChunk;
  req.file = file;
  req.shard = shard;
  req.offset = offset;
  req.length = length;
  DBPL_ASSIGN_OR_RETURN(Response resp, Rpc(std::move(req)));
  DBPL_RETURN_IF_ERROR(resp.status);
  // The frame limit only bounds the chunk at kMaxFrameBody; a hostile
  // or buggy primary could still answer a small read with megabytes.
  // Callers (RemoteFile) memcpy into buffers sized by `length`, so an
  // over-long chunk must die here, not there.
  if (resp.chunk.size() > length) {
    return Status::Corruption(
        "primary answered a " + std::to_string(length) +
        "-byte chunk read with " + std::to_string(resp.chunk.size()) +
        " bytes");
  }
  Client::Chunk chunk;
  chunk.file_size = resp.file_size;
  chunk.data = std::move(resp.chunk);
  return chunk;
}

Result<Response> RemoteShipper::Rpc(Request req) const {
  ++n_rpcs_;
  std::chrono::milliseconds backoff = options_.backoff_initial;
  for (int attempt = 0;; ++attempt) {
    if (!client_.valid()) {
      if (!can_redial_) {
        return Status::Unavailable(
            "transport down and this shipper cannot redial");
      }
      if (attempt > options_.max_reconnect_attempts) {
        return Status::Unavailable(
            "primary unreachable after " +
            std::to_string(options_.max_reconnect_attempts) +
            " reconnect attempts");
      }
      if (attempt > 0) {
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, options_.backoff_max);
      }
      Status rc = Reconnect();
      if (!rc.ok()) {
        ++n_transport_errors_;
        // A geometry refusal is permanent — redialing the same primary
        // can only refuse again, so surfacing kUnavailable instead
        // would mask the one error the docs promise (§9.3).
        if (rc.code() == StatusCode::kFailedPrecondition) return rc;
        continue;
      }
      ++n_reconnects_;
      // A chunk read must NOT be replayed across a reconnect: the
      // primary may have restarted and rewritten the file, so stitching
      // a post-reconnect chunk into a ReadAt loop begun before it could
      // splice bytes from two primary incarnations into one logical
      // read. Fail the read instead — the replica resyncs, re-polls
      // bounds, and observes the generation Reconnect() just bumped.
      if (req.op == ReqOp::kReadChunk) {
        return Status::Unavailable(
            "transport re-established mid-read; the requested range is "
            "no longer trusted");
      }
    }
    // Only kShipBounds is re-sent after a reconnect: it is a
    // self-contained fetch, and Reconnect() already re-biased the
    // generation it will report, so the replay cannot leak pre-restart
    // state.
    Result<Response> resp = client_.Call(req);
    if (resp.ok()) return resp;
    ++n_transport_errors_;
    client_ = Client(Socket());
  }
}

Status RemoteShipper::Reconnect() const {
  DBPL_ASSIGN_OR_RETURN(Client fresh, Client::Connect(host_, port_));
  fresh.set_await_timeout(options_.recv_timeout);
  Request req;
  req.op = ReqOp::kShipBounds;
  DBPL_ASSIGN_OR_RETURN(Response resp, fresh.Call(std::move(req)));
  DBPL_RETURN_IF_ERROR(resp.status);
  if (static_cast<int>(resp.ship.shards.size()) != shard_count_) {
    // A primary reopened with different shard geometry is a different
    // database as far as this shipper is concerned; refuse it.
    return Status::FailedPrecondition(
        "reconnected primary has " +
        std::to_string(resp.ship.shards.size()) + " shards, expected " +
        std::to_string(shard_count_));
  }
  client_ = std::move(fresh);
  ++conn_;
  // Offsets learned before the reconnect cannot be trusted (the
  // primary may have restarted and rewritten its segments), so jump
  // the bias past everything already reported: the next ship_bounds()
  // shows a new generation and the follower re-bootstraps.
  gen_base_ = last_reported_ + 1;
  raw_base_ = resp.ship.generation;
  return Status::OK();
}

RemoteShipper::Stats RemoteShipper::stats() const {
  MutexLock lock(&mu_);
  Stats out;
  out.rpcs = n_rpcs_;
  out.transport_errors = n_transport_errors_;
  out.reconnects = n_reconnects_;
  return out;
}

}  // namespace dbpl::serve
