#ifndef DBPL_SERVE_REMOTE_SHIPPER_H_
#define DBPL_SERVE_REMOTE_SHIPPER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "persist/wal_database.h"
#include "serve/client.h"
#include "serve/socket.h"
#include "storage/vfs.h"

namespace dbpl::serve {

/// persist::WalShipper over the dbpl-serve wire protocol: the network
/// half of WAL shipping (DESIGN.md §9.3).
///
/// The WalShipper seam is deliberately VFS-shaped — a follower asks
/// the primary only for *bounds* (`ship_bounds()`) and reads the
/// checkpoint/segment bytes itself through `vfs()`. A RemoteShipper
/// therefore needs exactly two wire ops: kShipBounds (the state) and
/// kReadChunk (ranged reads of the shipping files, ≤ kMaxReadChunk per
/// round trip). Its inner remote VFS resolves the synthetic paths
/// `remote://checkpoint` and `remote://wal.<s>` back into chunked RPC
/// reads, so an **unmodified** persist::Replica tails a primary across
/// a real socket through exactly the code path the in-process crash
/// matrix proves.
///
/// ## Read-ahead
///
/// LogReader reads each WAL record as a header and then a body. So
/// that these do not cost a round trip each, every open WAL segment
/// keeps one read-ahead window: a read the window cannot serve fetches
/// min(durable_bytes − offset, kMaxReadChunk) bytes in one kReadChunk,
/// where durable_bytes is the shard's bound from the last ship_bounds()
/// answered on the current connection, so no byte the primary has not
/// made durable is buffered. The window is forward-only and
/// consume-once (a read behind the consumed position, or not wholly
/// inside the window, drops it and goes to the wire), it is discarded
/// unused once a reconnect has happened since it was filled, and it
/// holds at most kMaxReadChunk bytes, so a follower buffers at most
/// one chunk per shard. Reads past the bound, checkpoint reads and the
/// Open/Exists/Size probes ask for exactly what they need.
///
/// ## Failure mapping
///
/// Transport trouble must surface as states Replica already knows how
/// to survive:
///
///  * An RPC that keeps failing after reconnect attempts makes reads
///    fail (⇒ Replica resyncs) while `ship_bounds()` returns the last
///    known state (⇒ a quiesced follower simply makes no progress).
///  * A chunk read whose transport breaks is never replayed across a
///    reconnect — it fails with kUnavailable even once redialing
///    succeeds, so a multi-chunk ReadAt can never splice bytes from
///    two primary incarnations into one logical read. Only
///    kShipBounds replays (a self-contained fetch, reported under the
///    already-bumped generation). A chunk longer than requested is
///    rejected as Corruption before any caller copies it.
///  * Every successful *re*connect biases the reported generation to
///    `last reported + 1`: a restarted primary resets its in-memory
///    generation counter, so offsets from before the reconnect cannot
///    be trusted — the bump forces the follower down its re-bootstrap
///    path, which is always safe (the checkpoint is an atomically
///    renamed durable prefix).
///
/// Reconnection applies only to shippers made with Connect; one made
/// with Adopt (an un-redialable socket, e.g. a socketpair end) fails
/// its RPCs permanently once the transport breaks, which is what the
/// crash-matrix tests want.
///
/// Thread-safe: one internal mutex serializes every RPC (the mutex is
/// unranked — it is a leaf that only performs socket I/O, never
/// touching the database stack, and is taken under Replica::mu_).
class RemoteShipper : public persist::WalShipper {
 public:
  struct Options {
    /// Receive deadline per RPC: a primary that stalls mid-frame
    /// surfaces kDeadlineExceeded instead of hanging the follower.
    std::chrono::milliseconds recv_timeout{5000};
    /// Reconnect attempts per failing RPC before giving up on it.
    int max_reconnect_attempts = 5;
    /// Exponential backoff between reconnect attempts.
    std::chrono::milliseconds backoff_initial{10};
    std::chrono::milliseconds backoff_max{1000};
  };

  /// Dials the primary and learns its shard geometry (one kShipBounds
  /// round trip). Fails if the primary is unreachable or the handshake
  /// errs; once constructed, later transport failures are absorbed by
  /// the reconnect/backoff loop instead.
  static Result<std::unique_ptr<RemoteShipper>> Connect(
      const std::string& host, uint16_t port, const Options& options);
  static Result<std::unique_ptr<RemoteShipper>> Connect(
      const std::string& host, uint16_t port);

  /// Wraps an already-connected stream (e.g. a socketpair end adopted
  /// by a Server). No redial: a broken transport is permanent.
  static Result<std::unique_ptr<RemoteShipper>> Adopt(
      Socket sock, const Options& options);
  static Result<std::unique_ptr<RemoteShipper>> Adopt(Socket sock);

  RemoteShipper(const RemoteShipper&) = delete;
  RemoteShipper& operator=(const RemoteShipper&) = delete;

  // WalShipper:
  ShipState ship_bounds() const override;
  int shard_count() const override { return shard_count_; }
  storage::Vfs* vfs() const override;
  const std::string& wal_path(int shard) const override {
    return wal_paths_[static_cast<size_t>(shard)];
  }
  const std::string& checkpoint_path() const override {
    return checkpoint_path_;
  }

  /// Transport-level counters (monotone since construction).
  struct Stats {
    uint64_t rpcs = 0;
    uint64_t transport_errors = 0;
    uint64_t reconnects = 0;
  };
  Stats stats() const;

 private:
  /// The follower-side view of the primary's files: Open(kRead) /
  /// Exists / ReadAt / Size become kReadChunk RPCs; everything else is
  /// Unsupported (a follower never writes through the seam).
  class RemoteVfs : public storage::Vfs {
   public:
    explicit RemoteVfs(RemoteShipper* shipper) : shipper_(shipper) {}
    Result<std::unique_ptr<storage::VfsFile>> Open(
        const std::string& path, storage::OpenMode mode) override;
    bool Exists(const std::string& path) const override;
    Status Remove(const std::string& path) override;
    Status Rename(const std::string& from, const std::string& to) override;
    Status CreateDir(const std::string& path) override;
    Result<std::vector<std::string>> ListDir(
        const std::string& path) const override;

   private:
    RemoteShipper* const shipper_;
  };

  class RemoteFile;

  RemoteShipper(Options options, std::string host, uint16_t port,
                bool can_redial)
      : options_(options),
        host_(std::move(host)),
        port_(port),
        can_redial_(can_redial),
        remote_vfs_(this) {}

  /// Shared tail of Connect/Adopt: handshakes (one kShipBounds round
  /// trip) to learn the geometry and seeds the generation bias.
  static Result<std::unique_ptr<RemoteShipper>> Bootstrap(
      Client client, const Options& options, std::string host, uint16_t port,
      bool can_redial);

  /// Resolves a synthetic remote path to (file kind, shard); non-OK
  /// for paths this shipper never issued.
  Status ParsePath(const std::string& path, ShipFile* file,
                   int* shard) const;

  /// One locked kReadChunk round trip (the building block RemoteFile
  /// and Exists run on). In-band server errors surface as the call's
  /// own status.
  Result<Client::Chunk> ReadChunkRpc(ShipFile file, int shard,
                                     uint64_t offset, uint64_t length) const;
  /// The read-ahead fill for a read of `length` ≤ kMaxReadChunk bytes
  /// at `offset` of WAL segment `shard`. When the bounds last fetched
  /// on the current connection put the whole read within the shard's
  /// `durable_bytes`, it asks for min(durable − offset, kMaxReadChunk)
  /// bytes; otherwise for exactly `length`. Reports the connection
  /// that answered.
  Result<Client::Chunk> ReadAheadRpc(int shard, uint64_t offset,
                                     uint64_t length, uint64_t* conn) const;
  /// ReadChunkRpc's body, for callers already holding mu_.
  Result<Client::Chunk> ReadChunkLocked(ShipFile file, int shard,
                                        uint64_t offset, uint64_t length) const
      DBPL_REQUIRES(mu_);
  /// The current connection's number (see conn_).
  uint64_t connection() const;

  /// One RPC with reconnect/backoff on transport failure. In-band
  /// errors (Response::status) are returned to the caller untouched —
  /// they are the server speaking, not the transport failing.
  Result<Response> Rpc(Request req) const DBPL_REQUIRES(mu_);
  /// Drops the current connection and dials + re-handshakes a new one,
  /// applying the generation bias. Non-OK when dialing fails or the
  /// primary came back with a different shard geometry.
  Status Reconnect() const DBPL_REQUIRES(mu_);
  /// A kShipBounds RPC (no reconnect) updating the cache + bias.
  Result<ShipState> FetchBoundsLocked() const DBPL_REQUIRES(mu_);

  const Options options_;
  const std::string host_;
  const uint16_t port_;
  const bool can_redial_;

  /// Geometry and paths: fixed at Connect/Adopt (the WalShipper
  /// contract makes them stable for the shipper's lifetime).
  int shard_count_ = 0;
  std::string checkpoint_path_;
  std::vector<std::string> wal_paths_;

  mutable RemoteVfs remote_vfs_;

  /// Serializes all RPCs and guards the connection + cached state.
  /// Unranked: a leaf below the whole stack (see class comment).
  mutable dbpl::Mutex mu_;
  mutable Client client_ DBPL_GUARDED_BY(mu_){Socket()};
  /// Generation bias: reported = gen_base_ + (raw - raw_base_), with
  /// gen_base_ jumping to last_reported_ + 1 at every reconnect.
  mutable uint64_t gen_base_ DBPL_GUARDED_BY(mu_) = 0;
  mutable uint64_t raw_base_ DBPL_GUARDED_BY(mu_) = 0;
  mutable uint64_t last_reported_ DBPL_GUARDED_BY(mu_) = 0;
  /// Last successfully fetched (biased) state, returned when the
  /// transport is down.
  mutable ShipState cached_ DBPL_GUARDED_BY(mu_);
  /// Connection number: bumped by every successful Reconnect(). A
  /// read-ahead window records the connection that filled it, and
  /// bounds_conn_ the one cached_ was fetched on.
  mutable uint64_t conn_ DBPL_GUARDED_BY(mu_) = 0;
  mutable uint64_t bounds_conn_ DBPL_GUARDED_BY(mu_) = 0;
  mutable uint64_t n_rpcs_ DBPL_GUARDED_BY(mu_) = 0;
  mutable uint64_t n_transport_errors_ DBPL_GUARDED_BY(mu_) = 0;
  mutable uint64_t n_reconnects_ DBPL_GUARDED_BY(mu_) = 0;
};

}  // namespace dbpl::serve

#endif  // DBPL_SERVE_REMOTE_SHIPPER_H_
