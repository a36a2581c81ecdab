#ifndef DBPL_PERSIST_WAL_DATABASE_H_
#define DBPL_PERSIST_WAL_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "dyndb/database.h"
#include "dyndb/dynamic.h"
#include "persist/database_io.h"
#include "persist/wal.h"
#include "storage/log.h"
#include "storage/vfs.h"

namespace dbpl::persist {

/// When redo records become durable.
struct CommitPolicy {
  /// Append a commit marker after every n observed mutations *per
  /// shard* (group commit: all n records become durable under one
  /// marker and, with `sync`, one fsync barrier). 1 = commit every
  /// mutation. Must be >= 1.
  uint64_t every_n = 1;
  /// Fsync at each commit marker. Turning this off trades the
  /// durability of the last few commits at power loss for throughput —
  /// recovery still never yields a torn or uncommitted state, exactly
  /// like a `commitlog_sync: periodic` setting.
  bool sync = true;
};

/// Construction-time knobs for a WalDatabase.
struct WalOptions {
  CommitPolicy commit{};
  /// Writer shards (dyndb::DatabaseOptions::shards): each shard gets
  /// its own WAL segment (`wal.<s>.log`) with its own append mutex, so
  /// writers to different shards never contend on the log either.
  /// 1 keeps the classic single `wal.log`. 0 (the default) adopts the
  /// shard count recorded in the directory's checkpoint — or, lacking
  /// one, the count of `wal.<s>.log` segments present — falling back
  /// to 1 for a fresh directory. A non-zero value must match what the
  /// directory holds (kFailedPrecondition otherwise).
  int shards = 0;
};

/// What `WalDatabase::Open` found while recovering (aggregated over
/// all shard segments).
struct WalRecoveryStats {
  /// A checkpoint file existed and was loaded.
  bool had_checkpoint = false;
  /// Entries restored from the checkpoint (before any replay).
  uint64_t checkpoint_entries = 0;
  /// Committed redo records re-applied from the log.
  uint64_t replayed_inserts = 0;
  uint64_t replayed_extents = 0;
  /// Committed records skipped because the checkpoint already covered
  /// them (a crash between checkpoint save and log rotation leaves
  /// such records behind; id-carrying records make the overlap safe).
  uint64_t skipped_records = 0;
  /// Records after the last commit marker, discarded at recovery.
  uint64_t uncommitted_dropped = 0;
  /// True when any segment ended in a damaged/incomplete frame (a torn
  /// append) rather than a clean end of file — surfaced from
  /// storage::LogReader so callers can distinguish "clean shutdown"
  /// from "crashed mid-append" (both recover to a committed prefix).
  bool corrupt_tail = false;
};

/// The shipping seam between a WAL primary and its replicas: the
/// minimal, read-only contract a follower needs to tail the primary's
/// log safely (persist::Replica is the in-process consumer; a network
/// front-end can proxy the same interface across machines).
///
/// The seam deliberately exposes *files plus bounds*, not records: the
/// follower reads the checkpoint and the per-shard log segments
/// through the VFS itself, and the primary only tells it how far those
/// bytes may be trusted. `ship_bounds()` returns a consistent
/// `ShipState` taken while rotations are excluded:
///
///  * `generation` — bumped at every log rotation (one rotation covers
///    all shards). A follower that observes a new generation must
///    re-bootstrap (checkpoint + every segment from offset 0); byte
///    offsets from an older generation are meaningless in the rotated
///    segments.
///  * `shards[s].durable_bytes` — the prefix of segment `s` covered by
///    a *synced* commit marker. Everything at or below this offset is
///    committed, frame-aligned, immutable and crash-durable; bytes
///    beyond it may be uncommitted, torn, or vanish at power loss, so
///    a follower that replicated them could diverge from a recovered
///    primary.
///  * `shards[s].epoch` — the shard-`s` database epoch the durable
///    prefix of segment `s` reproduces (dyndb per-shard epochs; their
///    sum approximates the composite epoch, which is how replication
///    lag is measured and bounded).
///
/// Thread-safe; per-shard values are monotone within a generation.
class WalShipper {
 public:
  /// The shippable prefix of one shard's WAL segment.
  struct Bounds {
    uint64_t durable_bytes = 0;
    uint64_t epoch = 0;
  };
  /// One consistent sample of the whole shippable state.
  struct ShipState {
    uint64_t generation = 0;
    std::vector<Bounds> shards;

    /// Sum of the per-shard durable epochs (a lower bound on the
    /// composite epoch the durable prefixes reproduce).
    uint64_t epoch() const {
      uint64_t total = 0;
      for (const Bounds& b : shards) total += b.epoch;
      return total;
    }
  };

  virtual ~WalShipper() = default;

  /// A consistent snapshot of the shippable state (one entry per
  /// shard; the vector's size is `shard_count()` and never changes).
  virtual ShipState ship_bounds() const = 0;

  /// Shard geometry. Stable for the lifetime of the shipper.
  virtual int shard_count() const = 0;

  /// Where the segments and checkpoint live. Stable for the lifetime
  /// of the shipper; the Vfs must outlive every follower.
  virtual storage::Vfs* vfs() const = 0;
  virtual const std::string& wal_path(int shard) const = 0;
  virtual const std::string& checkpoint_path() const = 0;
};

/// Applies one committed WAL batch to `db` in log order, idempotently:
/// insert records whose id `db` already covers are skipped (`stats
/// ->skipped_records`), an id beyond the next expected sequence of its
/// shard is a Corruption (a gap in the shipped history), and
/// re-registering an existing extent is a skip. Shared by WalDatabase
/// recovery and Replica replay, so a follower converges through
/// exactly the code path recovery is tested under. Clears `*batch` on
/// success.
Status ApplyWalBatch(dyndb::Database* db, std::vector<WalRecord>* batch,
                     WalRecoveryStats* stats);

/// Applies a decoded checkpoint to `db` incrementally: extents `db`
/// already has are skips (`stats->skipped_records`), and per shard only
/// the entries past `db`'s shard size are inserted. Any complete
/// checkpoint of one history is, per shard, an insertion-order prefix
/// of it, so ids align by construction. Shared by `LoadCheckpoint` (on
/// an empty database) and Replica bootstrap. `image->shards` must equal
/// `db->shards()`; entries are moved out of `*image`.
Status ApplyCheckpoint(dyndb::Database* db, CheckpointImage* image,
                       WalRecoveryStats* stats);

/// Write-ahead-log durability for dyndb::Database: persistence as an
/// *incremental* property of the values written, not an O(database)
/// snapshot rewrite per save (persist::SaveSnapshot).
///
/// A WalDatabase owns a dyndb::Database and one storage::LogWriter per
/// writer shard. It installs the database's write observer, so every
/// Insert / RegisterExtent — whether made through the convenience
/// methods here or directly on `db()` — appends one self-describing
/// redo record (serial::EncodeDynamic: the P2 type description travels
/// with the value) to its shard's segment *before* the mutation is
/// applied. A failed append vetoes the mutation: the writer rolls
/// back, so the in-memory database can never run ahead of (or diverge
/// from) its log. Commit markers follow the CommitPolicy per shard;
/// everything between two markers is one atomic group at recovery.
///
/// ## Files
///
///   <dir>/wal.log         — the single segment when shards == 1
///   <dir>/wal.<s>.log     — per-shard CRC-framed redo segments (K > 1)
///   <dir>/checkpoint.dbpl — last checkpoint (SaveCheckpoint format,
///                           v2 with shard geometry when K > 1)
///
/// ## Group commit
///
/// Appends and markers serialize per shard on that shard's log mutex —
/// writers to different shards never contend. Durability is a
/// *cross-shard* barrier: a group-sync coordinator elects one caller
/// as leader, which fsyncs every segment with unsynced markers while
/// concurrent committers piggyback on that one barrier. One fsync
/// round therefore covers all shards' outstanding commit markers. The
/// barrier runs after the mutation is published (never under a log or
/// writer mutex), so `Insert`/`RegisterExtent`/`Commit` return only
/// once their group is durable (with `CommitPolicy::sync`), while
/// mutations made directly on `db()` become durable at the next
/// barrier any caller runs.
///
/// ## Checkpointing
///
/// `Checkpoint()` pins a snapshot no appended record is missing from,
/// saves it (entries + extent table) atomically through the VFS, then
/// truncates every segment and resets the writers. Readers stay
/// lock-free throughout; writers queue on the segment mutexes for the
/// duration of the save. A crash anywhere in the protocol is safe: the
/// checkpoint replaces its predecessor atomically, and a segment that
/// outlives its checkpoint only holds records whose ids the checkpoint
/// already covers — recovery skips them.
///
/// ## Recovery
///
/// `Open` = load the last good checkpoint (if any), replay each
/// segment's committed suffix onto it, drop everything after each
/// segment's last commit marker (including torn tails, which LogReader
/// detects by CRC). Shard segments are independent histories — inserts
/// never cross shards and extent registrations are logged exactly once
/// (in shard 0's segment) and re-applied idempotently — so replay
/// order across segments cannot change the result. When any segment
/// ended in dropped bytes, Open takes an immediate checkpoint and
/// rotates, so new records are never appended behind bytes the reader
/// cannot pass.
///
/// ## Failure handling
///
/// A log I/O failure inside the observer vetoes the mutation (the
/// database rolls it back and the caller gets the error) and poisons
/// the WAL: the sticky `wal_status()` then vetoes every later write,
/// so memory and log stay in lockstep at the last consistent point. A
/// successful `Checkpoint()` — which persists the *entire* in-memory
/// state and rotates to clean segments — clears the condition.
///
/// ## Shipping
///
/// A WalDatabase is itself a WalShipper: `ship_bounds()` publishes the
/// generation plus per-shard (durable-bytes, epoch) bounds that let a
/// persist::Replica tail every segment without ever reading past what
/// a crash could take back. Attach followers with `shipper()`.
///
/// Thread-safety: all methods are safe under any number of concurrent
/// readers and writers; appends serialize per shard in database writer
/// order. Reads go through `db()` and are lock-free after snapshot
/// acquisition, exactly as without a WAL.
class WalDatabase : public WalShipper {
 public:
  /// Opens (creating if necessary) the WAL-backed database in `dir`,
  /// running recovery. `vfs` must outlive the returned object.
  static Result<std::unique_ptr<WalDatabase>> Open(storage::Vfs* vfs,
                                                   const std::string& dir,
                                                   const WalOptions& options);
  static Result<std::unique_ptr<WalDatabase>> Open(storage::Vfs* vfs,
                                                   const std::string& dir,
                                                   CommitPolicy policy = {}) {
    return Open(vfs, dir, WalOptions{policy, 0});
  }

  WalDatabase(const WalDatabase&) = delete;
  WalDatabase& operator=(const WalDatabase&) = delete;

  /// Flushes the tail batches (best effort) and detaches from the
  /// database observer.
  ~WalDatabase();

  /// The underlying database. Mutations made directly on it are
  /// logged through the write observer, same as the convenience
  /// methods below — a WAL append failure fails the mutation either
  /// way; only durability timing differs (direct writes ride the next
  /// group-sync barrier instead of running one).
  dyndb::Database& db() { return db_; }
  const dyndb::Database& db() const { return db_; }

  /// Inserts and logs one entry. If the redo append fails — or the
  /// WAL is already poisoned — the mutation is *vetoed*: the insert is
  /// rolled back as if never made, and the append's error is returned.
  /// A failure of the later durability barrier also returns non-OK; in
  /// that case the entry exists in memory but its durability is
  /// unresolved, and the WAL is poisoned until the next successful
  /// Checkpoint() (which persists the in-memory state wholesale).
  Result<dyndb::Database::EntryId> Insert(dyndb::Dynamic d);
  Result<dyndb::Database::EntryId> InsertValue(core::Value v) {
    return Insert(dyndb::MakeDynamic(std::move(v)));
  }

  /// Registers and logs a maintained extent.
  Status RegisterExtent(const std::string& name, types::Type t);

  /// Makes everything observed so far durable: appends a commit marker
  /// for any open batch (on every shard) and runs one fsync barrier
  /// over all dirty segments (regardless of CommitPolicy::sync).
  /// No-op when nothing is pending.
  Status Commit() DBPL_EXCLUDES(sync_mu_, status_mu_);

  /// Saves a checkpoint of the current state and rotates every
  /// segment; see the class comment for the protocol. On success the
  /// WAL shrinks to empty and `wal_status()` is reset to OK.
  Status Checkpoint() DBPL_EXCLUDES(meta_mu_, status_mu_);

  /// The sticky status of the logging path: OK, or the first append /
  /// commit failure since the last successful Checkpoint(). While
  /// non-OK, every write through the observer is vetoed.
  Status wal_status() const DBPL_EXCLUDES(status_mu_);

  /// Bytes in the current log generation, summed over all segments.
  uint64_t wal_bytes() const;

  /// Mutations observed since the last commit marker, summed over all
  /// shards.
  uint64_t pending_in_batch() const;

  /// Checkpoints and rotations completed in this process.
  uint64_t checkpoints_taken() const DBPL_EXCLUDES(meta_mu_);

  /// What recovery found when this object was opened.
  const WalRecoveryStats& recovery_stats() const { return recovery_; }

  /// This database as a shipping source for persist::Replica. Valid
  /// for the WalDatabase's lifetime.
  WalShipper* shipper() { return this; }

  // WalShipper:
  WalShipper::ShipState ship_bounds() const override
      DBPL_EXCLUDES(meta_mu_);
  int shard_count() const override { return static_cast<int>(lanes_.size()); }
  storage::Vfs* vfs() const override { return vfs_; }
  const std::string& wal_path(int shard) const override {
    return lanes_[static_cast<size_t>(shard)]->path;
  }
  const std::string& checkpoint_path() const override {
    return checkpoint_path_;
  }

 private:
  /// One writer shard's log lane: its segment, append mutex, and
  /// commit bookkeeping. Heap-allocated for address stability.
  struct Lane {
    /// Serializes every touch of this segment (observer appends,
    /// markers, sync, rotation) and the fields below. Writers enter it
    /// from the observer while holding the database shard's writer
    /// mutex; Checkpoint takes all lanes — never any writer mutex — so
    /// the lock order is acyclic (rank kWalLane, clustered).
    mutable dbpl::Mutex mu{dbpl::LockRank::kWalLane, "wal.lane.mu"};
    /// Segment path; set once during Recover (before the object is
    /// shared) and immutable after, so reads need no lock.
    std::string path;
    std::unique_ptr<storage::LogWriter> writer DBPL_GUARDED_BY(mu);
    uint64_t pending DBPL_GUARDED_BY(mu) = 0;
    /// Markers appended but not yet covered by a sync barrier.
    bool unsynced_commits DBPL_GUARDED_BY(mu) = false;
    /// Shard epoch of the last mutation whose redo record reached this
    /// segment. Checkpoint() waits for the published state to catch up
    /// to it before snapshotting, closing the append-before-publish
    /// window in which a record could sit in the old segment while its
    /// entry is still missing from the snapshot (and would be lost at
    /// rotation).
    uint64_t appended_epoch DBPL_GUARDED_BY(mu) = 0;
    /// Segment prefix covered by a commit marker, and the shard epoch
    /// it encodes.
    uint64_t committed_bytes DBPL_GUARDED_BY(mu) = 0;
    uint64_t committed_epoch DBPL_GUARDED_BY(mu) = 0;
    /// The synced ("shippable") portion of the committed prefix —
    /// together with committed_* and the writer's byte count, the
    /// durable-bounds triple ship_bounds() samples.
    uint64_t durable_bytes DBPL_GUARDED_BY(mu) = 0;
    uint64_t durable_epoch DBPL_GUARDED_BY(mu) = 0;
  };

  WalDatabase(storage::Vfs* vfs, std::string dir, CommitPolicy policy)
      : vfs_(vfs),
        policy_(policy),
        dir_(std::move(dir)),
        checkpoint_path_(dir_ + "/checkpoint.dbpl") {}

  /// Segment path for shard `s` of `k` ("wal.log" when k == 1).
  std::string SegmentPath(int shard, int shards) const;

  /// Load checkpoint + replay the committed segment suffixes into db_.
  /// `requested_shards` is WalOptions::shards (0 = adopt what the
  /// directory holds); creates the lanes.
  Status Recover(int requested_shards);
  /// Replays one segment's committed suffix onto db_.
  Status ReplaySegment(int shard);
  /// The write-observer body: check poison, encode, append, maybe
  /// append the shard's commit marker. Returns non-OK to veto. Runs
  /// under the mutated shard's writer mutex; takes that shard's
  /// lane.mu (rank order: shard writer < wal lane).
  Status OnWrite(const dyndb::Database::WriteEvent& event);
  /// Appends a commit marker to `lane` and stamps it with the next
  /// group-commit sequence.
  Status AppendMarkerLocked(Lane& lane) DBPL_REQUIRES(lane.mu);
  /// Runs (or piggybacks on) a sync barrier covering at least marker
  /// sequence `target`. Never called with any lock held: the barrier
  /// takes sync_mu_, releases it across the fsync loop (which takes
  /// each lane.mu in turn), and re-takes it to publish the result.
  Status GroupSync(uint64_t target) DBPL_EXCLUDES(sync_mu_);
  /// Poison bookkeeping.
  void Poison(const Status& status) DBPL_EXCLUDES(status_mu_);
  Status CheckPoisoned() const DBPL_EXCLUDES(status_mu_);

  storage::Vfs* vfs_;
  const CommitPolicy policy_;
  const std::string dir_;
  const std::string checkpoint_path_;

  dyndb::Database db_;
  WalRecoveryStats recovery_;

  std::vector<std::unique_ptr<Lane>> lanes_;

  /// Serializes checkpoint/rotation against bounds sampling; never
  /// held while a lane performs I/O other than during Checkpoint.
  /// Order: meta_mu_ -> lane.mu (rank kWalMeta < kWalLane).
  mutable dbpl::Mutex meta_mu_{dbpl::LockRank::kWalMeta, "wal.meta_mu_"};
  /// Bumped when a checkpoint lands (the segments are about to rotate,
  /// so byte offsets from before are void — even if the rotation
  /// itself then fails, the generation bump forces followers back to
  /// the durable checkpoint instead of segments in an uncertain
  /// state).
  uint64_t generation_ DBPL_GUARDED_BY(meta_mu_) = 0;
  uint64_t checkpoints_ DBPL_GUARDED_BY(meta_mu_) = 0;

  /// Sticky failure of the logging path. The atomic flag is the
  /// fast-path check; status_mu_ guards the Status itself (a leaf
  /// rank: taken under lanes, the barrier, and meta alike, never the
  /// other way round).
  mutable dbpl::Mutex status_mu_{dbpl::LockRank::kWalStatus,
                                 "wal.status_mu_"};
  std::atomic<bool> poisoned_{false};
  Status wal_status_ DBPL_GUARDED_BY(status_mu_);

  // --- group-commit coordinator ------------------------------------
  /// Monotone sequence stamped on every commit marker (any shard).
  std::atomic<uint64_t> commit_seq_{0};
  /// Guards synced_seq_ / sync_inflight_; never held during I/O (the
  /// leader drops it across the fsync loop; rank kGroupCommit keeps
  /// even a leader that didn't order-correct against the lanes).
  dbpl::Mutex sync_mu_{dbpl::LockRank::kGroupCommit, "wal.sync_mu_"};
  dbpl::CondVar sync_cv_;
  /// Every marker with sequence <= synced_seq_ is fsync-covered.
  uint64_t synced_seq_ DBPL_GUARDED_BY(sync_mu_) = 0;
  bool sync_inflight_ DBPL_GUARDED_BY(sync_mu_) = false;
};

}  // namespace dbpl::persist

#endif  // DBPL_PERSIST_WAL_DATABASE_H_
