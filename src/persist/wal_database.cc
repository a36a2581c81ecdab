#include "persist/wal_database.h"

#include <thread>
#include <utility>
#include <vector>

#include "persist/database_io.h"
#include "persist/wal.h"

namespace dbpl::persist {

using dyndb::Database;
using storage::LogReader;
using storage::LogRecord;
using storage::LogRecordType;
using storage::LogWriter;
using storage::OpenMode;
using storage::VfsFile;

Result<std::unique_ptr<WalDatabase>> WalDatabase::Open(
    storage::Vfs* vfs, const std::string& dir, const WalOptions& options) {
  if (options.commit.every_n == 0) {
    return Status::InvalidArgument("CommitPolicy::every_n must be >= 1");
  }
  if (options.shards < 0 || options.shards > Database::kMaxShards) {
    return Status::InvalidArgument(
        "WalOptions::shards must be in [0, " +
        std::to_string(Database::kMaxShards) + "], got " +
        std::to_string(options.shards));
  }
  DBPL_RETURN_IF_ERROR(vfs->CreateDir(dir));
  std::unique_ptr<WalDatabase> wdb(new WalDatabase(vfs, dir, options.commit));
  DBPL_RETURN_IF_ERROR(wdb->Recover(options.shards));
  // Everything recovery kept is on disk by construction, so the whole
  // recovered state is shippable from the start. (ReplaySegment set
  // each lane's committed_bytes to the end of its replayed prefix.)
  const Database::Snapshot snap = wdb->db_.GetSnapshot();
  for (size_t s = 0; s < wdb->lanes_.size(); ++s) {
    Lane& lane = *wdb->lanes_[s];
    dbpl::MutexLock lock(&lane.mu);
    lane.appended_epoch = snap.shard_epoch(static_cast<int>(s));
    lane.committed_epoch = lane.appended_epoch;
    lane.durable_epoch = lane.appended_epoch;
    lane.durable_bytes = lane.committed_bytes;
    DBPL_ASSIGN_OR_RETURN(lane.writer, LogWriter::Open(vfs, lane.path));
  }
  if (wdb->recovery_.corrupt_tail || wdb->recovery_.uncommitted_dropped > 0) {
    // Some segment ends in bytes recovery ignored. Appending behind
    // them would be disastrous: records after a torn frame are
    // unreachable to the reader, and a future commit marker would
    // retroactively commit the dropped uncommitted records. Repair by
    // checkpointing the recovered state and rotating every segment.
    DBPL_RETURN_IF_ERROR(wdb->Checkpoint());
  }
  // Installed only after recovery: replayed inserts must not re-log
  // themselves (the records are already in the logs they came from).
  wdb->db_.SetWriteObserver([w = wdb.get()](const Database::WriteEvent& ev) {
    return w->OnWrite(ev);
  });
  return wdb;
}

WalDatabase::~WalDatabase() {
  (void)Commit();  // best effort: make the tail batches durable
  db_.SetWriteObserver(nullptr);
}

std::string WalDatabase::SegmentPath(int shard, int shards) const {
  if (shards == 1) return dir_ + "/wal.log";
  return dir_ + "/wal." + std::to_string(shard) + ".log";
}

Status ApplyWalBatch(Database* db, std::vector<WalRecord>* batch,
                     WalRecoveryStats* stats) {
  const int k = db->shards();
  // Only this thread inserts while the batch applies, so one snapshot's
  // shard sizes plus local increments track the next expected sequence.
  const Database::Snapshot snap = db->GetSnapshot();
  std::vector<uint64_t> next(static_cast<size_t>(k));
  for (int s = 0; s < k; ++s) {
    next[static_cast<size_t>(s)] = snap.shard_size(s);
  }
  for (WalRecord& rec : *batch) {
    switch (rec.op) {
      case WalOp::kInsert: {
        const int shard = Database::ShardOfId(rec.id, k);
        const uint64_t seq = Database::SeqOfId(rec.id, k);
        uint64_t& have = next[static_cast<size_t>(shard)];
        if (seq < have) {
          // Already covered by the checkpoint (or by the overlap a
          // crash between checkpoint and rotation leaves behind).
          ++stats->skipped_records;
          break;
        }
        if (seq > have) {
          return Status::Corruption(
              "gap in WAL: expected sequence " + std::to_string(have) +
              " of shard " + std::to_string(shard) + ", found id " +
              std::to_string(rec.id) + " (sequence " + std::to_string(seq) +
              ")");
        }
        DBPL_RETURN_IF_ERROR(db->InsertAt(rec.id, std::move(rec.entry)));
        ++have;
        ++stats->replayed_inserts;
        break;
      }
      case WalOp::kRegisterExtent: {
        Status s =
            db->RegisterExtent(rec.extent_name, std::move(rec.extent_type));
        if (s.ok()) {
          ++stats->replayed_extents;
        } else if (s.code() == StatusCode::kAlreadyExists) {
          ++stats->skipped_records;  // checkpoint had it
        } else {
          return s;
        }
        break;
      }
    }
  }
  batch->clear();
  return Status::OK();
}

Status ApplyCheckpoint(Database* db, CheckpointImage* image,
                       WalRecoveryStats* stats) {
  for (auto& [name, type] : image->extents) {
    Status s = db->RegisterExtent(name, std::move(type));
    if (s.ok()) {
      ++stats->replayed_extents;
    } else if (s.code() == StatusCode::kAlreadyExists) {
      ++stats->skipped_records;
    } else {
      return s;
    }
  }
  const auto k = static_cast<uint64_t>(image->shards);
  const Database::Snapshot snap = db->GetSnapshot();
  for (int s = 0; s < image->shards; ++s) {
    auto& entries = image->entries[static_cast<size_t>(s)];
    for (uint64_t seq = snap.shard_size(s); seq < entries.size(); ++seq) {
      DBPL_RETURN_IF_ERROR(db->InsertAt(seq * k + static_cast<uint64_t>(s),
                                        std::move(entries[seq])));
      ++stats->replayed_inserts;
    }
  }
  return Status::OK();
}

Status WalDatabase::Recover(int requested_shards) {
  int shards = 1;
  if (vfs_->Exists(checkpoint_path_)) {
    DBPL_ASSIGN_OR_RETURN(db_, LoadCheckpoint(vfs_, checkpoint_path_));
    recovery_.had_checkpoint = true;
    recovery_.checkpoint_entries = db_.size();
    shards = db_.shards();
    if (requested_shards != 0 && requested_shards != shards) {
      return Status::FailedPrecondition(
          "WalOptions::shards = " + std::to_string(requested_shards) +
          " does not match the checkpoint in " + dir_ + " (" +
          std::to_string(shards) + " shards)");
    }
  } else {
    // No checkpoint: the segments on disk are the only witness of the
    // directory's shard geometry (a sharded database that crashed
    // before its first checkpoint leaves wal.<s>.log files behind).
    // Empty segments carry no history, so they witness nothing — a
    // crash during Open's lane creation may leave any prefix of them
    // behind, and reopening with an explicit geometry must still work.
    auto has_bytes = [this](const std::string& path) {
      auto file = vfs_->Open(path, storage::OpenMode::kRead);
      if (!file.ok()) return false;
      Result<uint64_t> size = (*file)->Size();
      return size.ok() && *size > 0;
    };
    int widest = 0;  // 1 + highest wal.<s>.log index present
    bool segment_bytes = false;
    for (int s = 0; s < Database::kMaxShards; ++s) {
      const std::string path = dir_ + "/wal." + std::to_string(s) + ".log";
      if (!vfs_->Exists(path)) continue;
      widest = s + 1;
      segment_bytes = segment_bytes || has_bytes(path);
    }
    const bool legacy_bytes =
        vfs_->Exists(dir_ + "/wal.log") && has_bytes(dir_ + "/wal.log");
    if (requested_shards == 0) {
      shards = widest > 1 ? widest : 1;
    } else {
      shards = requested_shards;
      if ((shards == 1 && segment_bytes) || (shards > 1 && legacy_bytes) ||
          (shards > 1 && segment_bytes && widest != shards)) {
        return Status::FailedPrecondition(
            "WalOptions::shards = " + std::to_string(shards) +
            " does not match the WAL segments in " + dir_);
      }
    }
    if (shards > 1) db_ = Database(dyndb::DatabaseOptions{shards});
  }
  lanes_.clear();
  lanes_.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    auto lane = std::make_unique<Lane>();
    lane->path = SegmentPath(s, shards);
    lanes_.push_back(std::move(lane));
  }
  // Segments are independent histories (inserts never cross shards;
  // registrations live only in shard 0 and re-apply idempotently), so
  // replay order across them cannot change the result.
  for (int s = 0; s < shards; ++s) {
    DBPL_RETURN_IF_ERROR(ReplaySegment(s));
  }
  return Status::OK();
}

Status WalDatabase::ReplaySegment(int shard) {
  Lane& lane = *lanes_[static_cast<size_t>(shard)];
  if (!vfs_->Exists(lane.path)) return Status::OK();
  DBPL_ASSIGN_OR_RETURN(std::unique_ptr<LogReader> reader,
                        LogReader::Open(vfs_, lane.path));
  std::vector<WalRecord> batch;
  LogRecord rec;
  while (true) {
    DBPL_ASSIGN_OR_RETURN(bool has, reader->Next(&rec));
    if (!has) break;
    if (rec.type == LogRecordType::kCommit) {
      DBPL_RETURN_IF_ERROR(ApplyWalBatch(&db_, &batch, &recovery_));
      // The cursor sits just past the marker frame: the end of the
      // committed prefix so far. (Dropped uncommitted/torn bytes
      // follow the *last* marker, so this lands on the final value.)
      // Locked per assignment, never across the batch apply — that
      // re-enters the database writer path, which ranks *below* the
      // lane (shard writer < wal lane).
      {
        dbpl::MutexLock lock(&lane.mu);
        lane.committed_bytes = reader->offset();
      }
      continue;
    }
    DBPL_ASSIGN_OR_RETURN(WalRecord redo, DecodeWalRecord(rec));
    batch.push_back(std::move(redo));
  }
  recovery_.uncommitted_dropped += batch.size();
  if (reader->saw_corrupt_tail()) recovery_.corrupt_tail = true;
  return Status::OK();
}

Status WalDatabase::OnWrite(const Database::WriteEvent& event) {
  // A non-OK return vetoes the mutation: the database rolls it back, so
  // after any failure here memory and log agree at the last consistent
  // point — and stay there, because the poison vetoes everything until
  // Checkpoint() persists the state wholesale and rotates.
  DBPL_RETURN_IF_ERROR(CheckPoisoned());
  WalRecord redo;
  switch (event.kind) {
    case Database::WriteEvent::Kind::kInsert:
      redo.op = WalOp::kInsert;
      redo.id = event.id;
      redo.entry = *event.entry;
      break;
    case Database::WriteEvent::Kind::kRegisterExtent:
      redo.op = WalOp::kRegisterExtent;
      redo.extent_name = *event.extent_name;
      redo.extent_type = *event.extent_type;
      break;
  }
  LogRecord framed = EncodeWalRecord(redo);

  Lane& lane = *lanes_[static_cast<size_t>(event.shard)];
  dbpl::MutexLock lock(&lane.mu);
  if (lane.writer == nullptr) {
    // Only possible after a failed rotation already poisoned the WAL;
    // don't bury the first error under new noise.
    return CheckPoisoned();
  }
  Status appended = lane.writer->Append(framed);
  if (!appended.ok()) {
    Poison(appended);
    return appended;
  }
  lane.appended_epoch = event.epoch;
  ++lane.pending;
  if (lane.pending >= policy_.every_n) {
    Status committed = AppendMarkerLocked(lane);
    if (!committed.ok()) {
      // The record itself stays behind, uncommitted: recovery drops it,
      // matching the rolled-back mutation.
      Poison(committed);
      return committed;
    }
  }
  return Status::OK();
}

Status WalDatabase::AppendMarkerLocked(Lane& lane) {
  DBPL_RETURN_IF_ERROR(
      lane.writer->Append(LogRecord{LogRecordType::kCommit, "", ""}));
  lane.pending = 0;
  lane.committed_bytes = lane.writer->bytes_written();
  lane.committed_epoch = lane.appended_epoch;
  lane.unsynced_commits = true;
  // Stamp the marker into the group-commit sequence; the fetch_add runs
  // under lane.mu, so a GroupSync goal that covers this sequence was
  // read after this critical section became visible.
  commit_seq_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status WalDatabase::GroupSync(uint64_t target) {
  sync_mu_.Lock();
  while (synced_seq_ < target) {
    if (sync_inflight_) {
      // Piggyback: someone else's barrier is running; it either covers
      // us or we retry as leader when it finishes.
      sync_cv_.Wait(sync_mu_);
      continue;
    }
    sync_inflight_ = true;
    const uint64_t goal = commit_seq_.load(std::memory_order_acquire);
    sync_mu_.Unlock();
    Status synced = Status::OK();
    for (auto& lane_ptr : lanes_) {
      Lane& lane = *lane_ptr;
      dbpl::MutexLock lane_lock(&lane.mu);
      if (!lane.unsynced_commits || lane.writer == nullptr) continue;
      synced = lane.writer->Sync();
      if (!synced.ok()) break;
      lane.unsynced_commits = false;
      lane.durable_bytes = lane.committed_bytes;
      lane.durable_epoch = lane.committed_epoch;
    }
    sync_mu_.Lock();
    sync_inflight_ = false;
    if (synced.ok() && goal > synced_seq_) synced_seq_ = goal;
    sync_cv_.NotifyAll();
    if (!synced.ok()) {
      sync_mu_.Unlock();
      Poison(synced);
      return synced;
    }
  }
  sync_mu_.Unlock();
  return Status::OK();
}

Result<Database::EntryId> WalDatabase::Insert(dyndb::Dynamic d) {
  DBPL_ASSIGN_OR_RETURN(Database::EntryId id, db_.Insert(std::move(d)));
  if (policy_.sync) {
    // One barrier covering every marker appended so far — including
    // this insert's, if it closed a batch (the observer ran on this
    // thread, so commit_seq_ already counts it). Runs after
    // publication, under no database or lane mutex.
    DBPL_RETURN_IF_ERROR(
        GroupSync(commit_seq_.load(std::memory_order_acquire)));
  }
  return id;
}

Status WalDatabase::RegisterExtent(const std::string& name, types::Type t) {
  DBPL_RETURN_IF_ERROR(db_.RegisterExtent(name, std::move(t)));
  if (policy_.sync) {
    DBPL_RETURN_IF_ERROR(
        GroupSync(commit_seq_.load(std::memory_order_acquire)));
  }
  return Status::OK();
}

Status WalDatabase::Commit() {
  DBPL_RETURN_IF_ERROR(CheckPoisoned());
  bool any_unsynced = false;
  for (auto& lane_ptr : lanes_) {
    Lane& lane = *lane_ptr;
    dbpl::MutexLock lock(&lane.mu);
    if (lane.writer == nullptr) continue;
    if (lane.pending > 0) {
      Status committed = AppendMarkerLocked(lane);
      if (!committed.ok()) {
        Poison(committed);
        return committed;
      }
    }
    if (lane.unsynced_commits) any_unsynced = true;
  }
  if (!any_unsynced) return Status::OK();  // nothing to make durable
  return GroupSync(commit_seq_.load(std::memory_order_acquire));
}

// The analysis cannot follow the dynamic vector of lane locks this
// holds across the save/rotate protocol, so the body is exempted; the
// lock-rank checker verifies every acquisition (meta < lane < state),
// and the crash matrix + wal/tsan presets exercise the protocol.
Status WalDatabase::Checkpoint() DBPL_NO_THREAD_SAFETY_ANALYSIS {
  dbpl::MutexLock meta(&meta_mu_);
  // Holding every lane keeps the snapshot and the rotation atomic with
  // respect to appends: a writer still inside the observer is queued on
  // its lane before its record lands, so its record and entry both land
  // after the rotation. A writer that already *left* the observer may
  // not have published yet — its record is in the old segment but its
  // entry could still be missing from a snapshot taken right now, and
  // rotating on such a snapshot would lose the record without
  // checkpointing the entry. Wait for publication to catch up with the
  // segments (the window is a few instructions; publication takes only
  // the tiny per-shard publish mutex, and the post-publication sync
  // barrier never touches a snapshot, so this cannot deadlock).
  // Readers never block — the snapshot is immutable.
  std::vector<std::unique_lock<dbpl::Mutex>> lanes;
  lanes.reserve(lanes_.size());
  for (auto& lane : lanes_) lanes.emplace_back(lane->mu);
  const auto caught_up = [&](const Database::Snapshot& s) {
    for (size_t i = 0; i < lanes_.size(); ++i) {
      if (s.shard_epoch(static_cast<int>(i)) < lanes_[i]->appended_epoch) {
        return false;
      }
    }
    return true;
  };
  Database::Snapshot snap = db_.GetSnapshot();
  while (!caught_up(snap)) {
    std::this_thread::yield();
    snap = db_.GetSnapshot();
  }
  DBPL_RETURN_IF_ERROR(SaveCheckpoint(vfs_, checkpoint_path_, snap));
  // The image is durable under its final name: everything the snapshot
  // holds is now recoverable without the old segments, so the shipping
  // state moves to "checkpoint + empty suffixes" *before* rotation is
  // attempted — even if a rotation fails below, followers must not
  // trust old-generation byte offsets against segments in an uncertain
  // state.
  ++generation_;
  for (size_t s = 0; s < lanes_.size(); ++s) {
    Lane& lane = *lanes_[s];
    lane.committed_bytes = 0;
    lane.durable_bytes = 0;
    lane.committed_epoch = snap.shard_epoch(static_cast<int>(s));
    lane.durable_epoch = lane.committed_epoch;
  }
  // Rotate each segment. A crash anywhere in here is still safe: a
  // stale segment only holds records the checkpoint covers, and
  // recovery skips them by id.
  Status rotated = Status::OK();
  for (auto& lane_ptr : lanes_) {
    Lane& lane = *lane_ptr;
    lane.writer.reset();
    Status s = [&]() -> Status {
      DBPL_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> truncated,
                            vfs_->Open(lane.path, OpenMode::kTruncate));
      truncated.reset();
      DBPL_ASSIGN_OR_RETURN(lane.writer, LogWriter::Open(vfs_, lane.path));
      return Status::OK();
    }();
    if (!s.ok()) {
      // Refuse appends until the next successful Checkpoint() (which
      // re-runs every rotation) or a reopen. The poison is set before
      // the best-effort writer reopen, so `lane.writer == nullptr`
      // implies a poisoned WAL and the observer never dereferences
      // null. Remaining lanes keep their old segments — harmless, the
      // checkpoint covers them.
      rotated = s;
      Poison(rotated);
      if (lane.writer == nullptr) {
        Result<std::unique_ptr<LogWriter>> reopened =
            LogWriter::Open(vfs_, lane.path);
        if (reopened.ok()) lane.writer = std::move(reopened).value();
      }
      return rotated;
    }
    lane.pending = 0;
    lane.unsynced_commits = false;
  }
  // Everything in memory is now durable in the checkpoint: a logging
  // failure recorded earlier is healed, and the batch counters restart.
  {
    dbpl::MutexLock status_lock(&status_mu_);
    wal_status_ = Status::OK();
    poisoned_.store(false, std::memory_order_release);
  }
  ++checkpoints_;
  return Status::OK();
}

void WalDatabase::Poison(const Status& status) {
  dbpl::MutexLock lock(&status_mu_);
  if (wal_status_.ok()) wal_status_ = status;  // keep the first error
  poisoned_.store(true, std::memory_order_release);
}

Status WalDatabase::CheckPoisoned() const {
  if (!poisoned_.load(std::memory_order_acquire)) return Status::OK();
  dbpl::MutexLock lock(&status_mu_);
  return wal_status_;
}

Status WalDatabase::wal_status() const {
  dbpl::MutexLock lock(&status_mu_);
  return wal_status_;
}

uint64_t WalDatabase::wal_bytes() const {
  uint64_t total = 0;
  for (const auto& lane_ptr : lanes_) {
    const Lane& lane = *lane_ptr;
    dbpl::MutexLock lock(&lane.mu);
    if (lane.writer != nullptr) total += lane.writer->bytes_written();
  }
  return total;
}

uint64_t WalDatabase::pending_in_batch() const {
  uint64_t total = 0;
  for (const auto& lane_ptr : lanes_) {
    const Lane& lane = *lane_ptr;
    dbpl::MutexLock lock(&lane.mu);
    total += lane.pending;
  }
  return total;
}

uint64_t WalDatabase::checkpoints_taken() const {
  dbpl::MutexLock lock(&meta_mu_);
  return checkpoints_;
}

WalShipper::ShipState WalDatabase::ship_bounds() const {
  // meta_mu_ excludes a concurrent checkpoint, so the generation and
  // the per-shard bounds are one consistent sample (lane mus follow
  // meta_mu_ in the lock order).
  dbpl::MutexLock meta(&meta_mu_);
  ShipState state;
  state.generation = generation_;
  state.shards.reserve(lanes_.size());
  for (const auto& lane_ptr : lanes_) {
    const Lane& lane = *lane_ptr;
    dbpl::MutexLock lock(&lane.mu);
    state.shards.push_back(Bounds{lane.durable_bytes, lane.durable_epoch});
  }
  return state;
}

}  // namespace dbpl::persist
