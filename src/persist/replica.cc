#include "persist/replica.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "persist/database_io.h"
#include "persist/wal.h"

namespace dbpl::persist {
namespace {

/// How long manual-mode WaitForEpoch sleeps between shipping rounds
/// (always clamped to the caller's deadline).
constexpr std::chrono::microseconds kManualPollQuantum{200};

}  // namespace

using dyndb::Database;
using storage::LogReader;
using storage::LogRecord;
using storage::LogRecordType;
using storage::OpenMode;
using storage::VfsFile;

Status Replica::Attach(WalShipper* shipper, FollowOptions opts) {
  if (shipper == nullptr) {
    return Status::InvalidArgument("Attach requires a shipper");
  }
  Detach();
  {
    dbpl::MutexLock lock(&mu_);
    shipper_ = shipper;
    opts_ = opts;
    bootstrapped_ = false;
    readers_.clear();
    same_gen_resyncs_ = 0;
    stale_gen_reported_ = false;
    // Synchronous catch-up: after Attach returns OK the follower is at
    // the durable bounds the primary had when we sampled them.
    Status caught_up = PollLocked();
    if (!caught_up.ok()) {
      shipper_ = nullptr;
      readers_.clear();
      return caught_up;
    }
    if (opts_.poll_interval.count() > 0) {
      stop_ = false;
      thread_ = std::thread([this] { Run(); });
    }
  }
  cv_.NotifyAll();
  return Status::OK();
}

void Replica::Detach() {
  std::thread to_join;
  {
    dbpl::MutexLock lock(&mu_);
    stop_ = true;
    to_join = std::move(thread_);
  }
  cv_.NotifyAll();
  if (to_join.joinable()) to_join.join();
  dbpl::MutexLock lock(&mu_);
  stop_ = false;
  shipper_ = nullptr;
  readers_.clear();
  bootstrapped_ = false;
}

bool Replica::attached() const {
  dbpl::MutexLock lock(&mu_);
  return shipper_ != nullptr;
}

void Replica::Run() {
  mu_.Lock();
  while (!stop_) {
    // Errors here are either transient (a stale handle across a
    // primary crash — the next round's re-bootstrap heals it) or
    // permanent (divergence); keep polling either way and let the
    // counters tell the story. A streaming follower must stay up.
    (void)PollLocked();
    mu_.Unlock();
    cv_.NotifyAll();  // wake WaitForEpoch after every round
    mu_.Lock();
    // Sleep out the poll interval, ending early on stop.
    const auto deadline =
        std::chrono::steady_clock::now() + opts_.poll_interval;
    while (!stop_) {
      if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) break;
    }
  }
  mu_.Unlock();
}

Status Replica::Poll() {
  dbpl::MutexLock lock(&mu_);
  Status polled = PollLocked();
  cv_.NotifyAll();
  return polled;
}

Status Replica::BootstrapLocked(const WalShipper::ShipState& state) {
  ++bootstraps_;
  readers_.clear();
  storage::Vfs* vfs = shipper_->vfs();
  const int k = shipper_->shard_count();
  if (db_.shards() != k) {
    if (db_.epoch() != 0) {
      return Status::FailedPrecondition(
          "follower with replicated state has " +
          std::to_string(db_.shards()) + " shards; primary has " +
          std::to_string(k));
    }
    // An untouched follower adopts the primary's shard geometry.
    db_ = Database(dyndb::DatabaseOptions{k});
  }
  if (vfs->Exists(shipper_->checkpoint_path())) {
    DBPL_ASSIGN_OR_RETURN(CheckpointImage image,
                          ReadCheckpoint(vfs, shipper_->checkpoint_path()));
    if (image.shards != k) {
      return Status::FailedPrecondition(
          "checkpoint has " + std::to_string(image.shards) +
          " shards; shipper has " + std::to_string(k));
    }
    // The follower either already covers a shard (nothing to do) or
    // extends it with the checkpoint's suffix.
    DBPL_RETURN_IF_ERROR(ApplyCheckpoint(&db_, &image, &applied_));
  }
  // Restart every cursor at the top of its (possibly rotated) segment.
  // A segment may legitimately not exist yet on a fresh primary.
  readers_.resize(static_cast<size_t>(k));
  for (int s = 0; s < k; ++s) {
    if (vfs->Exists(shipper_->wal_path(s))) {
      DBPL_ASSIGN_OR_RETURN(readers_[static_cast<size_t>(s)],
                            LogReader::Open(vfs, shipper_->wal_path(s)));
    }
  }
  generation_ = state.generation;
  bootstrapped_ = true;
  return Status::OK();
}

Status Replica::PollLocked() {
  if (shipper_ == nullptr) {
    return Status::FailedPrecondition("replica is not attached");
  }
  ++polls_;
  const WalShipper::ShipState bounds = shipper_->ship_bounds();
  if (!bootstrapped_ || bounds.generation != generation_) {
    if (bootstrapped_ && bounds.generation != generation_) {
      // A rotation explains whatever went wrong before; the stale
      // tracking starts over with the new generation.
      same_gen_resyncs_ = 0;
      stale_gen_reported_ = false;
    }
    DBPL_RETURN_IF_ERROR(BootstrapLocked(bounds));
  }

  // Tail each segment up to exactly its durable bound, buffering
  // decoded batches: nothing is applied until the generation re-check
  // below proves the bytes were read from the generation the bounds
  // govern.
  const size_t k = bounds.shards.size();
  std::vector<std::vector<std::vector<WalRecord>>> ready(k);
  bool clean = readers_.size() == k;
  for (size_t s = 0; clean && s < k; ++s) {
    LogReader* reader = readers_[s].get();
    const uint64_t durable = bounds.shards[s].durable_bytes;
    if (reader == nullptr) {
      // No segment existed at bootstrap; durable bytes in it now mean
      // the world changed under us.
      if (durable > 0) clean = false;
      continue;
    }
    if (reader->offset() >= durable) continue;  // caught up on this shard
    std::vector<WalRecord> open;
    LogRecord rec;
    while (reader->offset() < durable) {
      Result<bool> has = reader->Next(&rec);
      if (!has.ok() || !*has) {
        // An I/O error (stale handle across a primary crash), a torn
        // tail, or EOF short of the durable bound. Within a live
        // generation durable bytes are synced and immutable, so any of
        // these means the world changed under us — resync.
        clean = false;
        break;
      }
      if (rec.type == LogRecordType::kCommit) {
        ready[s].push_back(std::move(open));
        open.clear();
        continue;
      }
      Result<WalRecord> redo = DecodeWalRecord(rec);
      if (!redo.ok()) {
        clean = false;
        break;
      }
      open.push_back(std::move(redo).value());
    }
    // The durable bound is commit-aligned, so a clean read lands the
    // cursor exactly on it with no open batch. Overshoot or a dangling
    // batch means misaligned frames (a rotation raced the read).
    if (clean && (reader->offset() != durable || !open.empty())) {
      clean = false;
    }
  }
  const WalShipper::ShipState after = shipper_->ship_bounds();
  if (!clean || after.generation != generation_) {
    // Discard everything unapplied and start over from the checkpoint
    // next round. The follower stays a committed prefix throughout.
    ++resyncs_;
    bootstrapped_ = false;
    readers_.clear();
    if (!clean && after.generation == generation_) {
      // The bound was unreadable and no rotation explains it. Once is
      // forgivable (we may have raced a local anomaly); persisting
      // across the fresh bootstrap the previous round scheduled means
      // the shipper's advertised bounds and its segments disagree —
      // say so once rather than resyncing silently forever.
      ++same_gen_resyncs_;
      if (same_gen_resyncs_ >= 2 && !stale_gen_reported_) {
        stale_gen_reported_ = true;
        return Status::FailedPrecondition(
            "shipper bounds unreachable in its segments at unchanged "
            "generation " +
            std::to_string(generation_) +
            " after re-bootstrap (stale or inconsistent shipping state)");
      }
    } else {
      same_gen_resyncs_ = 0;
      stale_gen_reported_ = false;
    }
    return Status::OK();
  }
  same_gen_resyncs_ = 0;
  stale_gen_reported_ = false;
  for (size_t s = 0; s < k; ++s) {
    for (std::vector<WalRecord>& batch : ready[s]) {
      DBPL_RETURN_IF_ERROR(ApplyWalBatch(&db_, &batch, &applied_));
      ++batches_;
    }
  }
  return Status::OK();
}

Status Replica::WaitForEpoch(uint64_t epoch,
                             std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  dbpl::MutexLock lock(&mu_);
  if (shipper_ == nullptr && db_.epoch() < epoch) {
    return Status::FailedPrecondition("replica is not attached");
  }
  const bool streaming = thread_.joinable();
  while (db_.epoch() < epoch) {
    if (streaming) {
      if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout &&
          db_.epoch() < epoch) {
        return Status::DeadlineExceeded(
            "epoch " + std::to_string(epoch) + " not reached (at " +
            std::to_string(db_.epoch()) + ")");
      }
    } else {
      // Manual mode: drive the shipping rounds ourselves, sleeping on
      // cv_ between rounds with the deadline clamped in — so the wait
      // can never overshoot the deadline by a poll quantum, and an
      // external Poll()'s progress signal ends the sleep early.
      DBPL_RETURN_IF_ERROR(PollLocked());
      if (db_.epoch() >= epoch) break;
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        return Status::DeadlineExceeded(
            "epoch " + std::to_string(epoch) + " not reached (at " +
            std::to_string(db_.epoch()) + ")");
      }
      cv_.WaitUntil(mu_, std::min(deadline, now + kManualPollQuantum));
    }
  }
  return Status::OK();
}

ReplicaStats Replica::stats() const {
  dbpl::MutexLock lock(&mu_);
  ReplicaStats out;
  out.bootstraps = bootstraps_;
  out.polls = polls_;
  out.batches_applied = batches_;
  out.records_applied = applied_.replayed_inserts + applied_.replayed_extents;
  out.records_skipped = applied_.skipped_records;
  out.resyncs = resyncs_;
  return out;
}

Result<std::unique_ptr<WalDatabase>> Replica::PromoteToPrimary(
    storage::Vfs* vfs, const std::string& dir, CommitPolicy policy) {
  Detach();
  DBPL_RETURN_IF_ERROR(vfs->CreateDir(dir));
  // The follower's replicated prefix becomes the durable seed: save it
  // as the checkpoint WalDatabase::Open recovers from, and clear any
  // logs left over in the directory (their records belong to a history
  // this promotion supersedes).
  DBPL_RETURN_IF_ERROR(
      SaveCheckpoint(vfs, dir + "/checkpoint.dbpl", db_.GetSnapshot()));
  std::vector<std::string> stale;
  stale.push_back(dir + "/wal.log");
  for (int s = 0; s < Database::kMaxShards; ++s) {
    std::string path = dir + "/wal." + std::to_string(s) + ".log";
    if (!vfs->Exists(path)) break;
    stale.push_back(std::move(path));
  }
  for (const std::string& path : stale) {
    if (!vfs->Exists(path)) continue;
    DBPL_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> truncated,
                          vfs->Open(path, OpenMode::kTruncate));
    truncated.reset();
  }
  return WalDatabase::Open(vfs, dir, WalOptions{policy, db_.shards()});
}

}  // namespace dbpl::persist
