#ifndef DBPL_STORAGE_KV_STORE_H_
#define DBPL_STORAGE_KV_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/log.h"

namespace dbpl::storage {

/// A batch of mutations committed atomically.
class WriteBatch {
 public:
  void Put(std::string key, std::string value) {
    records_.push_back({LogRecordType::kPut, std::move(key), std::move(value)});
  }
  void Delete(std::string key) {
    records_.push_back({LogRecordType::kDelete, std::move(key), ""});
  }
  bool empty() const { return records_.empty(); }
  size_t size() const { return records_.size(); }
  const std::vector<LogRecord>& records() const { return records_; }

 private:
  std::vector<LogRecord> records_;
};

/// A log-structured key-value store with atomic batch commits.
///
/// All data lives in a single append-only log; an in-memory index maps
/// each key to its latest committed value. Recovery replays the log and
/// drops any suffix after the last commit marker, so a crash between
/// `Apply` calls — or in the middle of one — leaves exactly the last
/// committed state. `Compact` rewrites the live data into a fresh log
/// (atomically, via rename), reclaiming space from overwritten and
/// deleted keys.
class KvStore {
 public:
  struct RecoveryInfo {
    uint64_t records_replayed = 0;
    uint64_t batches_committed = 0;
    /// Records after the last commit marker, discarded at recovery.
    uint64_t uncommitted_dropped = 0;
    /// True when the log ended in a torn/corrupt record.
    bool corrupt_tail = false;
  };

  /// Opens (creating if necessary) the store whose log is at `path`,
  /// with all I/O through `vfs` (which must outlive the store).
  static Result<std::unique_ptr<KvStore>> Open(Vfs* vfs,
                                               const std::string& path);

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Appends the batch and a commit marker, fsyncs, then applies it to
  /// the index. Atomic: after a crash either all or none of the batch
  /// survives.
  Status Apply(const WriteBatch& batch);

  Result<std::string> Get(std::string_view key) const;
  bool Contains(std::string_view key) const;
  std::vector<std::string> Keys() const;
  /// Keys beginning with `prefix`, sorted.
  std::vector<std::string> KeysWithPrefix(std::string_view prefix) const;
  size_t size() const { return index_.size(); }

  /// Rewrites the log to contain only live entries.
  Status Compact();

  const RecoveryInfo& recovery_info() const { return recovery_; }
  uint64_t log_bytes() const;
  const std::string& path() const { return path_; }

 private:
  KvStore(Vfs* vfs, std::string path) : vfs_(vfs), path_(std::move(path)) {}

  Status Replay();

  Vfs* vfs_;
  std::string path_;
  std::map<std::string, std::string, std::less<>> index_;
  std::unique_ptr<LogWriter> writer_;
  RecoveryInfo recovery_;
};

}  // namespace dbpl::storage

#endif  // DBPL_STORAGE_KV_STORE_H_
