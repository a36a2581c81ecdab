#ifndef DBPL_PERSIST_DATABASE_IO_H_
#define DBPL_PERSIST_DATABASE_IO_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dyndb/database.h"
#include "storage/vfs.h"

namespace dbpl::persist {

/// Persists one snapshot of a heterogeneous database — every entry
/// written self-describingly (value + carried type, principle P2) — to
/// one file, atomically. Registered extents are not stored: they are
/// *derived* state and are rebuilt by re-registering after load, which
/// is the paper's point about extents being separable from persistence.
///
/// Because the argument is an immutable snapshot, the save is a
/// consistent point-in-time image even while other threads keep
/// inserting into the database the snapshot came from: the file always
/// holds an insertion-order prefix of the database, never a torn
/// mid-insert state.
Status SaveSnapshot(storage::Vfs* vfs, const std::string& path,
                    const dyndb::Database::Snapshot& snap);

/// Loads a database written by `SaveSnapshot`. Entry ids are assigned
/// afresh in the stored order.
Result<dyndb::Database> LoadDatabase(storage::Vfs* vfs,
                                     const std::string& path);

/// Persists a snapshot *plus its registered-extent table* — the
/// checkpoint format of the write-ahead durability layer
/// (persist::WalDatabase). Unlike `SaveSnapshot`, the extent
/// declarations are stored (as (name, type) pairs, not their derived
/// membership) so recovery restores them without replaying the whole
/// registration history. Written atomically via the tmp/sync/rename
/// protocol; a crash mid-checkpoint leaves any previous one intact.
Status SaveCheckpoint(storage::Vfs* vfs, const std::string& path,
                      const dyndb::Database::Snapshot& snap);

/// Loads a checkpoint written by `SaveCheckpoint`: extents are
/// re-registered first (cheap, the database is still empty), then the
/// entries are re-inserted in stored order, rebuilding every extent's
/// membership incrementally.
Result<dyndb::Database> LoadCheckpoint(storage::Vfs* vfs,
                                       const std::string& path);

/// A decoded checkpoint, before any database is built from it.
/// `ApplyCheckpoint` (wal_database.h) applies it *incrementally*: a
/// follower that already holds a prefix of the primary's history
/// applies only the checkpoint's suffix (per shard, entries from its
/// own shard size onward; extents it has not registered yet) instead
/// of rebuilding from scratch.
///
/// Checkpoints of a single-shard database use the original (v1) wire
/// format unchanged; a sharded database writes a v2 image that records
/// the shard count and each shard's entry sequence, so ids
/// (`seq*shards + shard`) are reproduced exactly at recovery.
struct CheckpointImage {
  /// Registered extents as (name, declared type), in stored order.
  std::vector<std::pair<std::string, types::Type>> extents;
  /// Shard count of the database that wrote the checkpoint.
  int shards = 1;
  /// Per-shard entries in insertion order: `entries[s][seq]` held id
  /// `seq*shards + s`. For v1 images this is one dense list.
  std::vector<std::vector<dyndb::Dynamic>> entries;

  size_t entry_count() const {
    size_t n = 0;
    for (const auto& shard : entries) n += shard.size();
    return n;
  }
};

/// Decodes a checkpoint file into its image (`LoadCheckpoint` is this
/// plus re-registering/re-inserting into a fresh database).
Result<CheckpointImage> ReadCheckpoint(storage::Vfs* vfs,
                                       const std::string& path);

}  // namespace dbpl::persist

#endif  // DBPL_PERSIST_DATABASE_IO_H_
