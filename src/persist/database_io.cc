#include "persist/database_io.h"

#include "persist/wal_database.h"
#include "serial/decoder.h"
#include "serial/encoder.h"

namespace dbpl::persist {
namespace {

/// Marker distinguishing a v2 (sharded) checkpoint from the original
/// format, written where v1 put the extent count. A v1 reader would
/// see an absurd extent count and fail its next decode, never a silent
/// misread; our reader branches on it. Any real extent table is
/// orders of magnitude smaller.
constexpr uint64_t kShardedCheckpointMarker = 0xDB91'5AAD'0000'0002ull;

}  // namespace

Status SaveSnapshot(storage::Vfs* vfs, const std::string& path,
                    const dyndb::Database::Snapshot& snap) {
  ByteBuffer out;
  serial::EncodeHeader(&out);
  out.PutVarint(snap.size());
  snap.ForEachEntry([&](dyndb::Database::EntryId, const dyndb::Dynamic& d) {
    serial::EncodeType(d.type, &out);
    serial::EncodeValue(d.value, &out);
  });
  return vfs->WriteFileAtomic(path, out);
}

Result<dyndb::Database> LoadDatabase(storage::Vfs* vfs,
                                     const std::string& path) {
  DBPL_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, vfs->ReadFileBytes(path));
  ByteReader in(bytes.data(), bytes.size());
  DBPL_RETURN_IF_ERROR(serial::DecodeHeader(&in));
  DBPL_ASSIGN_OR_RETURN(uint64_t count, in.ReadVarint());
  dyndb::Database db;
  for (uint64_t i = 0; i < count; ++i) {
    DBPL_ASSIGN_OR_RETURN(types::Type type, serial::DecodeType(&in));
    DBPL_ASSIGN_OR_RETURN(core::Value value, serial::DecodeValue(&in));
    DBPL_RETURN_IF_ERROR(
        db.Insert(dyndb::Dynamic{std::move(value), std::move(type)}).status());
  }
  if (!in.AtEnd()) return Status::Corruption("trailing bytes in database");
  return db;
}

Status SaveCheckpoint(storage::Vfs* vfs, const std::string& path,
                      const dyndb::Database::Snapshot& snap) {
  ByteBuffer out;
  serial::EncodeHeader(&out);
  const int shards = snap.shards();
  if (shards > 1) {
    out.PutVarint(kShardedCheckpointMarker);
    out.PutVarint(static_cast<uint64_t>(shards));
  }
  const auto extents = snap.Extents();
  out.PutVarint(extents.size());
  for (const auto& [name, type] : extents) {
    out.PutString(name);
    serial::EncodeType(type, &out);
  }
  if (shards == 1) {
    // The original (v1) wire format, bit-for-bit.
    out.PutVarint(snap.size());
    snap.ForEachEntry([&](dyndb::Database::EntryId, const dyndb::Dynamic& d) {
      serial::EncodeType(d.type, &out);
      serial::EncodeValue(d.value, &out);
    });
  } else {
    // v2: each shard's entry sequence in order, so recovery can
    // reproduce every id (`seq*shards + shard`) exactly.
    for (int s = 0; s < shards; ++s) {
      out.PutVarint(snap.shard_size(s));
    }
    snap.ForEachEntry([&](dyndb::Database::EntryId, const dyndb::Dynamic& d) {
      serial::EncodeType(d.type, &out);
      serial::EncodeValue(d.value, &out);
    });
  }
  return vfs->WriteFileAtomic(path, out);
}

Result<CheckpointImage> ReadCheckpoint(storage::Vfs* vfs,
                                       const std::string& path) {
  DBPL_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, vfs->ReadFileBytes(path));
  ByteReader in(bytes.data(), bytes.size());
  DBPL_RETURN_IF_ERROR(serial::DecodeHeader(&in));
  CheckpointImage image;
  DBPL_ASSIGN_OR_RETURN(uint64_t n_extents, in.ReadVarint());
  if (n_extents == kShardedCheckpointMarker) {
    DBPL_ASSIGN_OR_RETURN(uint64_t shards, in.ReadVarint());
    if (shards < 2 ||
        shards > static_cast<uint64_t>(dyndb::Database::kMaxShards)) {
      return Status::Corruption("checkpoint shard count out of range: " +
                                std::to_string(shards));
    }
    image.shards = static_cast<int>(shards);
    DBPL_ASSIGN_OR_RETURN(n_extents, in.ReadVarint());
  }
  image.extents.reserve(n_extents);
  for (uint64_t i = 0; i < n_extents; ++i) {
    DBPL_ASSIGN_OR_RETURN(std::string name, in.ReadString());
    DBPL_ASSIGN_OR_RETURN(types::Type type, serial::DecodeType(&in));
    image.extents.emplace_back(std::move(name), std::move(type));
  }
  image.entries.resize(static_cast<size_t>(image.shards));
  if (image.shards == 1) {
    DBPL_ASSIGN_OR_RETURN(uint64_t count, in.ReadVarint());
    image.entries[0].reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      DBPL_ASSIGN_OR_RETURN(types::Type type, serial::DecodeType(&in));
      DBPL_ASSIGN_OR_RETURN(core::Value value, serial::DecodeValue(&in));
      image.entries[0].push_back(
          dyndb::Dynamic{std::move(value), std::move(type)});
    }
  } else {
    std::vector<uint64_t> counts(static_cast<size_t>(image.shards));
    for (auto& c : counts) {
      DBPL_ASSIGN_OR_RETURN(c, in.ReadVarint());
    }
    // Entries were written in id order: (seq, shard) lexicographic.
    uint64_t max_count = 0;
    for (uint64_t c : counts) max_count = std::max(max_count, c);
    for (size_t s = 0; s < counts.size(); ++s) {
      image.entries[s].reserve(counts[s]);
    }
    for (uint64_t seq = 0; seq < max_count; ++seq) {
      for (size_t s = 0; s < counts.size(); ++s) {
        if (seq >= counts[s]) continue;
        DBPL_ASSIGN_OR_RETURN(types::Type type, serial::DecodeType(&in));
        DBPL_ASSIGN_OR_RETURN(core::Value value, serial::DecodeValue(&in));
        image.entries[s].push_back(
            dyndb::Dynamic{std::move(value), std::move(type)});
      }
    }
  }
  if (!in.AtEnd()) return Status::Corruption("trailing bytes in checkpoint");
  return image;
}

Result<dyndb::Database> LoadCheckpoint(storage::Vfs* vfs,
                                       const std::string& path) {
  DBPL_ASSIGN_OR_RETURN(CheckpointImage image, ReadCheckpoint(vfs, path));
  dyndb::Database db(dyndb::DatabaseOptions{image.shards});
  WalRecoveryStats stats;
  DBPL_RETURN_IF_ERROR(ApplyCheckpoint(&db, &image, &stats));
  return db;
}

}  // namespace dbpl::persist
