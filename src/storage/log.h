#ifndef DBPL_STORAGE_LOG_H_
#define DBPL_STORAGE_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/vfs.h"

namespace dbpl::storage {

/// Record kinds in the write-ahead log.
enum class LogRecordType : uint8_t {
  /// Set `key` to `value`.
  kPut = 1,
  /// Remove `key`.
  kDelete = 2,
  /// Transaction boundary: everything since the previous commit becomes
  /// durable and visible at recovery.
  kCommit = 3,
};

struct LogRecord {
  LogRecordType type = LogRecordType::kCommit;
  std::string key;
  std::string value;

  bool operator==(const LogRecord& other) const = default;
};

/// Largest record body (type byte + framed key + framed value) either
/// side of the log accepts. The reader treats a length field above this
/// as a corrupt tail, so the writer must reject such records at append
/// time — otherwise a record could be written that recovery can never
/// read back.
inline constexpr uint64_t kMaxLogRecordBody = 1ull << 30;

/// Appends CRC-framed records to a log file.
///
/// Framing: the shared CRC frame of common/frame.h,
/// `[u32 masked crc of body][u32 body length][body]`, where the body is
/// `[u8 type][varint key length][key][varint value length][value]`.
/// A torn final record (crash mid-append) fails its CRC and is dropped at
/// recovery, together with any uncommitted records before it.
///
/// Thread safety: *externally synchronized*. A LogWriter carries no
/// internal lock; exactly one thread may use it at a time. In
/// persist::WalDatabase each writer is reached only through its lane's
/// `Lane::writer` pointer, which is DBPL_PT_GUARDED_BY the lane mutex —
/// so Clang's capability analysis proves every Append/Sync happens
/// under that lock (DESIGN.md §10).
class LogWriter {
 public:
  /// Opens `path` for appending through `vfs`, creating it if absent.
  /// `vfs` must outlive the writer.
  static Result<std::unique_ptr<LogWriter>> Open(Vfs* vfs,
                                                 const std::string& path);

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Appends one record. Records whose body would exceed
  /// `kMaxLogRecordBody` are rejected with InvalidArgument *before*
  /// anything reaches the file (the reader would treat them as a
  /// corrupt tail). An I/O failure may leave a torn frame mid-log, so
  /// it poisons the writer: every later Append/Sync fails with
  /// FailedPrecondition, because bytes appended after a torn frame are
  /// unreachable to the reader. Recover by reopening the log.
  Status Append(const LogRecord& record);
  /// Flushes to stable storage. A failed sync leaves durability
  /// unknown, so it poisons the writer too.
  Status Sync();

  uint64_t bytes_written() const { return bytes_written_; }

  /// True once an I/O failure has made further appends unsafe.
  bool poisoned() const { return poisoned_; }

 private:
  LogWriter(std::unique_ptr<VfsFile> file, uint64_t existing_bytes)
      : file_(std::move(file)), bytes_written_(existing_bytes) {}

  std::unique_ptr<VfsFile> file_;
  uint64_t bytes_written_;
  bool poisoned_ = false;
};

/// Streams records back from a log file, stopping cleanly at the first
/// corrupt or truncated record (the "tail").
///
/// The reader doubles as a *tail-following cursor* for log shipping
/// (persist::Replica): `offset()` is always frame-aligned (it advances
/// only past records returned to the caller, never into a damaged
/// tail), `OpenAt` resumes a cursor at such an offset, and `Resume()`
/// clears the end-of-log latch so `Next` re-probes a file that may have
/// grown since — whether the previous probe ended cleanly (no more
/// bytes) or on an incomplete frame (an append that was still in
/// flight, which later bytes may complete). The clean-end / torn-end
/// distinction therefore means "at the moment of the probe": only the
/// writer's side (a poisoned LogWriter, or a durable bound from
/// persist::WalDatabase) can say whether a torn tail is permanent.
///
/// Thread safety: externally synchronized, like LogWriter. The
/// shipping cursors in persist::Replica are touched only with the
/// replica mutex held (DBPL_GUARDED_BY on `Replica::readers_`).
class LogReader {
 public:
  /// Opens `path` for reading through `vfs` (which must outlive the
  /// reader).
  static Result<std::unique_ptr<LogReader>> Open(Vfs* vfs,
                                                 const std::string& path);

  /// Opens a cursor positioned at `offset`, which must be a
  /// frame-aligned byte offset previously obtained from `offset()`
  /// (0 is the start of the log). An arbitrary offset is detected by
  /// the CRC framing as a corrupt tail, not undefined behaviour.
  static Result<std::unique_ptr<LogReader>> OpenAt(Vfs* vfs,
                                                   const std::string& path,
                                                   uint64_t offset);

  LogReader(const LogReader&) = delete;
  LogReader& operator=(const LogReader&) = delete;

  /// Reads the next record into `out`. Returns false at (clean or
  /// corrupt) end of log.
  Result<bool> Next(LogRecord* out);

  /// True when reading stopped because of a damaged/incomplete tail
  /// rather than a clean end of file.
  bool saw_corrupt_tail() const { return saw_corrupt_tail_; }

  /// Byte offset of the next unread record: the frame-aligned position
  /// just past the last record `Next` returned. Unchanged by a probe
  /// that hit the (clean or corrupt) end of the log.
  uint64_t offset() const { return offset_; }

  /// Re-arms the cursor after `Next` returned false: clears the
  /// end-of-log latch (and the corrupt-tail flag) so the next `Next`
  /// re-reads from `offset()`. Bytes appended since — including the
  /// completion of a frame that was mid-append at the last probe — then
  /// become visible. A genuinely damaged tail simply reports
  /// `saw_corrupt_tail` again.
  void Resume() {
    done_ = false;
    saw_corrupt_tail_ = false;
  }

 private:
  explicit LogReader(std::unique_ptr<VfsFile> file) : file_(std::move(file)) {}

  std::unique_ptr<VfsFile> file_;
  /// Next's frame buffer, kept across records so a tailing reader does
  /// not allocate per record; it grows to the largest frame read.
  std::vector<uint8_t> frame_;
  uint64_t offset_ = 0;
  bool saw_corrupt_tail_ = false;
  bool done_ = false;
};

}  // namespace dbpl::storage

#endif  // DBPL_STORAGE_LOG_H_
