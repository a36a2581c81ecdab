#ifndef DBPL_STORAGE_VFS_H_
#define DBPL_STORAGE_VFS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"

namespace dbpl::storage {

/// How a file is opened through the VFS.
enum class OpenMode {
  /// Read-only; the file must exist.
  kRead,
  /// Random-access read/write; created empty when absent.
  kReadWrite,
  /// Write positions are relative to the end of file; created when
  /// absent, existing contents kept.
  kAppend,
  /// Created, or truncated to empty when it exists.
  kTruncate,
};

/// An open file handle obtained from a `Vfs`.
///
/// All offsets are absolute (pread/pwrite semantics); sequential readers
/// keep their own cursor. Writes become *durable* only after `Sync` —
/// a fault-injecting VFS is free to discard or tear unsynced data at a
/// simulated power loss.
class VfsFile {
 public:
  virtual ~VfsFile() = default;

  /// Reads up to `n` bytes at `offset`; returns the number read, which
  /// is less than `n` only at end of file.
  virtual Result<size_t> ReadAt(uint64_t offset, void* out, size_t n) = 0;

  /// Writes exactly `n` bytes at `offset`, extending the file if
  /// needed. A short write is reported as an error (possibly after a
  /// prefix of the bytes reached the file — the torn-write case).
  virtual Status WriteAt(uint64_t offset, const void* data, size_t n) = 0;

  /// Appends exactly `n` bytes at the end of the file.
  virtual Status Append(const void* data, size_t n) = 0;

  /// Current size of the file in bytes.
  virtual Result<uint64_t> Size() const = 0;

  /// Flushes buffered writes to stable storage.
  virtual Status Sync() = 0;
};

/// The seam between the storage/persist layers and the operating
/// system: every byte the library reads from or writes to disk flows
/// through a `Vfs`, and every store takes the `Vfs*` its caller names
/// (there are no path-only overloads). Production callers pass
/// `Vfs::Default()` (POSIX); tests substitute a `FaultVfs` to inject
/// torn writes, dropped fsyncs and crashes deterministically (see
/// fault_vfs.h).
///
/// A `Vfs` passed to a store must outlive that store.
class Vfs {
 public:
  virtual ~Vfs() = default;

  virtual Result<std::unique_ptr<VfsFile>> Open(const std::string& path,
                                                OpenMode mode) = 0;
  virtual bool Exists(const std::string& path) const = 0;
  /// Removes a file; NotFound when absent.
  virtual Status Remove(const std::string& path) = 0;
  /// Atomically replaces `to` with `from`.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  /// Creates a directory; OK when it already exists.
  virtual Status CreateDir(const std::string& path) = 0;
  /// File names (not paths) directly inside `path`, sorted.
  virtual Result<std::vector<std::string>> ListDir(
      const std::string& path) const = 0;

  // ---- Conveniences built on the primitives (shared by all backends).

  /// Reads an entire file into memory.
  Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

  /// Writes a buffer to `path` atomically: write `path.tmp`, sync,
  /// rename. A crash mid-save leaves any previous file intact.
  Status WriteFileAtomic(const std::string& path, const void* data, size_t n);
  Status WriteFileAtomic(const std::string& path, const ByteBuffer& data) {
    return WriteFileAtomic(path, data.data(), data.size());
  }

  /// The process-wide production (POSIX) VFS.
  static Vfs* Default();
};

/// Production VFS over open/pread/pwrite/fsync. Stateless; one instance
/// serves any number of files.
class PosixVfs : public Vfs {
 public:
  Result<std::unique_ptr<VfsFile>> Open(const std::string& path,
                                        OpenMode mode) override;
  bool Exists(const std::string& path) const override;
  Status Remove(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status CreateDir(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(
      const std::string& path) const override;
};

}  // namespace dbpl::storage

#endif  // DBPL_STORAGE_VFS_H_
