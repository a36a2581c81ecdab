#ifndef DBPL_STORAGE_PAGER_H_
#define DBPL_STORAGE_PAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/vfs.h"

namespace dbpl::storage {

/// Identifier of a fixed-size page in a paged file (0-based).
using PageId = uint64_t;

inline constexpr size_t kDefaultPageSize = 4096;

/// A paged file: fixed-size pages, each protected by a CRC-32C checksum
/// so torn or corrupted pages are detected at read time rather than
/// silently decoded.
///
/// Page layout: `[u32 masked crc][u32 payload length][payload][padding]`.
/// The usable payload per page is `page_size() - 8`.
class Pager {
 public:
  /// Opens (creating if necessary) the paged file at `path` through
  /// `vfs` (which must outlive the pager). An existing file must have a
  /// size that is a multiple of `page_size`.
  static Result<std::unique_ptr<Pager>> Open(
      Vfs* vfs, const std::string& path, size_t page_size = kDefaultPageSize);

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Total page size on disk.
  size_t page_size() const { return page_size_; }
  /// Usable bytes per page.
  size_t payload_size() const { return page_size_ - 8; }
  uint64_t page_count() const { return page_count_; }
  const std::string& path() const { return path_; }

  /// Appends a fresh zeroed page; returns its id.
  Result<PageId> Allocate();

  /// Reads a page's payload, verifying its checksum.
  Result<std::vector<uint8_t>> Read(PageId id) const;

  /// Writes a payload (at most `payload_size()` bytes) to a page.
  Status Write(PageId id, const std::vector<uint8_t>& payload);

  /// Flushes OS buffers to stable storage.
  Status Sync();

 private:
  Pager(std::unique_ptr<VfsFile> file, std::string path, size_t page_size,
        uint64_t page_count)
      : file_(std::move(file)),
        path_(std::move(path)),
        page_size_(page_size),
        page_count_(page_count) {}

  std::unique_ptr<VfsFile> file_;
  std::string path_;
  size_t page_size_;
  uint64_t page_count_;
};

}  // namespace dbpl::storage

#endif  // DBPL_STORAGE_PAGER_H_
