#ifndef DBPL_STORAGE_PAGED_STORE_H_
#define DBPL_STORAGE_PAGED_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace dbpl::storage {

/// A page-per-record key-value store over `Pager` + `BufferPool` —
/// the *ablation baseline* for the log-structured `KvStore`.
///
/// Design: each record occupies one page, laid out as
/// `[varint keylen][key][value...]`; an empty page (payload length 0)
/// is free. The directory (key → page) is rebuilt by scanning page
/// headers at open. Writes go through the buffer pool and reach disk
/// on `Flush`.
///
/// Deliberately missing, and measured/tested as such: a write-ahead
/// log. Updates are in-place, so a crash between the page writes of a
/// multi-record update can leave a *torn batch* — half old state, half
/// new. Individual pages are still CRC-protected (a torn single page
/// is detected, not silently read). `storage_ablation_test.cc`
/// demonstrates the torn batch against `KvStore`'s atomic recovery,
/// and bench E9 (`bench_e9_storage_ablation`) compares throughput.
class PagedStore {
 public:
  /// Opens the store through `vfs` (which must outlive it).
  static Result<std::unique_ptr<PagedStore>> Open(
      Vfs* vfs, const std::string& path, size_t page_size = kDefaultPageSize,
      size_t cache_pages = 64);

  PagedStore(const PagedStore&) = delete;
  PagedStore& operator=(const PagedStore&) = delete;

  /// Stages a write (in-place page update through the cache). The
  /// record (key + value + header) must fit in one page.
  Status Put(std::string_view key, std::string_view value);

  /// Stages a delete (frees the record's page).
  Status Delete(std::string_view key);

  Result<std::string> Get(std::string_view key);

  bool Contains(std::string_view key) const {
    return directory_.find(key) != directory_.end();
  }
  size_t size() const { return directory_.size(); }
  std::vector<std::string> Keys() const;

  /// Writes every dirty page back and fsyncs. NOT atomic across pages.
  Status Flush();

  const BufferPool::Stats& cache_stats() const { return pool_->stats(); }
  uint64_t page_count() const { return pager_->page_count(); }

 private:
  PagedStore(std::unique_ptr<Pager> pager, size_t cache_pages)
      : pager_(std::move(pager)),
        pool_(std::make_unique<BufferPool>(pager_.get(), cache_pages)) {}

  Status LoadDirectory();
  static void EncodeRecord(std::string_view key, std::string_view value,
                           std::vector<uint8_t>* out);

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::map<std::string, PageId, std::less<>> directory_;
  std::vector<PageId> free_pages_;
};

}  // namespace dbpl::storage

#endif  // DBPL_STORAGE_PAGED_STORE_H_
