// The design-choice test behind DESIGN.md's storage section: why the
// intrinsic store sits on a write-ahead log rather than in-place page
// updates. `PagedStore` is the in-place baseline; these tests show
// where it is equivalent, and the crash-semantics difference that
// justifies the log.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "storage/kv_store.h"
#include "storage/paged_store.h"
#include "test_util.h"

namespace dbpl::storage {
namespace {

using dbpl::testing::ScopedFile;
using dbpl::testing::TempPath;

TEST(PagedStoreTest, PutGetDeleteRoundTrip) {
  ScopedFile file(TempPath("basic"));
  auto store = PagedStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->Put("a", "1").ok());
  ASSERT_TRUE((*store)->Put("b", "2").ok());
  EXPECT_EQ(*(*store)->Get("a"), "1");
  EXPECT_EQ(*(*store)->Get("b"), "2");
  ASSERT_TRUE((*store)->Put("a", "updated").ok());
  EXPECT_EQ(*(*store)->Get("a"), "updated");
  ASSERT_TRUE((*store)->Delete("b").ok());
  EXPECT_EQ((*store)->Get("b").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*store)->Delete("b").code(), StatusCode::kNotFound);
  EXPECT_EQ((*store)->size(), 1u);
}

TEST(PagedStoreTest, SurvivesReopen) {
  ScopedFile file(TempPath("reopen"));
  {
    auto store = PagedStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("k", "v").ok());
    ASSERT_TRUE((*store)->Put("gone", "x").ok());
    ASSERT_TRUE((*store)->Delete("gone").ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto store = PagedStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->Get("k"), "v");
  EXPECT_FALSE((*store)->Contains("gone"));
}

TEST(PagedStoreTest, ReusesFreedPages) {
  ScopedFile file(TempPath("reuse"));
  auto store = PagedStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE((*store)->Put("k" + std::to_string(i), "v").ok());
  }
  uint64_t pages = (*store)->page_count();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE((*store)->Delete("k" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE((*store)->Put("n" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ((*store)->page_count(), pages);  // no growth: pages reused
}

TEST(PagedStoreTest, OversizedRecordRejected) {
  ScopedFile file(TempPath("oversized"));
  auto store = PagedStore::Open(Vfs::Default(), file.path, 256);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->Put("k", std::string(1024, 'x')).code(),
            StatusCode::kInvalidArgument);
}

TEST(PagedStoreTest, CacheServesRepeatedReads) {
  ScopedFile file(TempPath("cache"));
  auto store = PagedStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("hot", "value").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*store)->Get("hot").ok());
  }
  EXPECT_GE((*store)->cache_stats().hits, 9u);
}

// The ablation point, demonstrated: an in-place paged store can tear a
// multi-record update across a crash; the WAL-backed KvStore cannot.
TEST(StorageAblationTest, PagedStoreTearsMultiRecordUpdates) {
  ScopedFile file(TempPath("torn"));
  {
    auto store = PagedStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("x", "old").ok());
    ASSERT_TRUE((*store)->Put("y", "old").ok());
    ASSERT_TRUE((*store)->Flush().ok());
    // A "transaction" updating both records — crash after the first
    // page reaches disk (simulated by flushing one put and dropping
    // the store before the second is staged).
    ASSERT_TRUE((*store)->Put("x", "new").ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->Put("y", "new").ok());
    // crash: no flush
  }
  auto store = PagedStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  // Torn state: x is new, y is old. No invariant can rely on the two
  // being updated together.
  EXPECT_EQ(*(*store)->Get("x"), "new");
  EXPECT_EQ(*(*store)->Get("y"), "old");
}

TEST(StorageAblationTest, KvStoreNeverTearsABatch) {
  ScopedFile file(TempPath("atomic"));
  {
    auto store = KvStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    WriteBatch init;
    init.Put("x", "old");
    init.Put("y", "old");
    ASSERT_TRUE((*store)->Apply(init).ok());
    WriteBatch update;
    update.Put("x", "new");
    update.Put("y", "new");
    ASSERT_TRUE((*store)->Apply(update).ok());
  }
  // Crash simulation at *every* truncation point of the second batch:
  // recovery yields either both old or both new, never a mix.
  off_t full_size;
  {
    int fd = ::open(file.path.c_str(), O_RDONLY);
    full_size = ::lseek(fd, 0, SEEK_END);
    ::close(fd);
  }
  // Copy the full log, truncate at each point, recover, assert.
  std::string scratch = file.path + ".scratch";
  std::vector<char> image(static_cast<size_t>(full_size));
  {
    std::FILE* f = std::fopen(file.path.c_str(), "rb");
    ASSERT_EQ(std::fread(image.data(), 1, image.size(), f), image.size());
    std::fclose(f);
  }
  for (off_t cut = 0; cut <= full_size; cut += 7) {
    {
      std::FILE* f = std::fopen(scratch.c_str(), "wb");
      std::fwrite(image.data(), 1, static_cast<size_t>(cut), f);
      std::fclose(f);
    }
    auto store = KvStore::Open(Vfs::Default(), scratch);
    ASSERT_TRUE(store.ok()) << "cut=" << cut;
    bool has_x = (*store)->Contains("x");
    bool has_y = (*store)->Contains("y");
    ASSERT_EQ(has_x, has_y) << "cut=" << cut;
    if (has_x) {
      EXPECT_EQ(*(*store)->Get("x"), *(*store)->Get("y")) << "cut=" << cut;
    }
  }
  std::remove(scratch.c_str());
}

}  // namespace
}  // namespace dbpl::storage
