#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "storage/buffer_pool.h"
#include "storage/fault_vfs.h"
#include "storage/kv_store.h"
#include "storage/log.h"
#include "storage/pager.h"
#include "test_util.h"

namespace dbpl::storage {
namespace {

using dbpl::testing::ScopedFile;
using dbpl::testing::TempPath;

/// Flips one byte at `offset` in the file.
void CorruptByte(const std::string& path, off_t offset) {
  int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  unsigned char b = 0;
  ASSERT_EQ(::pread(fd, &b, 1, offset), 1);
  b ^= 0xFF;
  ASSERT_EQ(::pwrite(fd, &b, 1, offset), 1);
  ::close(fd);
}

/// Truncates the file to `len` bytes (simulating a crash mid-append).
void TruncateTo(const std::string& path, off_t len) {
  ASSERT_EQ(::truncate(path.c_str(), len), 0);
}

off_t FileSize(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  off_t size = ::lseek(fd, 0, SEEK_END);
  ::close(fd);
  return size;
}

// ---------------------------------------------------------------------
// Pager
// ---------------------------------------------------------------------

TEST(PagerTest, AllocateWriteReadRoundTrip) {
  ScopedFile file(TempPath("pager1"));
  auto pager = Pager::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(pager.ok()) << pager.status();
  auto page = (*pager)->Allocate();
  ASSERT_TRUE(page.ok());
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE((*pager)->Write(*page, payload).ok());
  auto read = (*pager)->Read(*page);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, payload);
  EXPECT_EQ((*pager)->page_count(), 1u);
}

TEST(PagerTest, FreshPageReadsEmpty) {
  ScopedFile file(TempPath("pager2"));
  auto pager = Pager::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(pager.ok());
  auto page = (*pager)->Allocate();
  ASSERT_TRUE(page.ok());
  auto read = (*pager)->Read(*page);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST(PagerTest, PersistsAcrossReopen) {
  ScopedFile file(TempPath("pager3"));
  {
    auto pager = Pager::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(pager.ok());
    auto page = (*pager)->Allocate();
    ASSERT_TRUE((*pager)->Write(*page, {9, 9, 9}).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  auto pager = Pager::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->page_count(), 1u);
  auto read = (*pager)->Read(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (std::vector<uint8_t>{9, 9, 9}));
}

TEST(PagerTest, DetectsCorruptedPage) {
  ScopedFile file(TempPath("pager4"));
  {
    auto pager = Pager::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(pager.ok());
    auto page = (*pager)->Allocate();
    ASSERT_TRUE((*pager)->Write(*page, {1, 2, 3}).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  CorruptByte(file.path, 10);  // inside the payload
  auto pager = Pager::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->Read(0).status().code(), StatusCode::kCorruption);
}

TEST(PagerTest, RejectsOutOfRangeAndOversize) {
  ScopedFile file(TempPath("pager5"));
  auto pager = Pager::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->Read(0).status().code(), StatusCode::kInvalidArgument);
  auto page = (*pager)->Allocate();
  std::vector<uint8_t> too_big((*pager)->payload_size() + 1, 0);
  EXPECT_EQ((*pager)->Write(*page, too_big).code(),
            StatusCode::kInvalidArgument);
}

TEST(PagerTest, RejectsBadGeometry) {
  // Not 8-aligned, then too small.
  EXPECT_FALSE(Pager::Open(Vfs::Default(), TempPath("pager6"), 100).ok());
  EXPECT_FALSE(Pager::Open(Vfs::Default(), TempPath("pager7"), 32).ok());
}

// ---------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------

TEST(BufferPoolTest, CachesReads) {
  ScopedFile file(TempPath("pool1"));
  auto pager = Pager::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(pager.ok());
  auto page = (*pager)->Allocate();
  ASSERT_TRUE((*pager)->Write(*page, {7}).ok());
  BufferPool pool(pager->get(), 4);
  ASSERT_TRUE(pool.Get(*page).ok());
  ASSERT_TRUE(pool.Get(*page).ok());
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, WriteBackOnFlush) {
  ScopedFile file(TempPath("pool2"));
  auto pager = Pager::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(pager.ok());
  auto page = (*pager)->Allocate();
  BufferPool pool(pager->get(), 4);
  ASSERT_TRUE(pool.Put(*page, {42}).ok());
  // Not yet on disk.
  auto direct = (*pager)->Read(*page);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct->empty());
  ASSERT_TRUE(pool.Flush().ok());
  direct = (*pager)->Read(*page);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*direct, (std::vector<uint8_t>{42}));
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  ScopedFile file(TempPath("pool3"));
  auto pager = Pager::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(pager.ok());
  std::vector<PageId> pages;
  for (int i = 0; i < 4; ++i) pages.push_back(*(*pager)->Allocate());
  BufferPool pool(pager->get(), 2);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.Put(pages[i], {static_cast<uint8_t>(i)}).ok());
  }
  EXPECT_EQ(pool.cached_pages(), 2u);
  EXPECT_GE(pool.stats().evictions, 2u);
  // Evicted dirty pages reached the disk.
  auto read = (*pager)->Read(pages[0]);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (std::vector<uint8_t>{0}));
}

TEST(BufferPoolTest, LruKeepsHotPages) {
  ScopedFile file(TempPath("pool4"));
  auto pager = Pager::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(pager.ok());
  std::vector<PageId> pages;
  for (int i = 0; i < 3; ++i) {
    auto p = (*pager)->Allocate();
    ASSERT_TRUE((*pager)->Write(*p, {static_cast<uint8_t>(i)}).ok());
    pages.push_back(*p);
  }
  BufferPool pool(pager->get(), 2);
  ASSERT_TRUE(pool.Get(pages[0]).ok());  // miss
  ASSERT_TRUE(pool.Get(pages[1]).ok());  // miss
  ASSERT_TRUE(pool.Get(pages[0]).ok());  // hit, 0 hot
  ASSERT_TRUE(pool.Get(pages[2]).ok());  // miss, evicts 1
  ASSERT_TRUE(pool.Get(pages[0]).ok());  // still cached
  EXPECT_EQ(pool.stats().hits, 2u);
  EXPECT_EQ(pool.stats().misses, 3u);
}

// ---------------------------------------------------------------------
// Log
// ---------------------------------------------------------------------

TEST(LogTest, AppendAndReadBack) {
  ScopedFile file(TempPath("log1"));
  {
    auto writer = LogWriter::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append({LogRecordType::kPut, "k1", "v1"}).ok());
    ASSERT_TRUE((*writer)->Append({LogRecordType::kDelete, "k2", ""}).ok());
    ASSERT_TRUE((*writer)->Append({LogRecordType::kCommit, "", ""}).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  auto reader = LogReader::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(reader.ok());
  LogRecord r;
  ASSERT_TRUE(*(*reader)->Next(&r));
  EXPECT_EQ(r, (LogRecord{LogRecordType::kPut, "k1", "v1"}));
  ASSERT_TRUE(*(*reader)->Next(&r));
  EXPECT_EQ(r, (LogRecord{LogRecordType::kDelete, "k2", ""}));
  ASSERT_TRUE(*(*reader)->Next(&r));
  EXPECT_EQ(r.type, LogRecordType::kCommit);
  EXPECT_FALSE(*(*reader)->Next(&r));
  EXPECT_FALSE((*reader)->saw_corrupt_tail());
}

TEST(LogTest, TornTailDetected) {
  ScopedFile file(TempPath("log2"));
  {
    auto writer = LogWriter::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append({LogRecordType::kPut, "k1", "v1"}).ok());
    ASSERT_TRUE((*writer)->Append({LogRecordType::kPut, "k2", "v2"}).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  TruncateTo(file.path, FileSize(file.path) - 3);
  auto reader = LogReader::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(reader.ok());
  LogRecord r;
  ASSERT_TRUE(*(*reader)->Next(&r));
  EXPECT_EQ(r.key, "k1");
  EXPECT_FALSE(*(*reader)->Next(&r));
  EXPECT_TRUE((*reader)->saw_corrupt_tail());
}

TEST(LogTest, BitFlipDetected) {
  ScopedFile file(TempPath("log3"));
  {
    auto writer = LogWriter::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append({LogRecordType::kPut, "key", "value"}).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  CorruptByte(file.path, 12);  // inside the body
  auto reader = LogReader::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(reader.ok());
  LogRecord r;
  EXPECT_FALSE(*(*reader)->Next(&r));
  EXPECT_TRUE((*reader)->saw_corrupt_tail());
}

TEST(LogTest, AppendsAcrossReopen) {
  ScopedFile file(TempPath("log4"));
  for (int i = 0; i < 3; ++i) {
    auto writer = LogWriter::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        (*writer)->Append({LogRecordType::kPut, "k" + std::to_string(i), "v"})
            .ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  auto reader = LogReader::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(reader.ok());
  int count = 0;
  LogRecord r;
  while (*(*reader)->Next(&r)) ++count;
  EXPECT_EQ(count, 3);
}

TEST(LogTest, OversizedRecordRejectedBeforeAnyBytesReachTheFile) {
  ScopedFile file(TempPath("log_oversize"));
  auto writer = LogWriter::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append({LogRecordType::kPut, "k1", "v1"}).ok());
  const uint64_t bytes_before = (*writer)->bytes_written();

  // A record whose body exceeds the reader's sanity bound must never be
  // written: the reader would treat its length field as a corrupt tail,
  // silently hiding the record and everything appended after it.
  LogRecord oversized{LogRecordType::kPut, "k",
                      std::string(kMaxLogRecordBody, 'x')};
  Status rejected = (*writer)->Append(oversized);
  oversized.value.clear();
  oversized.value.shrink_to_fit();
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*writer)->bytes_written(), bytes_before);
  // A caller error, not I/O damage: the log has no torn frame and the
  // writer stays usable.
  EXPECT_FALSE((*writer)->poisoned());

  // Write/read symmetry: everything the writer accepted, the reader
  // returns, with a clean (not corrupt) end of log.
  ASSERT_TRUE((*writer)->Append({LogRecordType::kPut, "k2", "v2"}).ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  auto reader = LogReader::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(reader.ok());
  LogRecord r;
  ASSERT_TRUE(*(*reader)->Next(&r));
  EXPECT_EQ(r, (LogRecord{LogRecordType::kPut, "k1", "v1"}));
  ASSERT_TRUE(*(*reader)->Next(&r));
  EXPECT_EQ(r, (LogRecord{LogRecordType::kPut, "k2", "v2"}));
  EXPECT_FALSE(*(*reader)->Next(&r));
  EXPECT_FALSE((*reader)->saw_corrupt_tail());
}

TEST(LogTest, WriterPoisonedAfterTornAppend) {
  FaultVfs vfs(0x9015);
  const std::string path = "poison.log";
  auto writer = LogWriter::Open(&vfs, path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append({LogRecordType::kPut, "a", "1"}).ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  const uint64_t synced_size = (*vfs.GetFileBytes(path)).size();

  vfs.CrashAtMutatingOp(1);
  Status torn = (*writer)->Append({LogRecordType::kPut, "b", "2"});
  EXPECT_EQ(torn.code(), StatusCode::kIoError);
  EXPECT_TRUE((*writer)->poisoned());
  vfs.ClearCrash();  // I/O works again, but the torn frame remains

  // The poisoned writer must not strand records behind the torn frame
  // where recovery can never see them: append and sync fail fast.
  EXPECT_EQ((*writer)->Append({LogRecordType::kPut, "c", "3"}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*writer)->Sync().code(), StatusCode::kFailedPrecondition);

  // The failing write applied an RNG-chosen prefix of its bytes (which
  // may be none, some, or all of the frame). Whatever happened, the
  // reader must recover a clean prefix of the appended records: "a"
  // always, "b" only if its frame landed in full, and a corrupt tail
  // reported exactly when partial frame bytes are left behind.
  const uint64_t size_after = (*vfs.GetFileBytes(path)).size();
  auto reader = LogReader::Open(&vfs, path);
  ASSERT_TRUE(reader.ok());
  std::vector<LogRecord> recovered;
  LogRecord r;
  while (*(*reader)->Next(&r)) recovered.push_back(r);
  ASSERT_GE(recovered.size(), 1u);
  ASSERT_LE(recovered.size(), 2u);
  EXPECT_EQ(recovered[0], (LogRecord{LogRecordType::kPut, "a", "1"}));
  if (recovered.size() == 2) {
    EXPECT_EQ(recovered[1], (LogRecord{LogRecordType::kPut, "b", "2"}));
    EXPECT_FALSE((*reader)->saw_corrupt_tail());
  } else {
    EXPECT_EQ((*reader)->saw_corrupt_tail(), size_after > synced_size);
  }
}

// Tail-following cursor (persist::Replica's access pattern): a reader
// that drained the log can Resume() after more appends, OpenAt()
// restarts a cursor at a frame boundary, and a cursor pointed at a
// rotated (truncated) log fails cleanly instead of yielding frames.

TEST(LogTest, ResumeTailFollowsAfterCleanEnd) {
  FaultVfs vfs(0x7A11);
  const std::string path = "tail.log";
  auto writer = LogWriter::Open(&vfs, path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append({LogRecordType::kPut, "a", "1"}).ok());
  ASSERT_TRUE((*writer)->Sync().ok());

  auto reader = LogReader::Open(&vfs, path);
  ASSERT_TRUE(reader.ok());
  LogRecord r;
  ASSERT_TRUE(*(*reader)->Next(&r));
  EXPECT_FALSE(*(*reader)->Next(&r));  // clean end: done
  EXPECT_FALSE((*reader)->saw_corrupt_tail());
  const uint64_t boundary = (*reader)->offset();
  EXPECT_EQ(boundary, (*writer)->bytes_written());

  // The log grows; the same cursor resumes from where it stopped.
  ASSERT_TRUE((*writer)->Append({LogRecordType::kPut, "b", "2"}).ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  EXPECT_FALSE(*(*reader)->Next(&r));  // still latched done...
  (*reader)->Resume();                 // ...until told to look again
  ASSERT_TRUE(*(*reader)->Next(&r));
  EXPECT_EQ(r, (LogRecord{LogRecordType::kPut, "b", "2"}));
  EXPECT_EQ((*reader)->offset(), (*writer)->bytes_written());
}

TEST(LogTest, OpenAtRestartsCursorAtFrameBoundary) {
  FaultVfs vfs(0x7A12);
  const std::string path = "openat.log";
  auto writer = LogWriter::Open(&vfs, path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append({LogRecordType::kPut, "a", "1"}).ok());
  const uint64_t after_first = (*writer)->bytes_written();
  ASSERT_TRUE((*writer)->Append({LogRecordType::kPut, "b", "2"}).ok());
  ASSERT_TRUE((*writer)->Append({LogRecordType::kCommit, "", ""}).ok());
  ASSERT_TRUE((*writer)->Sync().ok());

  // A fresh cursor at a recorded boundary sees exactly the suffix.
  auto reader = LogReader::OpenAt(&vfs, path, after_first);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->offset(), after_first);
  LogRecord r;
  ASSERT_TRUE(*(*reader)->Next(&r));
  EXPECT_EQ(r, (LogRecord{LogRecordType::kPut, "b", "2"}));
  ASSERT_TRUE(*(*reader)->Next(&r));
  EXPECT_EQ(r.type, LogRecordType::kCommit);
  EXPECT_FALSE(*(*reader)->Next(&r));
  EXPECT_FALSE((*reader)->saw_corrupt_tail());
}

TEST(LogTest, StaleCursorAtRotationBoundaryFailsCleanly) {
  FaultVfs vfs(0x7A13);
  const std::string path = "rotate.log";
  {
    auto writer = LogWriter::Open(&vfs, path);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*writer)->Append({LogRecordType::kPut, "k", "vvvvvvvv"}).ok());
    }
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  auto reader = LogReader::Open(&vfs, path);
  ASSERT_TRUE(reader.ok());
  LogRecord r;
  ASSERT_TRUE(*(*reader)->Next(&r));
  ASSERT_TRUE(*(*reader)->Next(&r));
  const uint64_t stale = (*reader)->offset();

  // The log rotates: truncate-and-rewrite, shorter than the cursor.
  {
    auto truncated = vfs.Open(path, OpenMode::kTruncate);
    ASSERT_TRUE(truncated.ok());
  }
  {
    auto writer = LogWriter::Open(&vfs, path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append({LogRecordType::kPut, "n", "1"}).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
    ASSERT_LT((*writer)->bytes_written(), stale);
  }
  // The stale cursor points past the rotated log's end: it must report
  // end-of-log (a clean or torn tail), never a decoded frame.
  (*reader)->Resume();
  EXPECT_FALSE(*(*reader)->Next(&r));

  // And a restarted cursor reads the new generation normally.
  auto fresh = LogReader::OpenAt(&vfs, path, 0);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(*(*fresh)->Next(&r));
  EXPECT_EQ(r, (LogRecord{LogRecordType::kPut, "n", "1"}));
}

TEST(LogTest, CursorPastPoisonedWriterTailStopsAtLastGoodFrame) {
  // A torn append leaves a partial frame mid-file; a tailing cursor
  // must stop *at the last good frame boundary* so a later OpenAt at
  // its offset() re-reads nothing and skips nothing.
  FaultVfs vfs(0x7A14);
  const std::string path = "torntail.log";
  auto writer = LogWriter::Open(&vfs, path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append({LogRecordType::kPut, "a", "1"}).ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  const uint64_t good = (*writer)->bytes_written();

  vfs.CrashAtMutatingOp(1);
  EXPECT_FALSE((*writer)->Append({LogRecordType::kPut, "b", "2"}).ok());
  EXPECT_TRUE((*writer)->poisoned());
  vfs.ClearCrash();

  auto reader = LogReader::Open(&vfs, path);
  ASSERT_TRUE(reader.ok());
  LogRecord r;
  ASSERT_TRUE(*(*reader)->Next(&r));
  const bool more = *(*reader)->Next(&r);
  if (!more && (*reader)->saw_corrupt_tail()) {
    // Partial frame bytes landed: the cursor must sit on the last
    // good boundary, not somewhere inside the torn frame.
    EXPECT_EQ((*reader)->offset(), good);
  }
}

// ---------------------------------------------------------------------
// KvStore
// ---------------------------------------------------------------------

TEST(KvStoreTest, PutGetDelete) {
  ScopedFile file(TempPath("kv1"));
  auto store = KvStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok()) << store.status();
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  ASSERT_TRUE((*store)->Apply(batch).ok());
  EXPECT_EQ(*(*store)->Get("a"), "1");
  EXPECT_EQ(*(*store)->Get("b"), "2");
  WriteBatch batch2;
  batch2.Delete("a");
  batch2.Put("b", "22");
  ASSERT_TRUE((*store)->Apply(batch2).ok());
  EXPECT_EQ((*store)->Get("a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*(*store)->Get("b"), "22");
  EXPECT_EQ((*store)->size(), 1u);
}

TEST(KvStoreTest, SurvivesReopen) {
  ScopedFile file(TempPath("kv2"));
  {
    auto store = KvStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    WriteBatch batch;
    batch.Put("persistent", "yes");
    ASSERT_TRUE((*store)->Apply(batch).ok());
  }
  auto store = KvStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->Get("persistent"), "yes");
  EXPECT_EQ((*store)->recovery_info().batches_committed, 1u);
}

TEST(KvStoreTest, UncommittedTailDroppedAtRecovery) {
  ScopedFile file(TempPath("kv3"));
  {
    auto store = KvStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    WriteBatch batch;
    batch.Put("committed", "1");
    ASSERT_TRUE((*store)->Apply(batch).ok());
  }
  // Simulate a crash mid-batch: append puts with no commit marker.
  {
    auto writer = LogWriter::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        (*writer)->Append({LogRecordType::kPut, "uncommitted", "x"}).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  auto store = KvStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Contains("committed"));
  EXPECT_FALSE((*store)->Contains("uncommitted"));
  EXPECT_EQ((*store)->recovery_info().uncommitted_dropped, 1u);
}

TEST(KvStoreTest, TornFinalRecordRecovers) {
  ScopedFile file(TempPath("kv4"));
  {
    auto store = KvStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    WriteBatch b1;
    b1.Put("a", "1");
    ASSERT_TRUE((*store)->Apply(b1).ok());
    WriteBatch b2;
    b2.Put("b", "2");
    ASSERT_TRUE((*store)->Apply(b2).ok());
  }
  // Tear the last few bytes (the second batch's commit marker).
  TruncateTo(file.path, FileSize(file.path) - 2);
  auto store = KvStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Contains("a"));
  EXPECT_FALSE((*store)->Contains("b"));
  EXPECT_TRUE((*store)->recovery_info().corrupt_tail);
}

TEST(KvStoreTest, BatchIsAtomicAtRecovery) {
  ScopedFile file(TempPath("kv5"));
  {
    auto store = KvStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    WriteBatch batch;
    batch.Put("x", "1");
    batch.Put("y", "2");
    batch.Put("z", "3");
    ASSERT_TRUE((*store)->Apply(batch).ok());
  }
  // Cut in the middle of the batch: none of it may survive.
  TruncateTo(file.path, FileSize(file.path) / 2);
  auto store = KvStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE((*store)->Contains("x"));
  EXPECT_FALSE((*store)->Contains("y"));
  EXPECT_FALSE((*store)->Contains("z"));
  EXPECT_EQ((*store)->size(), 0u);
}

TEST(KvStoreTest, CompactPreservesStateAndShrinksLog) {
  ScopedFile file(TempPath("kv6"));
  auto store = KvStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  // Overwrite the same keys many times.
  for (int i = 0; i < 50; ++i) {
    WriteBatch batch;
    batch.Put("hot", std::to_string(i));
    batch.Put("warm", std::to_string(i * 2));
    ASSERT_TRUE((*store)->Apply(batch).ok());
  }
  off_t before = FileSize(file.path);
  ASSERT_TRUE((*store)->Compact().ok());
  off_t after = FileSize(file.path);
  EXPECT_LT(after, before / 4);
  EXPECT_EQ(*(*store)->Get("hot"), "49");
  EXPECT_EQ(*(*store)->Get("warm"), "98");
  // And the compacted log still replays.
  store->reset();
  auto reopened = KvStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Get("hot"), "49");
}

TEST(KvStoreTest, KeysWithPrefix) {
  ScopedFile file(TempPath("kv7"));
  auto store = KvStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  WriteBatch batch;
  batch.Put("o/1", "a");
  batch.Put("o/2", "b");
  batch.Put("r/main", "c");
  ASSERT_TRUE((*store)->Apply(batch).ok());
  EXPECT_EQ((*store)->KeysWithPrefix("o/"),
            (std::vector<std::string>{"o/1", "o/2"}));
  EXPECT_EQ((*store)->KeysWithPrefix("r/"),
            (std::vector<std::string>{"r/main"}));
  EXPECT_TRUE((*store)->KeysWithPrefix("zz").empty());
}

TEST(KvStoreTest, EmptyBatchIsNoOp) {
  ScopedFile file(TempPath("kv8"));
  auto store = KvStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  WriteBatch batch;
  ASSERT_TRUE((*store)->Apply(batch).ok());
  EXPECT_EQ((*store)->size(), 0u);
}

}  // namespace
}  // namespace dbpl::storage
