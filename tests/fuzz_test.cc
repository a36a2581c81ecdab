// Robustness ("fuzz-lite") tests: every parser and decoder in the
// library must reject arbitrary or mutated input with a clean Status —
// never a crash, hang, or unbounded allocation. Deterministic PRNG so
// failures reproduce.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "lang/interp.h"
#include "lang/parser.h"
#include "serial/decoder.h"
#include "serial/encoder.h"
#include "storage/fault_vfs.h"
#include "storage/log.h"
#include "storage/pager.h"
#include "test_util.h"
#include "types/parse.h"

namespace dbpl {
namespace {

using dbpl::testing::Rng;

std::vector<uint8_t> RandomBytes(Rng& rng, size_t max_len) {
  std::vector<uint8_t> out(rng.Below(max_len + 1));
  for (auto& b : out) b = static_cast<uint8_t>(rng.Below(256));
  return out;
}

TEST(FuzzTest, DecodeValueOnRandomBytesNeverCrashes) {
  Rng rng(0xF00D);
  for (int i = 0; i < 3000; ++i) {
    std::vector<uint8_t> bytes = RandomBytes(rng, 64);
    ByteReader in(bytes.data(), bytes.size());
    auto v = serial::DecodeValue(&in);
    // Either a value or a clean error; both are acceptable.
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(FuzzTest, DecodeTypeOnRandomBytesNeverCrashes) {
  Rng rng(0xBEEF);
  for (int i = 0; i < 3000; ++i) {
    std::vector<uint8_t> bytes = RandomBytes(rng, 64);
    ByteReader in(bytes.data(), bytes.size());
    auto t = serial::DecodeType(&in);
    if (!t.ok()) {
      EXPECT_EQ(t.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(FuzzTest, MutatedValidPayloadsFailCleanly) {
  // Encode real values, flip one byte at every position, decode. The
  // decoder may still succeed (the flip may hit a don't-care), but it
  // must never crash, and successes must produce *some* valid value.
  Rng rng(0xCAFE);
  auto corpus = dbpl::testing::Corpus(0x5EED, 20, 2);
  for (const auto& v : corpus) {
    ByteBuffer buf;
    serial::EncodeValue(v, &buf);
    for (size_t pos = 0; pos < buf.size(); ++pos) {
      std::vector<uint8_t> mutated = buf.vec();
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.Below(255));
      ByteReader in(mutated.data(), mutated.size());
      auto decoded = serial::DecodeValue(&in);
      if (decoded.ok()) {
        // Render it: exercises every accessor on the decoded shape.
        EXPECT_FALSE(decoded->ToString().empty());
      }
    }
  }
}

TEST(FuzzTest, TypeParserOnNoise) {
  Rng rng(0x7E57);
  const char alphabet[] = "{}[]()<>|,:.->IntStrgBol ForalExists Mu tuv";
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    size_t len = rng.Below(40);
    for (size_t k = 0; k < len; ++k) {
      text.push_back(alphabet[rng.Below(sizeof(alphabet) - 1)]);
    }
    auto t = types::ParseType(text);
    if (t.ok()) {
      // Whatever parsed must round-trip through its own printer.
      auto again = types::ParseType(t->ToString());
      ASSERT_TRUE(again.ok()) << t->ToString();
      EXPECT_EQ(*again, *t);
    }
  }
}

TEST(FuzzTest, LangParserOnNoise) {
  Rng rng(0x1234);
  const char alphabet[] =
      "letfunifthenelsedynamiccoercetotypeofjoininsertintogetfromdatabase"
      " (){}[]=;:.,+-*/<>\"'xyz123";
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    size_t len = rng.Below(60);
    for (size_t k = 0; k < len; ++k) {
      text.push_back(alphabet[rng.Below(sizeof(alphabet) - 1)]);
    }
    auto p = lang::Parse(text);
    // Either parses or fails cleanly; never crashes.
    if (!p.ok()) {
      EXPECT_FALSE(p.status().message().empty());
    }
  }
}

TEST(FuzzTest, InterpreterOnMutatedValidPrograms) {
  const std::string base = R"(
    type Person = {Name: String};
    let db = database;
    insert {Name = "p"} into db;
    let d = dynamic 3;
    coerce d to Int;
    length(get Person from db);
  )";
  Rng rng(0xABCD);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = base;
    // Apply 1-3 random single-character mutations.
    size_t edits = 1 + rng.Below(3);
    for (size_t k = 0; k < edits; ++k) {
      size_t pos = rng.Below(mutated.size());
      mutated[pos] = static_cast<char>(32 + rng.Below(95));
    }
    lang::Interp interp;
    auto out = interp.Run(mutated);
    // Either runs or reports a clean Status.
    if (!out.ok()) {
      EXPECT_FALSE(out.status().message().empty());
    }
  }
}

TEST(FuzzTest, LogReaderOnRandomFiles) {
  Rng rng(0xD15C);
  const std::string path = ::testing::TempDir() + "/dbpl_fuzz_log";
  for (int i = 0; i < 100; ++i) {
    {
      std::remove(path.c_str());
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      auto bytes = RandomBytes(rng, 256);
      std::fwrite(bytes.data(), 1, bytes.size(), f);
      std::fclose(f);
    }
    auto reader = storage::LogReader::Open(storage::Vfs::Default(), path);
    ASSERT_TRUE(reader.ok());
    storage::LogRecord record;
    int guard = 0;
    while (true) {
      auto has = (*reader)->Next(&record);
      ASSERT_TRUE(has.ok());
      if (!*has) break;
      ASSERT_LT(++guard, 1000);  // must terminate
    }
  }
  std::remove(path.c_str());
}

TEST(FuzzTest, LogReaderOnRandomBuffersInMemory) {
  // Same property as LogReaderOnRandomFiles, but through the in-memory
  // FaultVfs: many more iterations, no disk I/O.
  Rng rng(0x106F);
  storage::FaultVfs vfs(0x106F);
  const std::string path = "fuzz/log";
  for (int i = 0; i < 300; ++i) {
    vfs.SetFileBytes(path, RandomBytes(rng, 512));
    auto reader = storage::LogReader::Open(&vfs, path);
    ASSERT_TRUE(reader.ok());
    storage::LogRecord record;
    int guard = 0;
    while (true) {
      auto has = (*reader)->Next(&record);
      ASSERT_TRUE(has.ok()) << has.status();
      if (!*has) break;
      ASSERT_LT(++guard, 1000);  // must terminate
    }
  }
}

TEST(FuzzTest, PagerReadOnRandomBuffersInMemory) {
  // Arbitrary bytes presented as a page file: every page either reads
  // back cleanly or fails with kCorruption — never crashes.
  Rng rng(0x9A6E);
  storage::FaultVfs vfs(0x9A6E);
  constexpr uint32_t kPageSize = 64;
  const std::string path = "fuzz/pages";
  for (int i = 0; i < 300; ++i) {
    auto bytes = RandomBytes(rng, 8 * kPageSize);
    bytes.resize(bytes.size() - bytes.size() % kPageSize);
    vfs.SetFileBytes(path, bytes);
    auto pager = storage::Pager::Open(&vfs, path, kPageSize);
    ASSERT_TRUE(pager.ok()) << pager.status();
    for (uint64_t page = 0; page < (*pager)->page_count(); ++page) {
      auto data = (*pager)->Read(page);
      if (!data.ok()) {
        EXPECT_EQ(data.status().code(), StatusCode::kCorruption);
      }
    }
  }
  // A file that is not a whole number of pages is rejected at open.
  vfs.SetFileBytes(path, std::vector<uint8_t>(kPageSize + 1, 0xAB));
  auto pager = storage::Pager::Open(&vfs, path, kPageSize);
  ASSERT_FALSE(pager.ok());
  EXPECT_EQ(pager.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace dbpl
