// E9 (ablation) — why the intrinsic store is log-structured: in-place
// paged updates vs WAL-backed batches, on the same workload.
//
//  * PagedStore: one page per record, in-place update, flush = write
//    dirty pages + fsync. No atomicity across records (see
//    storage_ablation_test for the torn-batch demonstration).
//  * KvStore: append records + commit marker + fsync; atomic batches,
//    but the log grows until compaction.
//
// Expected shape: for small batches both are fsync-bound and
// comparable; the paged store wins on re-reads of a hot working set
// (buffer pool) while the log store wins on bulk sequential writes —
// and only the log store gives the commit semantics persistence needs.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "storage/kv_store.h"
#include "storage/paged_store.h"

namespace {

using dbpl::storage::KvStore;
using dbpl::storage::PagedStore;
using dbpl::storage::Vfs;
using dbpl::storage::WriteBatch;

std::string TempPath(const std::string& name) {
  return "/tmp/dbpl_bench_e9_" + name + "_" + std::to_string(::getpid());
}

std::string ValueFor(int64_t i) {
  return "value-" + std::to_string(i) + std::string(64, 'x');
}

void BM_PagedStoreCommit(benchmark::State& state) {
  int64_t batch_size = state.range(0);
  const std::string path = TempPath("paged");
  std::remove(path.c_str());
  auto store = PagedStore::Open(Vfs::Default(), path);
  int64_t round = 0;
  for (auto _ : state) {
    for (int64_t i = 0; i < batch_size; ++i) {
      (void)(*store)->Put("key" + std::to_string(i),
                          ValueFor(round * batch_size + i));
    }
    benchmark::DoNotOptimize((*store)->Flush());
    ++round;
  }
  std::remove(path.c_str());
  state.counters["batch"] = static_cast<double>(batch_size);
}

void BM_LogStoreCommit(benchmark::State& state) {
  int64_t batch_size = state.range(0);
  const std::string path = TempPath("log");
  std::remove(path.c_str());
  auto store = KvStore::Open(Vfs::Default(), path);
  int64_t round = 0;
  for (auto _ : state) {
    WriteBatch batch;
    for (int64_t i = 0; i < batch_size; ++i) {
      batch.Put("key" + std::to_string(i), ValueFor(round * batch_size + i));
    }
    benchmark::DoNotOptimize((*store)->Apply(batch));
    ++round;
  }
  std::remove(path.c_str());
  state.counters["batch"] = static_cast<double>(batch_size);
}

void BM_PagedStoreHotReads(benchmark::State& state) {
  const std::string path = TempPath("paged_read");
  std::remove(path.c_str());
  auto store = PagedStore::Open(Vfs::Default(), path);
  for (int64_t i = 0; i < 1024; ++i) {
    (void)(*store)->Put("key" + std::to_string(i), ValueFor(i));
  }
  (void)(*store)->Flush();
  int64_t i = 0;
  for (auto _ : state) {
    auto v = (*store)->Get("key" + std::to_string(i % 64));  // hot set
    benchmark::DoNotOptimize(v);
    ++i;
  }
  std::remove(path.c_str());
}

void BM_LogStoreHotReads(benchmark::State& state) {
  const std::string path = TempPath("log_read");
  std::remove(path.c_str());
  auto store = KvStore::Open(Vfs::Default(), path);
  WriteBatch batch;
  for (int64_t i = 0; i < 1024; ++i) {
    batch.Put("key" + std::to_string(i), ValueFor(i));
  }
  (void)(*store)->Apply(batch);
  int64_t i = 0;
  for (auto _ : state) {
    auto v = (*store)->Get("key" + std::to_string(i % 64));
    benchmark::DoNotOptimize(v);
    ++i;
  }
  std::remove(path.c_str());
}

void BM_LogStoreRecovery(benchmark::State& state) {
  // Replay cost after many overwrites — the log's deferred price.
  int64_t rounds = state.range(0);
  const std::string path = TempPath("recovery");
  std::remove(path.c_str());
  {
    auto store = KvStore::Open(Vfs::Default(), path);
    for (int64_t r = 0; r < rounds; ++r) {
      WriteBatch batch;
      for (int64_t i = 0; i < 64; ++i) {
        batch.Put("key" + std::to_string(i), ValueFor(r));
      }
      (void)(*store)->Apply(batch);
    }
  }
  for (auto _ : state) {
    auto store = KvStore::Open(Vfs::Default(), path);
    benchmark::DoNotOptimize(store);
  }
  std::remove(path.c_str());
  state.counters["overwrite_rounds"] = static_cast<double>(rounds);
}

void BM_PagedStoreRecovery(benchmark::State& state) {
  int64_t rounds = state.range(0);
  const std::string path = TempPath("paged_recovery");
  std::remove(path.c_str());
  {
    auto store = PagedStore::Open(Vfs::Default(), path);
    for (int64_t r = 0; r < rounds; ++r) {
      for (int64_t i = 0; i < 64; ++i) {
        (void)(*store)->Put("key" + std::to_string(i), ValueFor(r));
      }
      (void)(*store)->Flush();
    }
  }
  for (auto _ : state) {
    auto store = PagedStore::Open(Vfs::Default(), path);
    benchmark::DoNotOptimize(store);
  }
  std::remove(path.c_str());
  state.counters["overwrite_rounds"] = static_cast<double>(rounds);
}

}  // namespace

BENCHMARK(BM_PagedStoreCommit)->Arg(1)->Arg(16)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LogStoreCommit)->Arg(1)->Arg(16)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PagedStoreHotReads);
BENCHMARK(BM_LogStoreHotReads);
BENCHMARK(BM_LogStoreRecovery)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PagedStoreRecovery)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMillisecond);
