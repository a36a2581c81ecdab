// E3 — the three persistence models: cost of "touch k objects, then
// make the state durable" as the database grows.
//
//  * all-or-nothing (SnapshotStore): rewrite the whole image;
//  * replicating (ReplicatingStore): re-extern the whole reachable
//    structure behind the handle (a copy, per the paper);
//  * intrinsic (IntrinsicStore): commit writes only the delta through
//    the write-ahead log.
//
// Expected shape: snapshot and replicating grow linearly with database
// size even though only k = 16 objects changed; intrinsic stays flat —
// the quantitative version of the paper's argument for intrinsic
// persistence.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/heap.h"
#include "dyndb/dynamic.h"
#include "persist/intrinsic_store.h"
#include "persist/replicating_store.h"
#include "persist/snapshot_store.h"

namespace {

using dbpl::core::Heap;
using dbpl::core::Oid;
using dbpl::core::Value;
using dbpl::storage::Vfs;

constexpr int64_t kTouched = 16;

std::string TempPath(const std::string& name) {
  return "/tmp/dbpl_bench_e3_" + name + "_" + std::to_string(::getpid());
}

Value MakeObject(int64_t i) {
  return Value::RecordOf({{"Name", Value::String("obj" + std::to_string(i))},
                          {"Seq", Value::Int(i)},
                          {"Flag", Value::Bool((i & 1) != 0)}});
}

/// Builds a heap of n objects plus a root list referencing all of them;
/// returns the root oid.
Oid FillHeap(Heap& heap, int64_t n, std::vector<Oid>* oids) {
  std::vector<Value> refs;
  for (int64_t i = 0; i < n; ++i) {
    Oid oid = heap.Allocate(MakeObject(i));
    oids->push_back(oid);
    refs.push_back(Value::Ref(oid));
  }
  return heap.Allocate(Value::List(std::move(refs)));
}

void TouchSome(Heap& heap, const std::vector<Oid>& oids, int64_t round) {
  for (int64_t k = 0; k < kTouched; ++k) {
    Oid target = oids[static_cast<size_t>(
        (round * 7919 + k * 104729) % static_cast<int64_t>(oids.size()))];
    (void)heap.Put(target, MakeObject(round * 1000 + k));
  }
}

void BM_SnapshotPersistence(benchmark::State& state) {
  int64_t n = state.range(0);
  const std::string path = TempPath("snapshot");
  Heap heap;
  std::vector<Oid> oids;
  Oid root = FillHeap(heap, n, &oids);
  std::map<std::string, Oid> roots = {{"root", root}};
  int64_t round = 0;
  for (auto _ : state) {
    TouchSome(heap, oids, round++);
    benchmark::DoNotOptimize(
        dbpl::persist::SnapshotStore::Save(Vfs::Default(), path, heap, roots));
  }
  std::remove(path.c_str());
  state.counters["n"] = static_cast<double>(n);
}

void BM_ReplicatingPersistence(benchmark::State& state) {
  int64_t n = state.range(0);
  const std::string dir = TempPath("repl");
  auto store = dbpl::persist::ReplicatingStore::Open(Vfs::Default(), dir);
  Heap heap;
  std::vector<Oid> oids;
  Oid root = FillHeap(heap, n, &oids);
  dbpl::dyndb::Dynamic handle = dbpl::dyndb::MakeDynamic(Value::Ref(root));
  int64_t round = 0;
  for (auto _ : state) {
    TouchSome(heap, oids, round++);
    benchmark::DoNotOptimize((*store)->Extern("db", handle, &heap));
  }
  std::string cmd = "rm -rf " + dir;
  (void)std::system(cmd.c_str());
  state.counters["n"] = static_cast<double>(n);
}

void BM_IntrinsicPersistence(benchmark::State& state) {
  int64_t n = state.range(0);
  const std::string path = TempPath("intrinsic");
  std::remove(path.c_str());
  auto store = dbpl::persist::IntrinsicStore::Open(Vfs::Default(), path);
  Heap& heap = (*store)->heap();
  std::vector<Oid> oids;
  Oid root = FillHeap(heap, n, &oids);
  (void)(*store)->SetRoot("root", root);
  (void)(*store)->Commit();
  int64_t round = 0;
  for (auto _ : state) {
    TouchSome(heap, oids, round++);
    benchmark::DoNotOptimize((*store)->Commit());
  }
  uint64_t log_bytes = (*store)->kv().log_bytes();
  std::remove(path.c_str());
  state.counters["n"] = static_cast<double>(n);
  state.counters["log_bytes"] = static_cast<double>(log_bytes);
}

/// The intrinsic model's deferred cost: log growth vs compaction.
void BM_IntrinsicCompaction(benchmark::State& state) {
  int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    const std::string path = TempPath("compact");
    std::remove(path.c_str());
    auto store = dbpl::persist::IntrinsicStore::Open(Vfs::Default(), path);
    Heap& heap = (*store)->heap();
    std::vector<Oid> oids;
    Oid root = FillHeap(heap, n, &oids);
    (void)(*store)->SetRoot("root", root);
    for (int round = 0; round < 32; ++round) {
      TouchSome(heap, oids, round);
      (void)(*store)->Commit();
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize((*store)->CompactStorage());
    state.PauseTiming();
    std::remove(path.c_str());
    state.ResumeTiming();
  }
  state.counters["n"] = static_cast<double>(n);
}

}  // namespace

BENCHMARK(BM_SnapshotPersistence)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReplicatingPersistence)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IntrinsicPersistence)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IntrinsicCompaction)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);
