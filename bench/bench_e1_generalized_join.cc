// E1 — Figure 1: the generalized natural join of partial, nested
// objects vs the classical 1NF natural join (the baseline model).
//
// Workload: r1(A, B), r2(B, C) with |r1| = |r2| = n and a shared join
// attribute B drawn from a domain of size n/4 (so the output stays
// linear in n). The generalized join additionally runs with a fraction
// p of partial records (missing A or C), which no 1NF relation can
// even represent.
//
// Variants:
//  * BM_GeneralizedJoin        — the signature-partitioned engine
//    (core::PartitionedPairJoins via GRelation::Join): objects are
//    bucketed by a hash of their ground values on the overlap
//    attributes, so only possibly-consistent pairs are tested.
//  * BM_GeneralizedJoinThreads — the same engine sharded over a small
//    thread pool (JoinOptions{threads}).
//  * BM_GeneralizedJoinNaive   — the all-pairs O(n^2) reference join
//    (GRelation::JoinNaive), kept for differential testing; capped at
//    n = 1024 because it is quadratic.
//  * BM_ClassicalNaturalJoin   — the flat relational hash join on the
//    same data with total records only.
//
// Expected shape (recorded in EXPERIMENTS.md): the naive generalized
// join is O(n^2); partitioning recovers hash-join-like behaviour on
// the ground part of each object, degenerating to a classical hash
// join when all records are flat and total.
//
// This binary has its own main: besides the usual console output it
// writes BENCH_E1.json (override the path with the DBPL_BENCH_E1_JSON
// environment variable) with one record per run — name, variant, n,
// partial_pct, threads, ns_per_op, out_tuples — so EXPERIMENTS.md
// tables can be regenerated mechanically.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/grelation.h"
#include "core/join_engine.h"
#include "core/value.h"
#include "relational/ops.h"
#include "relational/relation.h"

#include "bench_json.h"

namespace {

using dbpl::core::GRelation;
using dbpl::core::JoinOptions;
using dbpl::core::Value;

/// Deterministic xorshift generator.
uint64_t Next(uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

/// r1 objects: {A, B}; with probability p (percent) drop A.
std::vector<Value> MakeLeft(int64_t n, int64_t partial_pct, uint64_t seed) {
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(n));
  int64_t domain = n / 4 + 1;
  for (int64_t i = 0; i < n; ++i) {
    std::vector<dbpl::core::RecordField> fields;
    if (Next(seed) % 100 >= static_cast<uint64_t>(partial_pct)) {
      fields.push_back({"A", Value::Int(i)});
    }
    fields.push_back(
        {"B", Value::Int(static_cast<int64_t>(Next(seed) % domain))});
    out.push_back(Value::RecordOf(std::move(fields)));
  }
  return out;
}

/// r2 objects: {B, C}; with probability p (percent) drop C.
std::vector<Value> MakeRight(int64_t n, int64_t partial_pct, uint64_t seed) {
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(n));
  int64_t domain = n / 4 + 1;
  for (int64_t i = 0; i < n; ++i) {
    std::vector<dbpl::core::RecordField> fields;
    fields.push_back(
        {"B", Value::Int(static_cast<int64_t>(Next(seed) % domain))});
    if (Next(seed) % 100 >= static_cast<uint64_t>(partial_pct)) {
      fields.push_back({"C", Value::Int(i + 1000000)});
    }
    out.push_back(Value::RecordOf(std::move(fields)));
  }
  return out;
}

void RunGeneralized(benchmark::State& state, const JoinOptions& opts) {
  int64_t n = state.range(0);
  int64_t partial_pct = state.range(1);
  GRelation r1 = GRelation::FromObjects(MakeLeft(n, partial_pct, 42));
  GRelation r2 = GRelation::FromObjects(MakeRight(n, partial_pct, 1042));
  size_t out_size = 0;
  for (auto _ : state) {
    auto joined = GRelation::Join(r1, r2, opts);
    if (!joined.ok()) {
      state.SkipWithError(joined.status().message().c_str());
      return;
    }
    out_size = joined->size();
    benchmark::DoNotOptimize(*joined);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["partial_pct"] = static_cast<double>(partial_pct);
  state.counters["threads"] = static_cast<double>(opts.threads);
  state.counters["out_tuples"] = static_cast<double>(out_size);
}

void BM_GeneralizedJoin(benchmark::State& state) {
  RunGeneralized(state, JoinOptions{});
}

void BM_GeneralizedJoinThreads(benchmark::State& state) {
  RunGeneralized(state, JoinOptions{.threads = 4});
}

void BM_GeneralizedJoinNaive(benchmark::State& state) {
  int64_t n = state.range(0);
  int64_t partial_pct = state.range(1);
  GRelation r1 = GRelation::FromObjects(MakeLeft(n, partial_pct, 42));
  GRelation r2 = GRelation::FromObjects(MakeRight(n, partial_pct, 1042));
  size_t out_size = 0;
  for (auto _ : state) {
    auto joined = GRelation::JoinNaive(r1, r2);
    if (!joined.ok()) {
      state.SkipWithError(joined.status().message().c_str());
      return;
    }
    out_size = joined->size();
    benchmark::DoNotOptimize(*joined);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["partial_pct"] = static_cast<double>(partial_pct);
  state.counters["out_tuples"] = static_cast<double>(out_size);
}

void BM_ClassicalNaturalJoin(benchmark::State& state) {
  using dbpl::relational::AtomType;
  using dbpl::relational::Relation;
  using dbpl::relational::Schema;
  int64_t n = state.range(0);
  // Same data, total records only (1NF cannot hold partial tuples).
  Relation r1(Schema::Of({{"A", AtomType::kInt}, {"B", AtomType::kInt}}));
  Relation r2(Schema::Of({{"B", AtomType::kInt}, {"C", AtomType::kInt}}));
  for (const Value& v : MakeLeft(n, 0, 42)) {
    (void)r1.InsertRecord(v);
  }
  for (const Value& v : MakeRight(n, 0, 1042)) {
    (void)r2.InsertRecord(v);
  }
  size_t out_size = 0;
  for (auto _ : state) {
    auto joined = dbpl::relational::NaturalJoin(r1, r2);
    out_size = joined->size();
    benchmark::DoNotOptimize(joined);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["out_tuples"] = static_cast<double>(out_size);
}

}  // namespace

BENCHMARK(BM_GeneralizedJoin)
    ->ArgsProduct({{64, 256, 1024, 4096, 16384}, {0, 25, 50}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GeneralizedJoinThreads)
    ->ArgsProduct({{1024, 4096, 16384}, {0, 50}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_GeneralizedJoinNaive)
    ->ArgsProduct({{64, 256, 1024}, {0, 50}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClassicalNaturalJoin)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return dbpl::bench::RunAndWriteJson(argc, argv, "DBPL_BENCH_E1_JSON",
                                      "BENCH_E1.json");
}
