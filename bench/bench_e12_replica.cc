// E12 — WAL shipping (DESIGN.md §9.2, EXPERIMENTS.md §E12).
//
// The claims under test: a persist::Replica converges through the same
// idempotent replay path as recovery at log-replay speed; replication
// lag under a streaming follower stays bounded (measured in epochs
// behind the primary, p50/p99); and follower reads scale with the
// follower count because each follower is a full dyndb::Database whose
// reads are lock-free snapshots — the primary's write load shifts to
// the followers' poll loops, not to its readers.
//
//  * BM_ReplicaCatchUp        — a fresh follower attaches to a primary
//    holding n committed records: bootstrap + full replay, reported as
//    records/sec shipped.
//  * BM_ReplicaShipBatch      — steady-state shipping: the primary
//    group-commits a batch, one follower poll applies it.
//  * BM_ReplicaLag            — a streaming follower (1 ms cadence)
//    tails a continuously writing primary; each write samples
//    primary-epoch minus follower-epoch. Counters: lag_p50 / lag_p99.
//  * BM_FollowerReads         — aggregate read throughput over
//    1/2/4/8 converged followers, reads-only vs mixed (the primary
//    keeps writing and followers keep polling between reads).
//
// All I/O goes through the production VFS into a fresh temp directory
// per run. Own main: writes BENCH_E12.json (override with
// DBPL_BENCH_E12_JSON) with one record per run so the EXPERIMENTS.md
// §E12 tables regenerate mechanically.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "dyndb/database.h"
#include "persist/replica.h"
#include "persist/wal_database.h"

#include "bench_json.h"
#include "bench_util.h"

namespace {

using dbpl::bench::FreshDir;
using dbpl::bench::MakeRec;
using dbpl::dyndb::Database;
using dbpl::persist::CommitPolicy;
using dbpl::persist::Replica;
using dbpl::persist::WalDatabase;
using dbpl::storage::Vfs;

struct Ctx {
  std::string dir;
  std::unique_ptr<WalDatabase> wdb;
  std::vector<std::unique_ptr<Replica>> followers;
  int64_t next = 0;
};

Ctx* g_ctx = nullptr;

void SetupPrimary(const benchmark::State& state, CommitPolicy policy,
                  int64_t seed_n, int followers) {
  g_ctx = new Ctx;
  g_ctx->dir = FreshDir("dbpl_bench_e12_");
  auto wdb = WalDatabase::Open(Vfs::Default(), g_ctx->dir, policy);
  if (!wdb.ok()) {
    std::cerr << "bench_e12: open failed: " << wdb.status() << "\n";
    std::abort();
  }
  g_ctx->wdb = std::move(*wdb);
  for (int64_t i = 0; i < seed_n; ++i) {
    (void)g_ctx->wdb->InsertValue(MakeRec(i));
  }
  if (seed_n > 0 && !g_ctx->wdb->Commit().ok()) std::abort();
  g_ctx->next = seed_n;
  for (int f = 0; f < followers; ++f) {
    g_ctx->followers.push_back(std::make_unique<Replica>());
    if (!g_ctx->followers.back()->Attach(g_ctx->wdb->shipper()).ok()) {
      std::abort();
    }
  }
  (void)state;
}

void SetupCatchUp(const benchmark::State& state) {
  SetupPrimary(state, CommitPolicy{64, true}, state.range(0), 0);
}

void SetupShipBatch(const benchmark::State& state) {
  SetupPrimary(state, CommitPolicy{static_cast<uint64_t>(state.range(0)), true},
               0, 1);
}

void SetupLag(const benchmark::State& state) {
  SetupPrimary(state, CommitPolicy{8, true}, 0, 0);
}

void SetupReads(const benchmark::State& state) {
  SetupPrimary(state, CommitPolicy{16, true}, 4096,
               static_cast<int>(state.range(0)));
}

void Teardown(const benchmark::State&) {
  g_ctx->followers.clear();
  g_ctx->wdb.reset();
  std::filesystem::remove_all(g_ctx->dir);
  delete g_ctx;
  g_ctx = nullptr;
}

// A fresh follower bootstraps and replays the primary's whole history.
void BM_ReplicaCatchUp(benchmark::State& state) {
  for (auto _ : state) {
    Replica follower;
    if (!follower.Attach(g_ctx->wdb->shipper()).ok()) {
      state.SkipWithError("attach failed");
      return;
    }
    if (follower.Epoch() != g_ctx->wdb->db().epoch()) {
      state.SkipWithError("follower did not converge");
      return;
    }
    benchmark::DoNotOptimize(follower.db().size());
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["records_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0)),
      benchmark::Counter::kIsRate);
}

// Steady state: the primary commits a batch, one poll ships it.
void BM_ReplicaShipBatch(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Replica* follower = g_ctx->followers[0].get();
  for (auto _ : state) {
    for (int64_t i = 0; i < batch; ++i) {
      (void)g_ctx->wdb->InsertValue(MakeRec(g_ctx->next++));
    }
    if (!follower->Poll().ok()) {
      state.SkipWithError("poll failed");
      return;
    }
  }
  if (follower->Epoch() != g_ctx->wdb->db().epoch()) {
    state.SkipWithError("follower did not converge");
    return;
  }
  state.counters["n"] = static_cast<double>(batch);
  state.counters["records_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * batch),
      benchmark::Counter::kIsRate);
}

// Streaming follower lag, in epochs behind the primary, sampled after
// every primary write.
void BM_ReplicaLag(benchmark::State& state) {
  Replica follower;
  if (!follower
           .Attach(g_ctx->wdb->shipper(), {std::chrono::milliseconds(1)})
           .ok()) {
    state.SkipWithError("attach failed");
    return;
  }
  std::vector<uint64_t> lags;
  lags.reserve(4096);
  for (auto _ : state) {
    (void)g_ctx->wdb->InsertValue(MakeRec(g_ctx->next++));
    const uint64_t p = g_ctx->wdb->db().epoch();
    const uint64_t f = follower.Epoch();
    lags.push_back(p - std::min(p, f));
  }
  if (!g_ctx->wdb->Commit().ok()) {
    state.SkipWithError("final commit failed");
    return;
  }
  const uint64_t target = g_ctx->wdb->db().epoch();
  if (!follower.WaitForEpoch(target, std::chrono::seconds(30)).ok()) {
    state.SkipWithError("follower never converged");
    return;
  }
  follower.Detach();
  std::sort(lags.begin(), lags.end());
  auto pct = [&](double q) {
    if (lags.empty()) return 0.0;
    size_t idx = static_cast<size_t>(q * static_cast<double>(lags.size() - 1));
    return static_cast<double>(lags[idx]);
  };
  state.counters["lag_p50"] = pct(0.50);
  state.counters["lag_p99"] = pct(0.99);
  state.counters["n"] = static_cast<double>(state.range(0));
}

// Aggregate follower read throughput, round-robin over k converged
// followers. mixed=1 interleaves primary writes + follower polls with
// the reads; mixed=0 reads a quiesced fleet.
void BM_FollowerReads(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const bool mixed = state.range(1) != 0;
  size_t turn = 0;
  for (auto _ : state) {
    Replica* follower = g_ctx->followers[turn % k].get();
    Database::Snapshot snap = follower->db().GetSnapshot();
    benchmark::DoNotOptimize(snap.Get(turn % snap.size())->value);
    if (mixed && turn % 64 == 0) {
      (void)g_ctx->wdb->InsertValue(MakeRec(g_ctx->next++));
      (void)follower->Poll();
    }
    ++turn;
  }
  state.counters["followers"] = static_cast<double>(k);
  state.counters["mixed"] = mixed ? 1 : 0;
  state.counters["reads_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_ReplicaCatchUp)
    ->Arg(256)
    ->Arg(4096)
    ->UseRealTime()
    ->Setup(SetupCatchUp)
    ->Teardown(Teardown)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ReplicaShipBatch)
    ->Arg(16)
    ->Arg(256)
    ->UseRealTime()
    ->Setup(SetupShipBatch)
    ->Teardown(Teardown)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ReplicaLag)
    ->Arg(0)
    ->UseRealTime()
    ->Setup(SetupLag)
    ->Teardown(Teardown);
BENCHMARK(BM_FollowerReads)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->UseRealTime()
    ->Setup(SetupReads)
    ->Teardown(Teardown);

int main(int argc, char** argv) {
  return dbpl::bench::RunAndWriteJson(argc, argv, "DBPL_BENCH_E12_JSON",
                                      "BENCH_E12.json");
}
