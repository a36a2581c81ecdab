// E15 — WAL shipping over the wire (DESIGN.md §9.3, EXPERIMENTS.md §E15).
//
// The claims under test: an unmodified persist::Replica tails a
// dbpl-serve primary across a real TCP socket through
// serve::RemoteShipper, so network shipping pays only the transport —
// the replay path is byte-for-byte the one the in-process crash matrix
// proves; and the extra hop keeps replication lag (measured in epochs
// behind the primary, p50/p99) bounded under a streaming follower.
//
//  * BM_WireCatchUp      — a fresh follower dials the primary over
//    loopback and bootstraps n committed records: kShipBounds
//    handshake + chunked checkpoint/WAL reads + replay, reported as
//    records/sec shipped (compare BM_ReplicaCatchUp for the in-process
//    baseline).
//  * BM_WireShipBatch    — steady-state shipping over the socket: the
//    primary group-commits a batch, one wire poll applies it.
//  * BM_WireFollowerLag  — a streaming wire follower (1 ms cadence)
//    tails a continuously writing primary over loopback TCP; each
//    write samples primary-epoch minus follower-epoch. Counters:
//    lag_p50 / lag_p99.
//
// The primary's I/O goes through the production VFS into a fresh temp
// directory per run; the follower reads only through the wire. Own
// main: writes BENCH_E15.json (override with DBPL_BENCH_E15_JSON) with
// one record per run so the EXPERIMENTS.md §E15 tables regenerate
// mechanically.

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

#include "persist/replica.h"
#include "persist/wal_database.h"
#include "serve/remote_shipper.h"
#include "serve/server.h"

#include "bench_json.h"
#include "bench_util.h"

namespace {

using dbpl::bench::FreshDir;
using dbpl::bench::MakeRec;
using dbpl::persist::CommitPolicy;
using dbpl::persist::Replica;
using dbpl::persist::WalDatabase;
using dbpl::serve::RemoteShipper;
using dbpl::serve::ServeOptions;
using dbpl::serve::Server;
using dbpl::storage::Vfs;

struct Ctx {
  std::string dir;
  std::unique_ptr<WalDatabase> wdb;
  std::unique_ptr<Server> server;
  std::unique_ptr<RemoteShipper> shipper;
  std::unique_ptr<Replica> follower;
  int64_t next = 0;
};

Ctx* g_ctx = nullptr;

// Dials a fresh shipper at the benchmark's primary. Lag RPCs are
// loopback round trips, so a tight receive deadline keeps a wedged run
// from hanging the whole suite.
std::unique_ptr<RemoteShipper> Dial() {
  RemoteShipper::Options opts;
  opts.recv_timeout = std::chrono::milliseconds(10000);
  auto shipper =
      RemoteShipper::Connect("127.0.0.1", g_ctx->server->port(), opts);
  if (!shipper.ok()) {
    std::cerr << "bench_e15: connect failed: " << shipper.status() << "\n";
    std::abort();
  }
  return std::move(*shipper);
}

void SetupPrimary(const benchmark::State& state, CommitPolicy policy,
                  int64_t seed_n, bool wire_follower) {
  g_ctx = new Ctx;
  g_ctx->dir = FreshDir("dbpl_bench_e15_");
  auto wdb = WalDatabase::Open(Vfs::Default(), g_ctx->dir, policy);
  if (!wdb.ok()) {
    std::cerr << "bench_e15: open failed: " << wdb.status() << "\n";
    std::abort();
  }
  g_ctx->wdb = std::move(*wdb);
  for (int64_t i = 0; i < seed_n; ++i) {
    (void)g_ctx->wdb->InsertValue(MakeRec(i));
  }
  if (seed_n > 0 && !g_ctx->wdb->Commit().ok()) std::abort();
  g_ctx->next = seed_n;

  ServeOptions opts;
  opts.listen = true;
  opts.port = 0;  // ephemeral
  opts.workers = 2;
  auto server = Server::Start(g_ctx->wdb.get(), opts);
  if (!server.ok()) {
    std::cerr << "bench_e15: server start failed: " << server.status() << "\n";
    std::abort();
  }
  g_ctx->server = std::move(*server);
  g_ctx->shipper = Dial();
  if (wire_follower) {
    g_ctx->follower = std::make_unique<Replica>();
    if (!g_ctx->follower->Attach(g_ctx->shipper.get()).ok()) std::abort();
  }
  (void)state;
}

void SetupCatchUp(const benchmark::State& state) {
  SetupPrimary(state, CommitPolicy{64, true}, state.range(0), false);
}

void SetupShipBatch(const benchmark::State& state) {
  SetupPrimary(state, CommitPolicy{static_cast<uint64_t>(state.range(0)), true},
               0, true);
}

void SetupLag(const benchmark::State& state) {
  SetupPrimary(state, CommitPolicy{8, true}, 0, false);
}

void Teardown(const benchmark::State&) {
  g_ctx->follower.reset();
  g_ctx->shipper.reset();
  g_ctx->server.reset();
  g_ctx->wdb.reset();
  std::filesystem::remove_all(g_ctx->dir);
  delete g_ctx;
  g_ctx = nullptr;
}

// A fresh follower dials the primary and replays its whole history
// over the socket.
void BM_WireCatchUp(benchmark::State& state) {
  for (auto _ : state) {
    std::unique_ptr<RemoteShipper> shipper = Dial();
    Replica follower;
    if (!follower.Attach(shipper.get()).ok()) {
      state.SkipWithError("attach failed");
      return;
    }
    if (follower.Epoch() != g_ctx->wdb->db().epoch()) {
      state.SkipWithError("follower did not converge");
      return;
    }
    benchmark::DoNotOptimize(follower.db().size());
    follower.Detach();
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["records_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0)),
      benchmark::Counter::kIsRate);
}

// Steady state: the primary commits a batch, one wire poll ships it.
void BM_WireShipBatch(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Replica* follower = g_ctx->follower.get();
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

// Streaming wire follower lag, in epochs behind the primary, sampled
// after every primary write.
void BM_WireFollowerLag(benchmark::State& state) {
  Replica follower;
  if (!follower
           .Attach(g_ctx->shipper.get(), {std::chrono::milliseconds(1)})
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
  const RemoteShipper::Stats ss = g_ctx->shipper->stats();
  state.counters["rpcs"] = static_cast<double>(ss.rpcs);
}

}  // namespace

BENCHMARK(BM_WireCatchUp)
    ->Arg(256)
    ->Arg(4096)
    ->UseRealTime()
    ->Setup(SetupCatchUp)
    ->Teardown(Teardown)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WireShipBatch)
    ->Arg(16)
    ->Arg(256)
    ->UseRealTime()
    ->Setup(SetupShipBatch)
    ->Teardown(Teardown)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WireFollowerLag)
    ->Arg(0)
    ->UseRealTime()
    ->Setup(SetupLag)
    ->Teardown(Teardown);

int main(int argc, char** argv) {
  return dbpl::bench::RunAndWriteJson(argc, argv, "DBPL_BENCH_E15_JSON",
                                      "BENCH_E15.json");
}
