// E14 — dbpl-serve under closed-loop load (DESIGN.md §12,
// EXPERIMENTS.md §E14).
//
// A closed-loop generator against a real dbpl_serve server over
// loopback TCP: C connections, one thread per connection, each thread
// issuing its next request only after the previous response arrived.
// Per-request latency is measured around the full wire round trip
// (encode → TCP → server execute → TCP → decode), aggregated into
// p50/p99 per configuration.
//
//  * workload "reads"  — point Get of a random preloaded entry;
//    resolves against a lock-free snapshot on the server.
//  * workload "mixed"  — 90% Get / 10% Insert; writes funnel through
//    the WAL group-commit path (every_n = 64, sync off: the fsync cost
//    of the durability ladder is E11's subject, not the protocol's).
//  * overload          — more connections offered than max_sessions:
//    counts how many were admitted vs shed with kUnavailable. Shed
//    connections get an explicit error frame, never a hang.
//
// Results go to BENCH_SERVE.json (override with DBPL_BENCH_SERVE_JSON)
// with provenance. Honesty note: this host serializes everything —
// client threads and server workers — onto its core count (see
// "host_cores" in the provenance stamp); with 1 core the connection
// sweep measures protocol + scheduling overhead under contention, not
// parallel speedup. The closed loop means offered load self-throttles:
// latency, not drop rate, is what degrades as C grows.
//
// Own main: no google-benchmark loop fits a percentile-over-
// connections sweep, so the binary drives itself (--smoke runs a
// seconds-scale subset for `ctest -L bench-smoke`).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/value.h"
#include "persist/wal_database.h"
#include "serve/client.h"
#include "serve/server.h"
#include "storage/vfs.h"

#include "provenance.h"

namespace {

using dbpl::core::Value;
using dbpl::persist::WalDatabase;
using dbpl::persist::WalOptions;
using dbpl::serve::Client;
using dbpl::serve::ServeOptions;
using dbpl::serve::Server;

constexpr int kPreload = 8192;
// Point reads target this prefix of the id space: with hash-routed
// shards the top of [0, kPreload) can be sparsely assigned (ids encode
// shard sequence), and a NotFound would pollute the latency sample.
constexpr int kQueryRange = kPreload - 512;
constexpr uint64_t kTotalOpsPerConfig = 24000;  // split across connections

Value Rec(int64_t i) {
  return Value::RecordOf(
      {{"Seq", Value::Int(i)},
       {"Payload", Value::String("p" + std::to_string(i % 97))}});
}

/// xorshift; one per thread, no shared state.
struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed * 2654435761u + 1) {}
  uint64_t Next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

struct SweepResult {
  std::string workload;
  int connections = 0;
  uint64_t ops = 0;
  uint64_t errors = 0;
  double p50_us = 0, p99_us = 0, throughput_rps = 0;
};

double PercentileUs(std::vector<uint64_t>& ns, double q) {
  if (ns.empty()) return 0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + static_cast<long>(idx), ns.end());
  return static_cast<double>(ns[idx]) / 1000.0;
}

/// One closed-loop sweep: `connections` threads, each its own TCP
/// connection, each issuing `ops_per_conn` sequential requests.
SweepResult RunSweep(uint16_t port, const std::string& workload,
                     int connections, uint64_t ops_per_conn) {
  SweepResult result;
  result.workload = workload;
  result.connections = connections;
  const bool mixed = workload == "mixed";

  std::vector<std::vector<uint64_t>> latencies(
      static_cast<size_t>(connections));
  std::vector<uint64_t> errors(static_cast<size_t>(connections), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  const auto wall_start = std::chrono::steady_clock::now();
  for (int t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        errors[static_cast<size_t>(t)] = ops_per_conn;
        return;
      }
      Rng rng(static_cast<uint64_t>(t) + 12345);
      auto& lat = latencies[static_cast<size_t>(t)];
      lat.reserve(ops_per_conn);
      for (uint64_t i = 0; i < ops_per_conn; ++i) {
        const auto start = std::chrono::steady_clock::now();
        bool ok;
        if (mixed && rng.Next() % 10 == 0) {
          ok = client->InsertValue(Rec(static_cast<int64_t>(rng.Next()))).ok();
        } else {
          ok = client->Get(rng.Next() % kQueryRange).ok();
        }
        const auto end = std::chrono::steady_clock::now();
        if (!ok) {
          ++errors[static_cast<size_t>(t)];
          continue;
        }
        lat.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count()));
      }
    });
  }
  for (auto& th : threads) th.join();
  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  std::vector<uint64_t> all;
  for (auto& v : latencies) {
    all.insert(all.end(), v.begin(), v.end());
  }
  for (uint64_t e : errors) result.errors += e;
  result.ops = all.size();
  result.p50_us = PercentileUs(all, 0.50);
  result.p99_us = PercentileUs(all, 0.99);
  result.throughput_rps =
      wall_s > 0 ? static_cast<double>(result.ops) / wall_s : 0;
  return result;
}

struct OverloadResult {
  int offered = 0, max_sessions = 0;
  int served = 0, shed = 0, other_error = 0;
};

/// Offers `offered` concurrent connections to a server admitting at
/// most `max_sessions`; each tries one Ping. Sheds must surface as
/// kUnavailable, not hangs or resets.
OverloadResult RunOverload(WalDatabase* wdb, int max_sessions, int offered) {
  OverloadResult result;
  result.offered = offered;
  result.max_sessions = max_sessions;
  ServeOptions opts;
  opts.workers = 4;
  opts.max_sessions = max_sessions;
  opts.listen = true;
  opts.backlog = offered;
  auto server = Server::Start(wdb, opts);
  if (!server.ok()) {
    std::cerr << "overload server start: " << server.status() << "\n";
    return result;
  }
  std::vector<int> outcome(static_cast<size_t>(offered), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(offered));
  for (int t = 0; t < offered; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", (*server)->port());
      if (!client.ok()) {
        outcome[static_cast<size_t>(t)] = 2;
        return;
      }
      // Hold the session across everyone's attempt so admissions
      // actually accumulate to the cap.
      dbpl::Status ping = client->Ping();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (ping.ok()) {
        outcome[static_cast<size_t>(t)] = 0;
      } else if (ping.code() == dbpl::StatusCode::kUnavailable) {
        outcome[static_cast<size_t>(t)] = 1;
      } else {
        outcome[static_cast<size_t>(t)] = 2;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int o : outcome) {
    if (o == 0) ++result.served;
    else if (o == 1) ++result.shed;
    else ++result.other_error;
  }
  return result;
}

/// Raises RLIMIT_NOFILE towards `want` fds; returns the usable cap.
uint64_t RaiseFdLimit(uint64_t want) {
  struct rlimit lim;
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  if (lim.rlim_cur < want && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = std::min<rlim_t>(want, lim.rlim_max);
    (void)setrlimit(RLIMIT_NOFILE, &lim);
    (void)getrlimit(RLIMIT_NOFILE, &lim);
  }
  return lim.rlim_cur;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("dbpl_bench_serve_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  // Durability knobs are E11's subject; here the WAL runs with group
  // markers but no fsync so the wire protocol is what's measured.
  auto wdb = WalDatabase::Open(dbpl::storage::Vfs::Default(), dir,
                               WalOptions{{64, false}, 2});
  if (!wdb.ok()) {
    std::cerr << "bench_serve: open: " << wdb.status() << "\n";
    return 1;
  }
  for (int64_t i = 0; i < kPreload; ++i) {
    (void)(*wdb)->InsertValue(Rec(i));
  }

  std::vector<int> conn_sweep =
      smoke ? std::vector<int>{1, 4}
            : std::vector<int>{1, 4, 16, 64, 256, 1024};
  // Each connection is one client fd + one server session fd, plus
  // headroom for the process itself.
  const uint64_t fd_cap = RaiseFdLimit(
      static_cast<uint64_t>(2 * conn_sweep.back() + 256));

  ServeOptions opts;
  opts.workers = 4;
  opts.max_sessions = conn_sweep.back() + 16;
  opts.listen = true;
  opts.backlog = conn_sweep.back();
  auto server = Server::Start(wdb->get(), opts);
  if (!server.ok()) {
    std::cerr << "bench_serve: start: " << server.status() << "\n";
    return 1;
  }

  std::vector<SweepResult> sweeps;
  for (const char* workload : {"reads", "mixed"}) {
    for (int c : conn_sweep) {
      if (static_cast<uint64_t>(2 * c + 64) > fd_cap) {
        std::cerr << "bench_serve: skipping " << workload << "/" << c
                  << " connections (fd limit " << fd_cap << ")\n";
        continue;
      }
      const uint64_t per_conn = std::max<uint64_t>(
          smoke ? 25 : 40, (smoke ? 200 : kTotalOpsPerConfig) /
                               static_cast<uint64_t>(c));
      SweepResult r = RunSweep((*server)->port(), workload, c, per_conn);
      std::printf(
          "%-5s conns=%-5d ops=%-7llu p50=%8.1fus p99=%9.1fus "
          "thrpt=%9.0f rps errors=%llu\n",
          r.workload.c_str(), r.connections,
          static_cast<unsigned long long>(r.ops), r.p50_us, r.p99_us,
          r.throughput_rps, static_cast<unsigned long long>(r.errors));
      sweeps.push_back(std::move(r));
    }
  }
  (*server)->Stop();

  OverloadResult overload =
      smoke ? RunOverload(wdb->get(), 4, 16) : RunOverload(wdb->get(), 64, 256);
  std::printf(
      "overload: offered=%d cap=%d served=%d shed(kUnavailable)=%d "
      "other=%d\n",
      overload.offered, overload.max_sessions, overload.served,
      overload.shed, overload.other_error);

  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once after all workers
  // joined.
  const char* json_path = std::getenv("DBPL_BENCH_SERVE_JSON");
  std::ofstream out(json_path != nullptr ? json_path : "BENCH_SERVE.json",
                    std::ios::trunc);
  out << "{\"provenance\": " << dbpl::bench::ProvenanceJson() << ",\n"
      << " \"note\": \"closed-loop, loopback TCP, 1 thread/connection; "
         "WAL group markers without fsync; on a low-core host the sweep "
         "measures protocol+scheduling overhead under contention, not "
         "parallel speedup\",\n"
      << " \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << " \"results\": [\n";
  for (size_t i = 0; i < sweeps.size(); ++i) {
    const SweepResult& r = sweeps[i];
    out << "  {\"workload\": \"" << r.workload
        << "\", \"connections\": " << r.connections << ", \"ops\": " << r.ops
        << ", \"errors\": " << r.errors << ", \"p50_us\": " << r.p50_us
        << ", \"p99_us\": " << r.p99_us
        << ", \"throughput_rps\": " << r.throughput_rps << "}"
        << (i + 1 < sweeps.size() ? "," : "") << "\n";
  }
  out << " ],\n \"overload\": {\"offered\": " << overload.offered
      << ", \"max_sessions\": " << overload.max_sessions
      << ", \"served\": " << overload.served << ", \"shed\": " << overload.shed
      << ", \"other_error\": " << overload.other_error << "}}\n";
  out.close();

  std::filesystem::remove_all(dir);
  return 0;
}
