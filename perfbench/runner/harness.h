// Shared machinery of the benchmark runner: seeded inputs, latency
// samples, the in-memory span tracer, the primary under test, and the
// tracing decorators that time a wire follower's shipping calls from
// outside the library.
#ifndef PERFBENCH_RUNNER_HARNESS_H_
#define PERFBENCH_RUNNER_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/value.h"
#include "dyndb/database.h"
#include "dyndb/dynamic.h"
#include "persist/wal_database.h"
#include "serve/client.h"
#include "serve/server.h"
#include "storage/vfs.h"
#include "types/type.h"

namespace perfbench {

using dbpl::core::Value;
using dbpl::dyndb::Database;
using dbpl::dyndb::Dynamic;
using dbpl::types::Type;
using EntryId = Database::EntryId;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: every key, record and op choice derives from --seed
/// through one of these, so a seed fixes the whole input stream.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream) : s_(seed * 0x9E3779B97F4A7C15ull ^
                                           (stream + 1) * 0xBF58476D1CE4E5B9ull) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

/// Latency samples of one op class, in nanoseconds, each stamped with
/// the time it completed.
struct Samples {
  std::vector<uint64_t> ns;
  std::vector<uint64_t> at;
  void Add(uint64_t v) {
    ns.push_back(v);
    at.push_back(NowNs());
  }
  void Merge(const Samples& o) {
    ns.insert(ns.end(), o.ns.begin(), o.ns.end());
    at.insert(at.end(), o.at.begin(), o.at.end());
  }
  size_t size() const { return ns.size(); }
};

/// The median of `v` (which must not be empty).
double Median(std::vector<double> v);

/// The q-quantile of `s` in ns, robust to a transient stall: the samples
/// are cut by completion time into up to 5 windows that each keep at
/// least 10 samples beyond the quantile, and the median of the windows'
/// quantiles is reported. False when even one window would have fewer
/// than 10 samples beyond it.
bool Percentile(const Samples& s, double q, double* out_ns,
                std::vector<double>* per_window = nullptr);

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written out at the end.
// ---------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = a root span
  uint64_t request = 0;  // spans of one request share this
  std::string klass;     // op class of the request: get, query, ...
  std::string name;      // layer.call, e.g. "dyndb.get"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t count = 1;  // calls folded into the span (batched replays)
};

class Tracer {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }
  void Record(Span span);
  /// Times `fn` as a span and records it; returns the span id.
  template <typename Fn>
  uint64_t Time(const char* name, uint64_t parent, uint64_t request,
                const std::string& klass, Fn&& fn, uint64_t count = 1) {
    Span s;
    s.id = NewId();
    s.parent = parent;
    s.request = request;
    s.klass = klass;
    s.name = name;
    s.count = count;
    s.start_ns = NowNs();
    fn();
    s.end_ns = NowNs();
    const uint64_t id = s.id;
    Record(std::move(s));
    return id;
  }

  /// Self time of each span: its duration minus the durations of its
  /// children. Replayed server-side calls are children of the client
  /// call they stand in for even though they ran after it, so self
  /// time is computed from durations, not interval overlap.
  struct Totals {
    double self_ns = 0;
    double dur_ns = 0;
    uint64_t spans = 0;
  };
  /// (klass, name) → totals over every recorded span.
  std::map<std::pair<std::string, std::string>, Totals> SelfTimes() const;

  size_t span_count() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_request_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// The primary under test.
// ---------------------------------------------------------------------

/// One preloaded record: the id the database returned for it and the
/// value it must read back as.
struct Stored {
  EntryId id = 0;
  Value value;
};

struct Primary {
  std::string dir;
  std::unique_ptr<dbpl::persist::WalDatabase> wdb;
  std::unique_ptr<dbpl::serve::Server> server;
  std::vector<Stored> preload;
  /// Sum of the encoded sizes of the preloaded entries, and the WAL
  /// bytes they produced (before any checkpoint).
  uint64_t user_bytes = 0;
  uint64_t wal_bytes = 0;

  uint16_t port() const { return server->port(); }
  /// Stops the server, closes the database and removes its directory.
  void Close();
  ~Primary() { Close(); }
};

/// Client over loopback TCP with a receive deadline, so a wedged
/// server fails the run instead of hanging it.
dbpl::Result<dbpl::serve::Client> Dial(uint16_t port);

/// Monotonic count of failures, shared by every thread of a run.
struct Failures {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::mutex mu;
  std::vector<std::string> first;  // the first few failure messages
  void Fail(const std::string& what);
};

// ---------------------------------------------------------------------
// Shipping decorators: time a follower's calls through the WalShipper
// seam (ship_bounds → kShipBounds RPC, ReadAt → kReadChunk RPC).
// ---------------------------------------------------------------------

class TracingShipper : public dbpl::persist::WalShipper {
 public:
  TracingShipper(WalShipper* inner, Tracer* tracer, std::string klass);
  ShipState ship_bounds() const override;
  int shard_count() const override { return inner_->shard_count(); }
  dbpl::storage::Vfs* vfs() const override { return vfs_.get(); }
  const std::string& wal_path(int shard) const override {
    return inner_->wal_path(shard);
  }
  const std::string& checkpoint_path() const override {
    return inner_->checkpoint_path();
  }

 private:
  WalShipper* const inner_;
  Tracer* const tracer_;
  const std::string klass_;
  std::unique_ptr<dbpl::storage::Vfs> vfs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_HARNESS_H_
