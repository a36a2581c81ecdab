// The workloads, their correctness oracles, and the traced run.
//
// Every workload serves one persist::WalDatabase through an in-process
// serve::Server on loopback TCP and drives it with closed-loop clients
// (each connection waits for its reply before sending the next
// request). A run is kRounds repetitions on a fresh primary. Besides the
// phases a workload exists to measure, each repetition runs fixed-size
// probes on the same primary, so that every workload reports every
// end-to-end metric (perfbench/README.md has the full table):
//
//   point          query probe; a cold wire follower attaches (WAL
//                  replay) and insert+commit pairs wait for it; then 1
//                  and 4 connections of 90 % Get / 10 % Insert.
//   type_query     Get probe; cold followers attach (checkpoint image)
//                  and the follower-delay pairs; 2 connections of type
//                  queries and extent-joining inserts; an insert probe.
//
// Every phase runs a fixed op count, so a seed fixes the inputs. The
// traced run replays the same shapes on one connection.
#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "harness.h"
#include "persist/replica.h"
#include "persist/wal.h"
#include "serial/decoder.h"
#include "serial/encoder.h"
#include "serve/protocol.h"
#include "serve/remote_shipper.h"
#include "storage/log.h"
#include "types/parse.h"
#include "types/subtype.h"

namespace perfbench {
namespace {

using dbpl::ByteBuffer;
using dbpl::ByteReader;
using dbpl::Status;
using dbpl::persist::FollowOptions;
using dbpl::persist::Replica;
using dbpl::persist::WalDatabase;
using dbpl::persist::WalOptions;
using dbpl::serve::Client;
using dbpl::serve::ReqOp;
using dbpl::serve::Request;
using dbpl::serve::Response;

constexpr int kRounds = 5;  // repetitions per run, each on a fresh primary
// Probe sizes per run: each of the kRounds repetitions runs a fifth.
constexpr size_t kGetProbe = 10000;
constexpr size_t kQueryProbe = 5000;
constexpr size_t kDelayProbe = 2500;
constexpr size_t kInsertProbe = 2000;
constexpr auto kFollowPoll = std::chrono::milliseconds(1);
// The main phases run a fixed op count sized from --seconds: these are
// ops per connection per second of --seconds, as measured on the 4-core
// host the benchmark was defined on. A faster program finishes the same
// work sooner, so both sides of a comparison see identical inputs and
// the database grows by the same inserts.
constexpr double kPointSingleRate = 20000;  // 1 connection, --seconds / 2
constexpr double kPointLoadedRate = 12000;  // 4 connections, --seconds / 2
constexpr double kTypeQueryRate = 120;      // 2 connections

// Rng streams: one per purpose, so phases never share a sequence.
enum Stream : uint64_t {
  kPreloadStream = 1,
  kPhaseStream = 100,  // + phase index * 16 + connection
};

enum class Shape { kFlat, kE2 };

struct Spec {
  const char* name;
  WalOptions wal;
  int preload;
  /// Checkpoint the preload, so a cold follower bootstraps from the
  /// checkpoint image rather than replaying the WAL record by record.
  bool checkpoint;
  Shape shape;
};

// Flush policy: 64 inserts per commit marker without fsync; an explicit
// Commit fsyncs.
const Spec kSpecs[] = {
    {"point", WalOptions{{64, false}, 2}, 8192, false, Shape::kFlat},
    {"type_query", WalOptions{{64, false}, 2}, 32768, true, Shape::kE2},
};

Type MustParse(const std::string& text) { return *dbpl::types::ParseType(text); }

/// The record shapes of a workload and the types its queries target.
///
///  * kFlat: two-field records {Seq: Int, F<k>: String}, k < 64, so each
///    query target holds about 1.6 % of the entries.
///  * kE2: the E2 hierarchy — Person {Name}, Employee {Name, Empno,
///    Dept} and 18 siblings {Name, Extra<j>: Int}, 5 % each.
///
/// Targets 0 and 1 carry registered extents; inserts into targets are
/// tracked so a query's result count can be bounded.
class Model {
 public:
  explicit Model(Shape shape) : shape_(shape) {
    if (shape_ == Shape::kFlat) {
      for (int k = 0; k < 4; ++k) {
        targets_.push_back(
            MustParse("{Seq: Int, F" + std::to_string(k) + ": String}"));
      }
      extents_ = {"f0", "f1"};
    } else {
      targets_.push_back(MustParse("{Name: String, Empno: Int, Dept: String}"));
      for (int j = 0; j < 3; ++j) {
        targets_.push_back(
            MustParse("{Name: String, Extra" + std::to_string(j) + ": Int}"));
      }
      extents_ = {"employees", "extra0"};
    }
  }

  const std::vector<Type>& targets() const { return targets_; }
  const std::vector<std::string>& extents() const { return extents_; }

  /// A record of class `cls`; returns its target index or -1.
  Value Build(int cls, Rng& rng, int* target) const {
    const int64_t n = static_cast<int64_t>(rng.Below(1000000));
    if (shape_ == Shape::kFlat) {
      *target = cls < 4 ? cls : -1;
      return Value::RecordOf(
          {{"Seq", Value::Int(n)},
           {"F" + std::to_string(cls),
            Value::String("v" + std::to_string(rng.Next() % 1000000007))}});
    }
    const std::string name = "n" + std::to_string(n);
    if (cls == 0) {
      *target = -1;
      return Value::RecordOf({{"Name", Value::String(name)}});
    }
    if (cls == 1) {
      *target = 0;
      return Value::RecordOf({{"Name", Value::String(name)},
                              {"Empno", Value::Int(n)},
                              {"Dept", Value::String(kDepts[n % 4])}});
    }
    const int j = cls - 2;
    *target = j < 3 ? j + 1 : -1;
    return Value::RecordOf({{"Name", Value::String(name)},
                            {"Extra" + std::to_string(j), Value::Int(n)}});
  }

  int classes() const { return shape_ == Shape::kFlat ? 64 : 20; }
  /// A class no query targets or extent holds.
  int PlainClass() const { return classes() - 1; }
  /// Class of a record a client inserts: any class for the flat shape,
  /// an extent-joining Employee or Extra0 record for E2.
  int InsertClass(Rng& rng) const {
    if (shape_ == Shape::kFlat) return static_cast<int>(rng.Below(64));
    return rng.Below(2) == 0 ? 1 : 2;
  }

 private:
  static constexpr const char* kDepts[4] = {"Sales", "Ops", "Research",
                                            "Legal"};
  Shape shape_;
  std::vector<Type> targets_;
  std::vector<std::string> extents_;
};

/// Trace-only replay targets for writes: a plain database with the same
/// extents, a second WalDatabase with the same options, and a scratch
/// log on the same filesystem.
struct Shadow {
  std::string dir;
  Database plain;
  std::unique_ptr<WalDatabase> wal;
  std::unique_ptr<dbpl::storage::LogWriter> log;
  explicit Shadow(int shards)
      : plain(dbpl::dyndb::DatabaseOptions{shards}) {}
};

struct Ctx {
  const RunOptions* opt = nullptr;
  const Spec* spec = nullptr;
  std::unique_ptr<Model> model;
  Failures fail;
  Primary primary;
  /// Preloaded entries per query target, and inserts of records of each
  /// target started so far (incremented before the request is sent).
  std::vector<uint64_t> population;
  std::unique_ptr<std::atomic<uint64_t>[]> inserted;
  Tracer* tracer = nullptr;
  std::unique_ptr<Shadow> shadow;
  Report* report = nullptr;

  void Note(const std::string& s) { report->notes.push_back(s); }
  void Metric(const std::string& name, double v, const std::string& unit) {
    report->metrics.push_back({name, v, unit});
  }
};

std::string Fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

// ---------------------------------------------------------------------
// Set-up: open, register extents, preload, commit, (checkpoint), serve.
// ---------------------------------------------------------------------

bool SetUp(Ctx& ctx, const std::string& dir, Primary* p, double* seconds) {
  const Spec& spec = *ctx.spec;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  const uint64_t t0 = NowNs();
  auto wdb = WalDatabase::Open(dbpl::storage::Vfs::Default(), dir, spec.wal);
  if (!wdb.ok()) {
    ctx.fail.Fail("open: " + wdb.status().ToString());
    return false;
  }
  p->dir = dir;
  p->wdb = std::move(*wdb);
  const auto& targets = ctx.model->targets();
  for (size_t i = 0; i < ctx.model->extents().size(); ++i) {
    Status s = p->wdb->RegisterExtent(ctx.model->extents()[i], targets[i]);
    if (!s.ok()) {
      ctx.fail.Fail("register extent: " + s.ToString());
      return false;
    }
  }
  Rng rng(ctx.opt->seed, kPreloadStream);
  std::vector<uint64_t> population(targets.size(), 0);
  p->preload.clear();
  p->preload.reserve(static_cast<size_t>(spec.preload));
  for (int i = 0; i < spec.preload; ++i) {
    const int cls = static_cast<int>(rng.Below(
        static_cast<uint64_t>(ctx.model->classes())));
    int target = -1;
    Value v;
    if (ctx.tracer != nullptr) {
      ctx.tracer->Time("core.value_build", 0, 0, "setup",
                       [&] { v = ctx.model->Build(cls, rng, &target); });
    } else {
      v = ctx.model->Build(cls, rng, &target);
    }
    if (target >= 0) ++population[static_cast<size_t>(target)];
    auto id = p->wdb->InsertValue(v);
    if (!id.ok()) {
      ctx.fail.Fail("preload insert: " + id.status().ToString());
      return false;
    }
    p->preload.push_back({*id, std::move(v)});
  }
  Status committed = p->wdb->Commit();
  if (!committed.ok()) {
    ctx.fail.Fail("preload commit: " + committed.ToString());
    return false;
  }
  p->wal_bytes = p->wdb->wal_bytes();
  if (spec.checkpoint) {
    Status cp = p->wdb->Checkpoint();
    if (!cp.ok()) {
      ctx.fail.Fail("checkpoint: " + cp.ToString());
      return false;
    }
  }
  dbpl::serve::ServeOptions so;
  so.workers = 4;
  so.listen = true;
  so.port = 0;
  auto server = dbpl::serve::Server::Start(p->wdb.get(), so);
  if (!server.ok()) {
    ctx.fail.Fail("server start: " + server.status().ToString());
    return false;
  }
  p->server = std::move(*server);
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;

  // Outside the timed set-up: the user bytes behind wal_bytes.
  p->user_bytes = 0;
  for (const Stored& s : p->preload) {
    ByteBuffer buf;
    dbpl::serial::EncodeDynamic(dbpl::dyndb::MakeDynamic(s.value), &buf);
    p->user_bytes += buf.size();
  }
  ctx.population = std::move(population);
  ctx.inserted = std::make_unique<std::atomic<uint64_t>[]>(targets.size());
  return true;
}

// ---------------------------------------------------------------------
// One client connection: the ops, their oracles, and (traced) replays
// of the request's server-side and codec calls.
// ---------------------------------------------------------------------

struct CodecCounts {
  uint64_t queries = 0;
  uint64_t results = 0;
  uint64_t response_bytes = 0;
  uint64_t entry_bytes = 0;
};

class Conn {
 public:
  Conn(Ctx* ctx, Client client, uint64_t stream, Tracer* tracer)
      : ctx_(ctx),
        client_(std::move(client)),
        rng_(ctx->opt->seed, stream),
        tracer_(tracer) {}

  Rng& rng() { return rng_; }
  const CodecCounts& codec() const { return codec_; }

  /// Get of a random preloaded id; must read back exactly its record.
  bool Get(uint64_t* ns) {
    const auto& pre = ctx_->primary.preload;
    const Stored& s = pre[rng_.Below(pre.size())];
    Request req;
    req.op = ReqOp::kGet;
    req.entry_id = s.id;
    Response resp;
    auto replay = [&](uint64_t parent, uint64_t request) {
      Database::Snapshot snap = Snap(parent, request, "get");
      tracer_->Time("dyndb.get", parent, request, "get",
                    [&] { Keep(snap.Get(s.id).ok()); });
    };
    if (!Exchange(std::move(req), "get", replay, &resp, ns)) return false;
    if (!resp.status.ok() || resp.entries.size() != 1 ||
        resp.entries[0].value != s.value) {
      return Fail("get " + std::to_string(s.id) + ": " +
                  (resp.status.ok() ? "wrong record" : resp.status.ToString()));
    }
    return true;
  }

  /// Insert of a fresh record (of the plain class when `plain`);
  /// `commit` follows it with a Commit, whose ack makes it visible to
  /// followers. `*ack_ns` receives the time of the last ack.
  bool Insert(bool commit, bool plain, uint64_t* ns, uint64_t* ack_ns) {
    int target = -1;
    const Model& m = *ctx_->model;
    Value v = m.Build(plain ? m.PlainClass() : m.InsertClass(rng_), rng_, &target);
    if (target >= 0) ctx_->inserted[static_cast<size_t>(target)].fetch_add(1);
    Request req;
    req.op = ReqOp::kInsert;
    req.entry = dbpl::dyndb::MakeDynamic(std::move(v));
    const Dynamic entry = req.entry;
    Response resp;
    auto replay = [&](uint64_t, uint64_t request) { ReplayInsert(entry, request); };
    if (!Exchange(std::move(req), "insert", replay, &resp, ns)) return false;
    if (!resp.status.ok()) return Fail("insert: " + resp.status.ToString());
    if (commit) {
      Request c;
      c.op = ReqOp::kCommit;
      Response cresp;
      uint64_t cns = 0;
      auto creplay = [&](uint64_t, uint64_t request) {
        tracer_->Time("persist.commit", 0, request, "commit",
                      [&] { Keep(ctx_->shadow->wal->Commit().ok()); });
      };
      if (!Exchange(std::move(c), "commit", creplay, &cresp, &cns)) return false;
      if (!cresp.status.ok()) return Fail("commit: " + cresp.status.ToString());
    }
    *ack_ns = NowNs();
    return true;
  }

  /// 45 % GetViaIndex / 45 % GetViaExtent / 10 % GetPackages. The result
  /// count must lie within the target's preloaded population plus the
  /// inserts into it started so far, and every result must be a subtype
  /// of the query type.
  bool Query(uint64_t* ns) {
    const uint64_t r = rng_.Below(100);
    const auto& targets = ctx_->model->targets();
    Request req;
    size_t target = 0;
    if (r < 45) {
      req.op = ReqOp::kGetViaIndex;
      target = rng_.Below(targets.size());
    } else if (r < 90) {
      req.op = ReqOp::kGetViaExtent;
      target = rng_.Below(ctx_->model->extents().size());
    } else {
      req.op = ReqOp::kGetPackages;
      target = rng_.Below(targets.size());
    }
    const Type& t = targets[target];
    req.type = t;
    const ReqOp op = req.op;
    Response resp;
    auto replay = [&](uint64_t parent, uint64_t request) {
      Database::Snapshot snap = Snap(parent, request, "query");
      std::vector<Value> values;
      if (op == ReqOp::kGetPackages) {
        tracer_->Time("dyndb.get_packages", parent, request, "query",
                      [&] { Keep(snap.GetPackages(t).size()); });
        return;
      }
      if (op == ReqOp::kGetViaIndex) {
        tracer_->Time("dyndb.get_via_index", parent, request, "query",
                      [&] { values = snap.GetViaIndex(t); });
      } else {
        tracer_->Time("dyndb.get_via_extent", parent, request, "query", [&] {
          auto vs = snap.GetViaExtent(t);
          if (vs.ok()) values = std::move(*vs);
        });
      }
      tracer_->Time(
          "dyndb.make_dynamic", parent, request, "query",
          [&] {
            for (Value& v : values) Keep(dbpl::dyndb::MakeDynamic(std::move(v)).type.kind() != dbpl::types::TypeKind::kBottom);
          },
          values.size());
    };
    const uint64_t floor = ctx_->population[target];
    if (!Exchange(std::move(req), "query", replay, &resp, ns)) return false;
    const uint64_t ceiling = floor + ctx_->inserted[target].load();
    if (!resp.status.ok()) return Fail("query: " + resp.status.ToString());
    const uint64_t n = resp.entries.size();
    if (n < floor || n > ceiling) {
      return Fail("query " + std::string(dbpl::serve::ReqOpName(op)) + " " +
                  t.ToString() + ": " + std::to_string(n) +
                  " results, expected " + std::to_string(floor) + ".." +
                  std::to_string(ceiling));
    }
    for (const Dynamic& d : resp.entries) {
      if (!dbpl::types::IsSubtype(d.type, t)) {
        return Fail("query result " + d.type.ToString() + " is not a " +
                    t.ToString());
      }
    }
    return true;
  }

 private:
  using Replay = std::function<void(uint64_t parent, uint64_t request)>;

  template <typename T>
  static void Keep(const T& v) {
    asm volatile("" : : "g"(&v) : "memory");
  }

  bool Fail(const std::string& what) {
    ctx_->fail.Fail(what);
    return false;
  }

  Database::Snapshot Snap(uint64_t parent, uint64_t request,
                          const char* klass) {
    std::optional<Database::Snapshot> snap;
    tracer_->Time("dyndb.snapshot", parent, request, klass,
                  [&] { snap.emplace(ctx_->primary.wdb->db().GetSnapshot()); });
    return *std::move(snap);
  }

  void ReplayInsert(const Dynamic& entry, uint64_t request) {
    Shadow& sh = *ctx_->shadow;
    tracer_->Time("dyndb.insert", 0, request, "insert",
                  [&] { Keep(sh.plain.Insert(entry).ok()); });
    tracer_->Time("persist.wal_insert", 0, request, "insert",
                  [&] { Keep(sh.wal->Insert(entry).ok()); });
    tracer_->Time("persist.commit", 0, request, "insert",
                  [&] { Keep(sh.wal->Commit().ok()); });
    dbpl::persist::WalRecord redo;
    redo.op = dbpl::persist::WalOp::kInsert;
    redo.id = 0;
    redo.entry = entry;
    const dbpl::storage::LogRecord framed = dbpl::persist::EncodeWalRecord(redo);
    tracer_->Time("storage.append", 0, request, "insert",
                  [&] { Keep(sh.log->Append(framed).ok()); });
    tracer_->Time("storage.sync", 0, request, "insert",
                  [&] { Keep(sh.log->Sync().ok()); });
  }

  /// One round trip. Untraced: Client::Call, timed. Traced: spans
  /// serve.rtt ⊃ {serve.send, serve.await}, then the request's codec
  /// and server-side calls replayed in-process on the same inputs as
  /// children of the client call they happen inside.
  bool Exchange(Request req, const char* klass, const Replay& replay,
                Response* out, uint64_t* ns) {
    ctx_->fail.attempted.fetch_add(1);
    if (tracer_ == nullptr) {
      const uint64_t t0 = NowNs();
      auto r = client_.Call(std::move(req));
      *ns = NowNs() - t0;
      if (!r.ok()) return Fail(std::string(klass) + ": " + r.status().ToString());
      *out = std::move(*r);
      return true;
    }
    Tracer& tr = *tracer_;
    const uint64_t request = tr.NewRequest();
    Span root;
    root.id = tr.NewId();
    root.request = request;
    root.klass = klass;
    root.name = "serve.rtt";
    Request copy = req;
    dbpl::Result<uint64_t> sent = uint64_t{0};
    dbpl::Result<Response> got = Response{};
    root.start_ns = NowNs();
    const uint64_t send_id = tr.Time("serve.send", root.id, request, klass,
                                     [&] { sent = client_.Send(std::move(req)); });
    uint64_t await_id = 0;
    if (sent.ok()) {
      await_id = tr.Time("serve.await", root.id, request, klass,
                         [&] { got = client_.Await(); });
    }
    root.end_ns = NowNs();
    *ns = root.end_ns - root.start_ns;
    tr.Record(root);
    if (!sent.ok()) return Fail(std::string(klass) + ": " + sent.status().ToString());
    if (!got.ok()) return Fail(std::string(klass) + ": " + got.status().ToString());
    *out = std::move(*got);

    copy.id = out->id;
    ByteBuffer qbody, qframe, rbody, rframe;
    size_t total = 0;
    std::string error;
    tr.Time("serve.encode_request", send_id, request, klass,
            [&] { dbpl::serve::EncodeRequest(copy, &qbody); });
    tr.Time("serve.frame_crc", send_id, request, klass,
            [&] { Keep(dbpl::serve::EncodeFrame(qbody, &qframe).ok()); });
    tr.Time("serve.frame_crc", await_id, request, klass, [&] {
      Keep(dbpl::serve::InspectFrame(qframe.data(), qframe.size(), &total,
                                     &error));
    });
    tr.Time("serve.decode_request", await_id, request, klass, [&] {
      Keep(dbpl::serve::DecodeRequest(qbody.data(), qbody.size()).ok());
    });
    replay(await_id, request);
    const uint64_t enc = tr.Time("serve.encode_response", await_id, request,
                                 klass, [&] {
                                   dbpl::serve::EncodeResponse(*out, &rbody);
                                 });
    // EncodeResponse appends each entry with EncodeDynamic; replay that
    // loop alone as its serial child.
    ByteBuffer entries;
    tr.Time(
        "serial.encode_dynamic", enc, request, klass,
        [&] {
          for (const Dynamic& d : out->entries) {
            dbpl::serial::EncodeDynamic(d, &entries);
          }
        },
        out->entries.size());
    tr.Time("serve.frame_crc", await_id, request, klass,
            [&] { Keep(dbpl::serve::EncodeFrame(rbody, &rframe).ok()); });
    tr.Time("serve.frame_crc", await_id, request, klass, [&] {
      Keep(dbpl::serve::InspectFrame(rframe.data(), rframe.size(), &total,
                                     &error));
    });
    const uint64_t dec = tr.Time("serve.decode_response", await_id, request,
                                 klass, [&] {
                                   Keep(dbpl::serve::DecodeResponse(
                                            rbody.data(), rbody.size())
                                            .ok());
                                 });
    tr.Time(
        "serial.decode_dynamic", dec, request, klass,
        [&] {
          ByteReader in(entries);
          for (size_t i = 0; i < out->entries.size(); ++i) {
            Keep(dbpl::serial::DecodeDynamic(&in).ok());
          }
        },
        out->entries.size());
    if (std::string(klass) == "query") {
      codec_.queries += 1;
      codec_.results += out->entries.size();
      codec_.response_bytes += rbody.size();
      codec_.entry_bytes += entries.size();
    }
    return true;
  }

  Ctx* const ctx_;
  Client client_;
  Rng rng_;
  Tracer* const tracer_;
  CodecCounts codec_;
};

// ---------------------------------------------------------------------
// Closed-loop phases.
// ---------------------------------------------------------------------

/// Waits until `follower`'s epoch covers the primary's epoch as it
/// stood at the ack; the time since `ack_ns` is the replica delay, 0 if
/// it does not come within a minute.
uint64_t WaitCovered(Replica& follower, uint64_t epoch, uint64_t ack_ns) {
  if (!follower.WaitForEpoch(epoch, std::chrono::seconds(60)).ok()) return 0;
  return NowNs() - ack_ns;
}

struct MixPlan {
  int phase = 0;
  int conns = 1;
  int get_pct = 0;
  int insert_pct = 0;  // the rest are queries
  bool commit_after_insert = false;
  /// When set, each insert starts after a seeded random pause shorter
  /// than the follower's poll interval and waits until this follower
  /// holds it before the connection goes on (the replica delay loop);
  /// it inserts records no query selects. Without the pause every
  /// insert would start just after a poll, and the delay would be the
  /// poll interval minus the insert's own latency.
  Replica* follower = nullptr;
  uint64_t ops_per_conn = 0;
};

struct MixOut {
  Samples get, insert, query, all, delay;
  double wall_s = 0;
  CodecCounts codec;

  void Merge(const MixOut& m) {
    get.Merge(m.get);
    insert.Merge(m.insert);
    query.Merge(m.query);
    all.Merge(m.all);
    delay.Merge(m.delay);
    codec.queries += m.codec.queries;
    codec.results += m.codec.results;
    codec.response_bytes += m.codec.response_bytes;
    codec.entry_bytes += m.codec.entry_bytes;
  }
};

MixOut RunMix(Ctx& ctx, const MixPlan& plan, Tracer* tracer) {
  MixOut out;
  std::vector<MixOut> per(static_cast<size_t>(plan.conns));
  const uint64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < plan.conns; ++c) {
    threads.emplace_back([&, c] {
      MixOut& mine = per[static_cast<size_t>(c)];
      auto client = Dial(ctx.primary.port());
      if (!client.ok()) {
        ctx.fail.Fail("connect: " + client.status().ToString());
        return;
      }
      Conn conn(&ctx, std::move(*client),
                kPhaseStream + static_cast<uint64_t>(plan.phase) * 16 +
                    static_cast<uint64_t>(c),
                tracer);
      for (uint64_t i = 0; i < plan.ops_per_conn; ++i) {
        const uint64_t r = conn.rng().Below(100);
        uint64_t ns = 0;
        if (r < static_cast<uint64_t>(plan.get_pct)) {
          if (!conn.Get(&ns)) continue;
          mine.get.Add(ns);
        } else if (r < static_cast<uint64_t>(plan.get_pct + plan.insert_pct)) {
          uint64_t ack = 0;
          if (plan.follower != nullptr) {
            std::this_thread::sleep_for(std::chrono::microseconds(
                conn.rng().Below(static_cast<uint64_t>(
                    std::chrono::microseconds(kFollowPoll).count()))));
          }
          if (!conn.Insert(plan.commit_after_insert, plan.follower != nullptr,
                           &ns, &ack)) {
            continue;
          }
          mine.insert.Add(ns);
          if (plan.follower != nullptr) {
            const uint64_t epoch = ctx.primary.wdb->db().epoch();
            const uint64_t delay = WaitCovered(*plan.follower, epoch, ack);
            if (delay == 0) {
              ctx.fail.Fail("the follower never reached epoch " +
                            std::to_string(epoch));
              continue;
            }
            mine.delay.Add(delay);
          }
        } else {
          if (!conn.Query(&ns)) continue;
          mine.query.Add(ns);
        }
        mine.all.Add(ns);
      }
      mine.codec = conn.codec();
    });
  }
  for (auto& t : threads) t.join();
  out.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  for (const MixOut& m : per) out.Merge(m);
  return out;
}

// ---------------------------------------------------------------------
// Followers.
// ---------------------------------------------------------------------

dbpl::Result<std::unique_ptr<dbpl::serve::RemoteShipper>> DialShipper(
    Ctx& ctx) {
  dbpl::serve::RemoteShipper::Options o;
  o.recv_timeout = std::chrono::milliseconds(30000);
  return dbpl::serve::RemoteShipper::Connect("127.0.0.1", ctx.primary.port(), o);
}

/// A wire follower: the shipper it dials through, optionally wrapped so
/// its shipping calls are traced, and the replica (declared last, so it
/// detaches before the shipper goes).
struct Follower {
  std::unique_ptr<dbpl::serve::RemoteShipper> shipper;
  std::unique_ptr<TracingShipper> traced;
  std::unique_ptr<Replica> replica;
};

/// Dials the primary and attaches a cold wire follower, which catches
/// up before Attach returns; `*records_s` receives the catch-up rate.
/// `poll` > 0 leaves the follower streaming; `tracer` times its
/// shipping calls.
bool AttachFollower(Ctx& ctx, Tracer* tracer, std::chrono::milliseconds poll,
                    Follower* f, double* records_s) {
  ctx.fail.attempted.fetch_add(1);
  // Followers see only synced commits; make every insert so far one.
  Status c = ctx.primary.wdb->Commit();
  if (!c.ok()) {
    ctx.fail.Fail("commit before catch-up: " + c.ToString());
    return false;
  }
  const uint64_t t0 = NowNs();
  auto shipper = DialShipper(ctx);
  if (!shipper.ok()) {
    ctx.fail.Fail("follower connect: " + shipper.status().ToString());
    return false;
  }
  f->shipper = std::move(*shipper);
  dbpl::persist::WalShipper* via = f->shipper.get();
  if (tracer != nullptr) {
    f->traced = std::make_unique<TracingShipper>(via, tracer, "catchup");
    via = f->traced.get();
  }
  f->replica = std::make_unique<Replica>();
  Status attached = f->replica->Attach(via, FollowOptions{poll});
  const double secs = static_cast<double>(NowNs() - t0) / 1e9;
  if (!attached.ok()) {
    ctx.fail.Fail("catch-up: " + attached.ToString());
    return false;
  }
  if (f->replica->Epoch() < ctx.primary.wdb->db().epoch()) {
    ctx.fail.Fail("catch-up stopped at epoch " +
                  std::to_string(f->replica->Epoch()) + " of " +
                  std::to_string(ctx.primary.wdb->db().epoch()));
    return false;
  }
  *records_s = static_cast<double>(f->replica->db().size()) / secs;
  return true;
}

/// After the final Commit the follower must reach the primary's epoch
/// and hold exactly the primary's entries.
bool Converged(Ctx& ctx, Replica& follower) {
  ctx.fail.attempted.fetch_add(1);
  WalDatabase& wdb = *ctx.primary.wdb;
  Status c = wdb.Commit();
  if (!c.ok()) {
    ctx.fail.Fail("final commit: " + c.ToString());
    return false;
  }
  const uint64_t target = wdb.db().epoch();
  Status w = follower.WaitForEpoch(target, std::chrono::seconds(60));
  if (!w.ok() || follower.Epoch() != target) {
    ctx.fail.Fail("follower at epoch " + std::to_string(follower.Epoch()) +
                  ", primary at " + std::to_string(target));
    return false;
  }
  std::unordered_map<EntryId, Dynamic> primary;
  wdb.db().GetSnapshot().ForEachEntry(
      [&](EntryId id, const Dynamic& d) { primary.emplace(id, d); });
  size_t matched = 0;
  bool equal = true;
  follower.db().GetSnapshot().ForEachEntry([&](EntryId id, const Dynamic& d) {
    auto it = primary.find(id);
    if (it == primary.end() || !(it->second == d)) equal = false;
    ++matched;
  });
  if (!equal || matched != primary.size()) {
    ctx.fail.Fail("follower contents differ from the primary's");
    return false;
  }
  return true;
}

/// Attaches a cold, then streaming (1 ms poll) wire follower, runs
/// `delay_plan` with every insert waiting for the follower, and checks
/// that the follower converged.
bool FollowPhase(Ctx& ctx, MixPlan delay_plan, double* catchup_records_s,
                 MixOut* delay) {
  Follower f;
  if (!AttachFollower(ctx, nullptr, kFollowPoll, &f, catchup_records_s)) {
    return false;
  }
  delay_plan.follower = f.replica.get();
  *delay = RunMix(ctx, delay_plan, nullptr);
  return Converged(ctx, *f.replica);
}

// ---------------------------------------------------------------------
// Untraced run: the end-to-end metrics.
// ---------------------------------------------------------------------

enum Reported : unsigned { kP50 = 1, kP95 = 2 };

/// Reports the median and/or the 95th percentile of `s`, as selected by
/// `metrics`, as `<prefix>_p50_<unit>` and `<prefix>_p95_<unit>`; notes
/// the sample count and the p50, p95 and p99 with every window's value.
///
/// On the 4-core host the benchmark was defined on, CPU steal comes in
/// bursts of several seconds. The p99 of these operations, and the p95
/// of the sub-millisecond ones (Get, insert, replica delay), spread by
/// 0.3 to 1.6 (quartile distance over median) across runs, past the 0.25
/// bound a metric may have, and the p95 of point's queries (its scans)
/// by up to 0.25; they are noted, not reported. The one reported tail is
/// the loaded mix's p95. p90 would fall on the edge between indexed
/// queries and the 10 % of scans.
void ReportLatency(Ctx& ctx, const std::string& prefix, const Samples& s,
                   const std::string& unit, unsigned metrics) {
  const double scale = unit == "ms" ? 1e6 : 1e3;
  std::string note = prefix + ": n=" + std::to_string(s.size());
  for (const double q : {0.50, 0.95, 0.99}) {
    const bool metric = (q == 0.50 && (metrics & kP50) != 0) ||
                        (q == 0.95 && (metrics & kP95) != 0);
    std::string name = prefix;
    name += q == 0.50 ? "_p50_" : q == 0.95 ? "_p95_" : "_p99_";
    name += unit;
    double ns = 0;
    std::vector<double> windows;
    if (!Percentile(s, q, &ns, &windows)) {
      if (metric) {
        ctx.fail.Fail(name + ": " + std::to_string(s.size()) +
                      " samples are too few");
      }
      continue;
    }
    if (metric) ctx.Metric(name, ns / scale, unit);
    note += " " + name + "=" + Fmt("%.4f", ns / scale) + " (windows";
    for (double w : windows) {
      note += ' ';
      note += Fmt("%.4f", w / scale);
    }
    note += ")";
  }
  ctx.Note(note);
}

bool RunUntraced(Ctx& ctx) {
  const RunOptions& opt = *ctx.opt;
  const std::string name = ctx.spec->name;
  const double S = static_cast<double>(opt.seconds);
  // Replica delay: insert and commit, then wait for the follower before
  // the next insert.
  const MixPlan delay_plan = {.phase = 9, .conns = 1, .insert_pct = 100,
                              .commit_after_insert = true,
                              .ops_per_conn = kDelayProbe};
  const MixPlan get_probe = {.phase = 2, .conns = 1, .get_pct = 100,
                             .ops_per_conn = kGetProbe};
  const MixPlan query_probe = {.phase = 3, .conns = 1,
                               .ops_per_conn = kQueryProbe};
  const MixPlan insert_probe = {.phase = 5, .conns = 1, .insert_pct = 100,
                                .ops_per_conn = kInsertProbe};
  auto ops = [&](double rate, double seconds) {
    return static_cast<uint64_t>(rate * seconds);
  };

  // A run is kRounds repetitions, each on a freshly set-up primary and
  // each a fifth of every phase, so that a stall of a few seconds on the
  // host hits one repetition of each metric rather than all of one.
  // Set-up time, catch-up rate and throughput are medians over the
  // repetitions; the percentiles' windows (harness.h) fall on them.
  std::vector<double> setups, catchups, rates;
  MixOut single, loaded, probe, delay;
  for (int r = 0; r < kRounds; ++r) {
    ctx.primary.Close();
    double setup = 0;
    if (!SetUp(ctx, opt.work_dir + "/primary", &ctx.primary, &setup)) {
      return false;
    }
    setups.push_back(setup);
    auto slice = [&](MixPlan plan) {
      plan.phase += 10 * r;
      plan.ops_per_conn /= kRounds;
      return plan;
    };
    auto run = [&](const MixPlan& plan, MixOut* acc) {
      MixOut m = RunMix(ctx, slice(plan), nullptr);
      acc->Merge(m);
      return static_cast<double>(m.all.size()) / m.wall_s;
    };
    // The probes run first: they do not write, so the follower's attach
    // is a cold catch-up of the preloaded state.
    auto follow = [&] {
      double catchup = 0;
      MixOut d;
      if (!FollowPhase(ctx, slice(delay_plan), &catchup, &d)) return false;
      catchups.push_back(catchup);
      delay.Merge(d);
      return true;
    };
    if (name == "point") {
      run(query_probe, &probe);
      if (!follow()) return false;
      run({.phase = 1, .conns = 1, .get_pct = 90, .insert_pct = 10,
           .ops_per_conn = ops(kPointSingleRate, S / 2)},
          &single);
      rates.push_back(run({.phase = 4, .conns = 4, .get_pct = 90,
                           .insert_pct = 10,
                           .ops_per_conn = ops(kPointLoadedRate, S / 2)},
                          &loaded));
    } else {
      run(get_probe, &single);
      // A checkpoint catch-up is short, so take two more samples of it.
      for (int i = 0; i < 2; ++i) {
        Follower f;
        double catchup = 0;
        if (!AttachFollower(ctx, nullptr, std::chrono::milliseconds(0), &f,
                            &catchup)) {
          return false;
        }
        catchups.push_back(catchup);
      }
      if (!follow()) return false;
      rates.push_back(run({.phase = 1, .conns = 2, .insert_pct = 25,
                           .ops_per_conn = ops(kTypeQueryRate, S)},
                          &loaded));
      // Insert latency on its own connection: what extent maintenance
      // costs, without waiting behind a concurrent query.
      run(insert_probe, &probe);
    }
  }
  const double setup_s = Median(setups);
  const double catchup = Median(catchups);
  const double throughput = Median(rates);
  ctx.Note("catchup: n=" + std::to_string(catchups.size()) + " records=" +
           std::to_string(ctx.primary.preload.size()) + " median=" +
           Fmt("%.1f", catchup) + " records/s");

  ctx.Metric("setup_s", setup_s, "s");
  ctx.Note("setup: n=" + std::to_string(setups.size()) + " median=" +
           Fmt("%.4f", setup_s) + "s");
  ctx.Metric("throughput_ops_s", throughput, "1/s");
  std::string per_round;
  for (double r : rates) per_round += " " + Fmt("%.1f", r);
  ctx.Note("throughput: ops=" + std::to_string(loaded.all.size()) +
           " median of rounds (ops/s):" + per_round);
  ReportLatency(ctx, "get", single.get, "us", kP50);
  ReportLatency(ctx, "loaded", loaded.all, "us", kP95);
  // Inserts on one connection: point's unloaded phase, type_query's
  // insert probe.
  ReportLatency(ctx, "insert", name == "point" ? single.insert : probe.insert,
                "us", kP50);
  ReportLatency(ctx, "query", name == "type_query" ? loaded.query : probe.query,
                "ms", kP50);
  ctx.Metric("catchup_records_s", catchup, "1/s");
  ReportLatency(ctx, "replica_delay", delay.delay, "ms", kP50);
  return true;
}

// ---------------------------------------------------------------------
// Traced run: the per-layer metrics.
// ---------------------------------------------------------------------

bool OpenShadow(Ctx& ctx) {
  const int shards = ctx.spec->wal.shards;
  ctx.shadow = std::make_unique<Shadow>(shards);
  Shadow& sh = *ctx.shadow;
  sh.dir = ctx.opt->work_dir + "/shadow";
  std::error_code ec;
  std::filesystem::create_directories(sh.dir + "/wal", ec);
  auto wal = WalDatabase::Open(dbpl::storage::Vfs::Default(), sh.dir + "/wal",
                               ctx.spec->wal);
  auto log = dbpl::storage::LogWriter::Open(dbpl::storage::Vfs::Default(),
                                            sh.dir + "/scratch.log");
  if (!wal.ok() || !log.ok()) {
    ctx.fail.Fail("shadow open failed");
    return false;
  }
  sh.wal = std::move(*wal);
  sh.log = std::move(*log);
  const auto& targets = ctx.model->targets();
  for (size_t i = 0; i < ctx.model->extents().size(); ++i) {
    if (!sh.plain.RegisterExtent(ctx.model->extents()[i], targets[i]).ok() ||
        !sh.wal->RegisterExtent(ctx.model->extents()[i], targets[i]).ok()) {
      ctx.fail.Fail("shadow extent registration failed");
      return false;
    }
  }
  return true;
}

bool RunTraced(Ctx& ctx) {
  Tracer tracer;
  const std::string name = ctx.spec->name;
  ctx.tracer = &tracer;  // traces the preload's value builds
  double setup_s = 0;
  if (!SetUp(ctx, ctx.opt->work_dir + "/primary", &ctx.primary, &setup_s)) {
    return false;
  }
  ctx.tracer = nullptr;
  if (!OpenShadow(ctx)) return false;
  const dbpl::serve::ServerStats before = ctx.primary.server->stats();

  // Each op class runs untraced, then traced, on one connection; the
  // difference on the workload's own op class is the tracing overhead.
  const size_t n_get = 2000, n_query = name == "type_query" ? 200 : 300,
               n_insert = 300;
  double overhead_us = 0, overhead_pct = 0;
  MixOut traced_query;
  auto pair = [&](int phase, MixPlan plan, const char* klass) {
    plan.phase = phase;
    MixOut plain = RunMix(ctx, plan, nullptr);
    plan.phase = phase + 1;
    MixOut traced = RunMix(ctx, plan, &tracer);
    const bool own = (name == "point" && std::string(klass) == "get") ||
                     (name == "type_query" && std::string(klass) == "query");
    if (own) {
      const double ops = static_cast<double>(plan.ops_per_conn);
      overhead_us = (traced.wall_s - plain.wall_s) / ops * 1e6;
      overhead_pct = (traced.wall_s - plain.wall_s) / plain.wall_s * 100;
      ctx.Note("trace overhead (" + std::string(klass) + "): untraced " +
               Fmt("%.4f", plain.wall_s) + "s, traced " +
               Fmt("%.4f", traced.wall_s) + "s for " +
               std::to_string(plan.ops_per_conn) + " ops");
    }
    return traced;
  };
  pair(10, {.conns = 1, .get_pct = 100, .ops_per_conn = n_get}, "get");
  traced_query = pair(20, {.conns = 1, .ops_per_conn = n_query}, "query");
  pair(30, {.conns = 1, .insert_pct = 100, .ops_per_conn = n_insert}, "insert");

  // Catch-up: wire (traced shipping calls) and in-process.
  double wire_rate = 0, inproc_rate = 0;
  uint64_t rpcs = 0, records = 0;
  {
    Follower f;
    if (!AttachFollower(ctx, &tracer, std::chrono::milliseconds(0), &f,
                        &wire_rate)) {
      return false;
    }
    records = f.replica->db().size();
    rpcs = f.shipper->stats().rpcs;
  }
  {
    ctx.fail.attempted.fetch_add(1);
    Replica follower;
    const uint64_t t0 = NowNs();
    Status s = follower.Attach(ctx.primary.wdb->shipper());
    const double secs = static_cast<double>(NowNs() - t0) / 1e9;
    if (!s.ok() || follower.Epoch() != ctx.primary.wdb->db().epoch()) {
      ctx.fail.Fail("in-process catch-up failed");
      return false;
    }
    inproc_rate = static_cast<double>(follower.db().size()) / secs;
    follower.Detach();
  }
  const dbpl::serve::ServerStats after = ctx.primary.server->stats();

  // Streaming follower, polled by this program every kFollowPoll so each
  // Poll is timed; one writer connection.
  uint64_t polls = 0, applied = 0, resyncs = 0;
  {
    Follower f;
    double unused_rate = 0;
    if (!AttachFollower(ctx, nullptr, std::chrono::milliseconds(0), &f,
                        &unused_rate)) {
      return false;
    }
    Replica& follower = *f.replica;
    const dbpl::persist::ReplicaStats s0 = follower.stats();
    std::atomic<bool> stop{false};
    std::thread poller([&] {
      while (!stop.load()) {
        tracer.Time("persist.replica_poll", 0, 0, "follow",
                    [&] { (void)follower.Poll(); });
        std::this_thread::sleep_for(kFollowPoll);
      }
    });
    RunMix(ctx,
           {.phase = 40, .conns = 1, .insert_pct = 100,
            .commit_after_insert = true, .ops_per_conn = n_insert},
           nullptr);
    const bool ok = Converged(ctx, follower);
    stop.store(true);
    poller.join();
    const dbpl::persist::ReplicaStats s1 = follower.stats();
    polls = s1.polls - s0.polls;
    applied = s1.records_applied - s0.records_applied;
    resyncs = s1.resyncs - s0.resyncs;
    if (!ok) return false;
  }

  // Derive the per-layer metrics from the spans.
  const auto self = tracer.SelfTimes();
  auto total = [&](const char* klass, const char* span) {
    auto it = self.find({klass, span});
    return it == self.end() ? Tracer::Totals{} : it->second;
  };
  auto requests = [&](const char* klass) {
    return std::max<double>(1, static_cast<double>(total(klass, "serve.rtt").spans));
  };
  auto per_request = [&](const char* klass, const char* span) {
    return total(klass, span).self_ns / 1e3 / requests(klass);
  };
  auto per_call = [&](const char* klass, const char* span) {
    const Tracer::Totals t = total(klass, span);
    return t.spans == 0 ? 0.0 : t.self_ns / 1e3 / static_cast<double>(t.spans);
  };
  auto residual = [&](const char* klass) {
    return per_request(klass, "serve.rtt") + per_request(klass, "serve.send") +
           per_request(klass, "serve.await");
  };
  auto duration = [&](const char* klass, const char* span) {
    return total(klass, span).dur_ns / 1e3 / requests(klass);
  };

  // Layer breakdown of one round trip per class: rtt = residual + the
  // self times of every replayed layer call.
  for (const char* klass : {"get", "query"}) {
    double layers[3] = {0, 0, 0};  // serve codec, serial, dyndb
    for (const auto& [key, t] : self) {
      if (key.first != klass) continue;
      const std::string& s = key.second;
      if (s == "serve.rtt" || s == "serve.send" || s == "serve.await") continue;
      const double us = t.self_ns / 1e3 / requests(klass);
      if (s.rfind("serve.", 0) == 0) layers[0] += us;
      if (s.rfind("serial.", 0) == 0) layers[1] += us;
      if (s.rfind("dyndb.", 0) == 0) layers[2] += us;
    }
    const double rtt = duration(klass, "serve.rtt");
    ctx.Note(std::string("breakdown ") + klass + " (1 connection, n=" +
             std::to_string(total(klass, "serve.rtt").spans) + "): rtt " + Fmt("%.3f", rtt) +
             "us = residual " + Fmt("%.3f", residual(klass)) + " + serve " +
             Fmt("%.3f", layers[0]) + " + serial " + Fmt("%.3f", layers[1]) +
             " + dyndb " + Fmt("%.3f", layers[2]));
    if (std::string(klass) == "get") {
      ctx.Metric("serve.rtt_us", rtt, "us");
    }
  }

  const CodecCounts& q = traced_query.codec;
  const double results = std::max<double>(1, static_cast<double>(q.results));
  ctx.Metric("serve.rtt_residual_us", residual("get"), "us");
  ctx.Metric("serve.send_us", duration("get", "serve.send"), "us");
  ctx.Metric("serve.await_us", duration("get", "serve.await"), "us");
  ctx.Metric("serve.encode_response_us",
             per_request("query", "serve.encode_response"), "us");
  ctx.Metric("serve.frame_crc_us", per_request("query", "serve.frame_crc"), "us");
  ctx.Metric("serve.decode_response_us",
             per_request("query", "serve.decode_response"), "us");
  ctx.Metric("serve.response_bytes_per_result",
             static_cast<double>(q.response_bytes) / results, "bytes");
  ctx.Metric("serve.ship_bounds_us", per_call("catchup", "serve.ship_bounds"),
             "us");
  ctx.Metric("serve.read_chunk_us", per_call("catchup", "serve.read_chunk"),
             "us");
  ctx.Metric("serve.ship_rpcs_per_record",
             static_cast<double>(rpcs) / std::max<double>(1, static_cast<double>(records)),
             "ratio");
  // Requests the server answered over the traced phases: client ops
  // plus the followers' shipping RPCs. Error counts are 0 on a correct
  // run, so they are noted rather than reported.
  ctx.Metric("serve.requests_ok",
             static_cast<double>(after.requests_ok - before.requests_ok), "count");
  ctx.Note("server stats delta: requests_ok=" +
           std::to_string(after.requests_ok - before.requests_ok) +
           " requests_error=" +
           std::to_string(after.requests_error - before.requests_error) +
           " protocol_errors=" +
           std::to_string(after.protocol_errors - before.protocol_errors));
  ctx.Metric("dyndb.snapshot_us", per_request("get", "dyndb.snapshot"), "us");
  ctx.Metric("dyndb.get_us", per_request("get", "dyndb.get"), "us");
  ctx.Metric("dyndb.get_via_index_us", per_call("query", "dyndb.get_via_index"),
             "us");
  ctx.Metric("dyndb.get_via_extent_us",
             per_call("query", "dyndb.get_via_extent"), "us");
  ctx.Metric("dyndb.get_packages_us", per_call("query", "dyndb.get_packages"),
             "us");
  ctx.Metric("dyndb.make_dynamic_us", per_request("query", "dyndb.make_dynamic"),
             "us");
  ctx.Metric("dyndb.results_per_query",
             static_cast<double>(q.results) /
                 std::max<double>(1, static_cast<double>(q.queries)),
             "count");
  ctx.Metric("dyndb.insert_us", per_call("insert", "dyndb.insert"), "us");
  ctx.Metric("serial.encode_dynamic_us",
             per_request("query", "serial.encode_dynamic"), "us");
  ctx.Metric("serial.decode_dynamic_us",
             per_request("query", "serial.decode_dynamic"), "us");
  ctx.Metric("serial.bytes_per_record",
             static_cast<double>(q.entry_bytes) / results, "bytes");
  ctx.Metric("core.value_build_us", per_call("setup", "core.value_build"), "us");
  ctx.Metric("persist.wal_insert_us", per_call("insert", "persist.wal_insert"),
             "us");
  ctx.Metric("persist.commit_us", per_call("insert", "persist.commit"), "us");
  ctx.Metric("persist.wal_bytes_per_user_byte",
             static_cast<double>(ctx.primary.wal_bytes) /
                 std::max<double>(1, static_cast<double>(ctx.primary.user_bytes)),
             "ratio");
  ctx.Metric("persist.replica_poll_us",
             per_call("follow", "persist.replica_poll"), "us");
  ctx.Metric("persist.records_per_poll",
             static_cast<double>(applied) /
                 std::max<double>(1, static_cast<double>(polls)),
             "ratio");
  ctx.Note("follower: polls=" + std::to_string(polls) + " applied=" +
           std::to_string(applied) + " resyncs=" + std::to_string(resyncs));
  ctx.Metric("persist.catchup_inproc_records_s", inproc_rate, "1/s");
  ctx.Metric("storage.append_us", per_call("insert", "storage.append"), "us");
  ctx.Metric("storage.sync_us", per_call("insert", "storage.sync"), "us");
  ctx.Metric("trace.overhead_us", overhead_us, "us");
  ctx.Metric("trace.overhead_pct", overhead_pct, "%");
  ctx.Note("catchup (traced): records=" + std::to_string(records) +
           " rpcs=" + std::to_string(rpcs) + " wire=" + Fmt("%.1f", wire_rate) +
           " records/s in-process=" + Fmt("%.1f", inproc_rate) + " records/s");
  ctx.Note("spans=" + std::to_string(tracer.span_count()) + " written to " +
           ctx.opt->trace_out);
  if (!ctx.opt->trace_out.empty() && !tracer.WriteJsonl(ctx.opt->trace_out)) {
    ctx.fail.Fail("cannot write " + ctx.opt->trace_out);
  }
  return true;
}

}  // namespace

bool RunWorkload(const RunOptions& options, Report* report) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (options.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    report->notes.push_back("unknown workload " + options.workload);
    return false;
  }
  Ctx ctx;
  ctx.opt = &options;
  ctx.spec = spec;
  ctx.model = std::make_unique<Model>(spec->shape);
  ctx.report = report;
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  const bool ok = options.trace ? RunTraced(ctx) : RunUntraced(ctx);
  ctx.primary.Close();
  ctx.shadow.reset();
  std::filesystem::remove_all(options.work_dir, ec);
  report->attempted = ctx.fail.attempted.load();
  report->failed = ctx.fail.failed.load();
  for (const std::string& f : ctx.fail.first) report->notes.push_back("FAILED: " + f);
  return ok;
}

}  // namespace perfbench
