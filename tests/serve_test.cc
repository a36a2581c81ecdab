// Tests for the dbpl-serve network front-end (src/serve/). The
// centerpiece is the differential property: every protocol op issued
// over a real socketpair must be indistinguishable from the equivalent
// in-process call — same values, same ids, same typed errors — across
// all Get strategies and shard geometries. Around it: frame/codec
// round trips, pipelined in-order responses, session teardown
// mid-request, admission-control shedding (kUnavailable), peers that
// never read their replies (bounded output, no blocked worker), a TCP
// end-to-end run, a 4-client × 4-worker stress run (the `serve-tsan`
// target), and the PR 5 durability oracle lifted to the wire: the
// server is killed at every VFS op while live clients stream writes,
// and recovery must present a committed prefix where every client
// either got an ack (durable) or an error (absent).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/value.h"
#include "dyndb/database.h"
#include "dyndb/dynamic.h"
#include "persist/replica.h"
#include "persist/wal_database.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/remote_shipper.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "storage/fault_vfs.h"
#include "storage/log.h"
#include "storage/vfs.h"
#include "test_util.h"
#include "types/parse.h"

namespace dbpl::serve {
namespace {

using core::Value;
using dyndb::Database;
using dyndb::Dynamic;
using dyndb::MakeDynamic;
using persist::CommitPolicy;
using persist::WalDatabase;
using persist::WalOptions;
using storage::FaultVfs;
using testing::Rng;
using types::ParseType;

Value Rec(int seq) {
  return Value::RecordOf(
      {{"Seq", Value::Int(seq)},
       {"Payload", Value::String(std::string(seq % 7, 's'))}});
}

types::Type RecT() { return *ParseType("{Seq: Int, Payload: String}"); }
types::Type SeqT() { return *ParseType("{Seq: Int}"); }

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/dbpl_serve_" + name + "_" +
                    std::to_string(::getpid());
  for (const char* f : {"/wal.log", "/wal.0.log", "/wal.1.log", "/wal.2.log",
                        "/wal.3.log", "/checkpoint.dbpl"}) {
    std::remove((dir + f).c_str());
  }
  return dir;
}

/// A server over a WalDatabase plus `n` socketpair clients adopted
/// into it — the in-process transport every differential test uses.
struct PairHarness {
  std::unique_ptr<Server> server;
  std::vector<Client> clients;
};

PairHarness StartPairServer(WalDatabase* wdb, int workers, int n_clients,
                            int max_sessions = 1024) {
  PairHarness h;
  ServeOptions opts;
  opts.workers = workers;
  opts.max_sessions = max_sessions;
  auto server = Server::Start(wdb, opts);
  EXPECT_TRUE(server.ok()) << server.status();
  h.server = std::move(*server);
  for (int i = 0; i < n_clients; ++i) {
    auto pair = Socket::Pair();
    EXPECT_TRUE(pair.ok()) << pair.status();
    Status adopted = h.server->AdoptConnection(std::move(pair->first));
    EXPECT_TRUE(adopted.ok()) << adopted;
    h.clients.emplace_back(std::move(pair->second));
  }
  return h;
}

/// Polls until the server has closed `n` sessions (or 5s elapse).
void WaitForClosedSessions(const Server& server, uint64_t n) {
  for (int i = 0; i < 5000; ++i) {
    if (server.stats().sessions_closed >= n) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "server never closed " << n << " session(s)";
}

// ---------------------------------------------------------------------
// Protocol codec (no server involved).
// ---------------------------------------------------------------------

TEST(ServeProtocolTest, RequestRoundTripsEveryOp) {
  std::vector<Request> reqs;
  Request r;
  r.op = ReqOp::kPing;
  reqs.push_back(r);
  r = {};
  r.op = ReqOp::kInsert;
  r.entry = MakeDynamic(Rec(7));
  reqs.push_back(r);
  r = {};
  r.op = ReqOp::kGet;
  r.entry_id = 42;
  reqs.push_back(r);
  for (ReqOp op : {ReqOp::kGetScan, ReqOp::kGetViaExtent, ReqOp::kGetViaIndex,
                   ReqOp::kGetPackages}) {
    r = {};
    r.op = op;
    r.type = RecT();
    reqs.push_back(r);
  }
  r = {};
  r.op = ReqOp::kRegisterExtent;
  r.extent_name = "recs";
  r.type = SeqT();
  reqs.push_back(r);
  r = {};
  r.op = ReqOp::kCommit;
  reqs.push_back(r);
  r = {};
  r.op = ReqOp::kInfo;
  reqs.push_back(r);
  r = {};
  r.op = ReqOp::kShipBounds;
  reqs.push_back(r);
  r = {};
  r.op = ReqOp::kReadChunk;
  r.file = ShipFile::kWalSegment;
  r.shard = 3;
  r.offset = 123456789;
  r.length = kMaxReadChunk;
  reqs.push_back(r);

  uint64_t id = 1;
  for (Request& req : reqs) {
    req.id = id++;
    ByteBuffer body;
    EncodeRequest(req, &body);
    auto decoded = DecodeRequest(body.data(), body.size());
    ASSERT_TRUE(decoded.ok()) << ReqOpName(req.op) << ": "
                              << decoded.status();
    EXPECT_EQ(decoded->id, req.id);
    EXPECT_EQ(decoded->op, req.op);
    EXPECT_EQ(decoded->entry, req.entry);
    EXPECT_EQ(decoded->entry_id, req.entry_id);
    EXPECT_EQ(decoded->type, req.type);
    EXPECT_EQ(decoded->extent_name, req.extent_name);
    EXPECT_EQ(decoded->file, req.file);
    EXPECT_EQ(decoded->shard, req.shard);
    EXPECT_EQ(decoded->offset, req.offset);
    EXPECT_EQ(decoded->length, req.length);
  }
}

TEST(ServeProtocolTest, ShippingPayloadsRoundTrip) {
  Response bounds;
  bounds.id = 3;
  bounds.op = ReqOp::kShipBounds;
  bounds.ship.generation = 7;
  bounds.ship.shards = {{100, 4}, {0, 0}, {65536, 12}};
  ByteBuffer body;
  EncodeResponse(bounds, &body);
  auto decoded = DecodeResponse(body.data(), body.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->ship.generation, 7u);
  ASSERT_EQ(decoded->ship.shards.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(decoded->ship.shards[s].durable_bytes,
              bounds.ship.shards[s].durable_bytes);
    EXPECT_EQ(decoded->ship.shards[s].epoch, bounds.ship.shards[s].epoch);
  }

  Response chunk;
  chunk.id = 4;
  chunk.op = ReqOp::kReadChunk;
  chunk.file_size = 1u << 30;
  chunk.chunk = std::string("wal bytes\0with zeros", 20);
  body.clear();
  EncodeResponse(chunk, &body);
  decoded = DecodeResponse(body.data(), body.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->file_size, chunk.file_size);
  EXPECT_EQ(decoded->chunk, chunk.chunk);

  // A kReadChunk request asking for more than one frame can carry is
  // rejected at decode, before the server ever touches a file.
  Request oversize;
  oversize.op = ReqOp::kReadChunk;
  oversize.id = 5;
  oversize.length = kMaxReadChunk + 1;
  body.clear();
  EncodeRequest(oversize, &body);
  auto bad = DecodeRequest(body.data(), body.size());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, EncodeFrameRefusesOversizeBody) {
  const std::vector<uint8_t> big(kMaxFrameBody + 1, 0xAB);
  ByteBuffer body;
  body.PutRaw(big.data(), big.size());
  ByteBuffer frame;
  Status refused = EncodeFrame(body, &frame);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(frame.size(), 0u);  // nothing partial was emitted

  // One byte less is exactly at the limit and frames fine.
  body.clear();
  body.PutRaw(big.data(), kMaxFrameBody);
  ASSERT_TRUE(EncodeFrame(body, &frame).ok());
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + kMaxFrameBody);
}

TEST(ServeProtocolTest, ResponseRoundTripsPayloadsAndErrors) {
  Response ok;
  ok.id = 9;
  ok.op = ReqOp::kGetScan;
  ok.entries = {MakeDynamic(Rec(1)), MakeDynamic(Value::Int(3))};
  ByteBuffer body;
  EncodeResponse(ok, &body);
  auto decoded = DecodeResponse(body.data(), body.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->id, 9u);
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->entries, ok.entries);

  Response err;
  err.id = 10;
  err.op = ReqOp::kGet;
  err.status = Status::NotFound("no entry 99");
  body.clear();
  EncodeResponse(err, &body);
  decoded = DecodeResponse(body.data(), body.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded->status.message(), "no entry 99");

  // Every status code survives the wire byte round trip.
  for (int c = 0; c <= static_cast<int>(StatusCode::kResourceExhausted); ++c) {
    auto code = static_cast<StatusCode>(c);
    EXPECT_EQ(CodeFromWire(WireCodeOf(code)), code);
  }
  EXPECT_EQ(CodeFromWire(200), StatusCode::kInternal);
}

TEST(ServeProtocolTest, FrameDetectsTruncationOversizeAndCorruption) {
  ByteBuffer body;
  Request req;
  req.op = ReqOp::kPing;
  req.id = 1;
  EncodeRequest(req, &body);
  ByteBuffer frame;
  ASSERT_TRUE(EncodeFrame(body, &frame).ok());

  size_t total = 0;
  std::string error;
  // Every strict prefix is kNeedMore, never kBad or a bogus kFrame.
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(InspectFrame(frame.data(), n, &total, &error),
              FrameStatus::kNeedMore)
        << "prefix " << n;
  }
  ASSERT_EQ(InspectFrame(frame.data(), frame.size(), &total, &error),
            FrameStatus::kFrame);
  EXPECT_EQ(total, frame.size());

  // A flipped body bit is a CRC mismatch.
  std::vector<uint8_t> bad(frame.data(), frame.data() + frame.size());
  bad[kFrameHeaderBytes] ^= 0x40;
  EXPECT_EQ(InspectFrame(bad.data(), bad.size(), &total, &error),
            FrameStatus::kBad);

  // A hostile length field is rejected from the header alone.
  uint8_t huge[kFrameHeaderBytes] = {0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff};
  EXPECT_EQ(InspectFrame(huge, sizeof(huge), &total, &error),
            FrameStatus::kBad);
  EXPECT_NE(error.find("exceeds limit"), std::string::npos);
}

// ---------------------------------------------------------------------
// Basic serving + typed error mapping.
// ---------------------------------------------------------------------

TEST(ServeTest, PingInfoAndTypedErrors) {
  FaultVfs vfs(1);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  PairHarness h = StartPairServer(wdb->get(), /*workers=*/2, /*clients=*/1);
  Client& c = h.clients[0];

  EXPECT_TRUE(c.Ping().ok());

  auto info = c.GetInfo();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->size, 0u);
  EXPECT_EQ(info->shards, 1);

  // NotFound maps through the wire with its message.
  auto missing = c.Get(99);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // GetViaExtent without a registration is NotFound — same as
  // in-process.
  EXPECT_EQ(c.GetViaExtent(RecT()).status().code(), StatusCode::kNotFound);

  // AlreadyExists maps too.
  EXPECT_TRUE(c.RegisterExtent("recs", RecT()).ok());
  EXPECT_EQ(c.RegisterExtent("recs", SeqT()).code(),
            StatusCode::kAlreadyExists);

  // The session survives all those errors.
  auto id = c.InsertValue(Rec(1));
  ASSERT_TRUE(id.ok()) << id.status();
  auto back = c.Get(*id);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->value, Rec(1));
}

TEST(ServeTest, GarbageFrameGetsErrorResponseThenDisconnect) {
  FaultVfs vfs(1);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  PairHarness h = StartPairServer(wdb->get(), 1, 1);
  Client& c = h.clients[0];

  const char garbage[] = "this is not a dbpl frame at all!";
  ASSERT_TRUE(c.socket().SendAll(garbage, sizeof(garbage)).ok());

  // One final in-band error (op kNone — there is no request id to
  // echo), then EOF.
  auto resp = c.Await();
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->op, ReqOp::kNone);
  EXPECT_EQ(resp->status.code(), StatusCode::kCorruption);
  EXPECT_FALSE(c.Await().ok());
  WaitForClosedSessions(*h.server, 1);
  EXPECT_EQ(h.server->stats().protocol_errors, 1u);
}

TEST(ServeTest, UnknownVersionAndOpcodeAreRejectedInBand) {
  FaultVfs vfs(1);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  PairHarness h = StartPairServer(wdb->get(), 1, 2);

  {
    // CRC-valid frame, future protocol version -> kUnsupported.
    ByteBuffer body;
    body.PutU8(kProtocolVersion + 1);
    body.PutU8(static_cast<uint8_t>(ReqOp::kPing));
    body.PutU64(1);
    ByteBuffer frame;
    ASSERT_TRUE(EncodeFrame(body, &frame).ok());
    Client& c = h.clients[0];
    ASSERT_TRUE(c.socket().SendAll(frame.data(), frame.size()).ok());
    auto resp = c.Await();
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_EQ(resp->status.code(), StatusCode::kUnsupported);
    EXPECT_FALSE(c.Await().ok());  // disconnected after
  }
  {
    // CRC-valid frame, unknown opcode -> kInvalidArgument.
    ByteBuffer body;
    body.PutU8(kProtocolVersion);
    body.PutU8(0xEE);
    body.PutU64(2);
    ByteBuffer frame;
    ASSERT_TRUE(EncodeFrame(body, &frame).ok());
    Client& c = h.clients[1];
    ASSERT_TRUE(c.socket().SendAll(frame.data(), frame.size()).ok());
    auto resp = c.Await();
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_EQ(resp->status.code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------
// The differential property: wire ≡ in-process.
// ---------------------------------------------------------------------

/// Runs `ops` random operations against a served WalDatabase (through
/// `client`) and an in-process mirror database with the same shard
/// count, asserting identical observable behaviour after every step.
void RunDifferential(Client& client, Database& mirror, uint64_t seed,
                     int ops) {
  Rng rng(seed);
  const std::vector<types::Type> type_pool = {
      RecT(), SeqT(), *ParseType("{Name: String}"), *ParseType("Int"),
      *ParseType("Top")};
  const std::vector<std::string> extent_names = {"e0", "e1", "e2"};

  for (int i = 0; i < ops; ++i) {
    switch (rng.Below(6)) {
      case 0:
      case 1: {  // insert — returned ids must match exactly
        Value v = rng.Coin() ? testing::RandomRecord(rng)
                             : testing::RandomValue(rng, 2);
        auto wire_id = client.InsertValue(v);
        auto local_id = mirror.InsertValue(v);
        ASSERT_TRUE(wire_id.ok()) << wire_id.status();
        ASSERT_TRUE(local_id.ok()) << local_id.status();
        ASSERT_EQ(*wire_id, *local_id) << "op " << i;
        break;
      }
      case 2: {  // point Get — value, type and NotFound must agree
        uint64_t id = rng.Below(mirror.size() + 3);
        auto wire = client.Get(id);
        auto local = mirror.Get(id);
        ASSERT_EQ(wire.ok(), local.ok()) << "op " << i << " Get(" << id
                                         << ")";
        if (wire.ok()) {
          EXPECT_EQ(*wire, *local);
        } else {
          EXPECT_EQ(wire.status().code(), local.status().code());
        }
        break;
      }
      case 3: {  // all three value strategies + packages
        const types::Type& t = type_pool[rng.Below(type_pool.size())];
        auto scan = client.GetScan(t);
        ASSERT_TRUE(scan.ok()) << scan.status();
        EXPECT_EQ(*scan, mirror.GetScan(t)) << "op " << i;
        auto index = client.GetViaIndex(t);
        ASSERT_TRUE(index.ok()) << index.status();
        EXPECT_EQ(*index, mirror.GetViaIndex(t)) << "op " << i;
        auto packages = client.GetPackages(t);
        ASSERT_TRUE(packages.ok()) << packages.status();
        EXPECT_EQ(*packages, mirror.GetPackages(t)) << "op " << i;
        break;
      }
      case 4: {  // extent registration and reads, collisions included
        const types::Type& t = type_pool[rng.Below(type_pool.size())];
        if (rng.Coin()) {
          const std::string& name =
              extent_names[rng.Below(extent_names.size())];
          Status wire = client.RegisterExtent(name, t);
          Status local = mirror.RegisterExtent(name, t);
          EXPECT_EQ(wire.code(), local.code()) << "op " << i;
        } else {
          auto wire = client.GetViaExtent(t);
          auto local = mirror.GetViaExtent(t);
          ASSERT_EQ(wire.ok(), local.ok()) << "op " << i;
          if (wire.ok()) {
            EXPECT_EQ(*wire, *local);
          } else {
            EXPECT_EQ(wire.status().code(), local.status().code());
          }
        }
        break;
      }
      default: {  // size/epoch agreement (+ a durability commit)
        if (rng.Coin()) {
          ASSERT_TRUE(client.Commit().ok());
        }
        auto info = client.GetInfo();
        ASSERT_TRUE(info.ok()) << info.status();
        EXPECT_EQ(info->size, mirror.size()) << "op " << i;
        EXPECT_EQ(info->epoch, mirror.epoch()) << "op " << i;
        break;
      }
    }
  }
}

TEST(ServeTest, DifferentialRandomOpsSingleShard) {
  FaultVfs vfs(7);
  auto wdb = WalDatabase::Open(&vfs, "db", WalOptions{{4, true}, 1});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  Database mirror;
  PairHarness h = StartPairServer(wdb->get(), /*workers=*/2, /*clients=*/1);
  RunDifferential(h.clients[0], mirror, /*seed=*/0xD1FF, /*ops=*/220);
}

TEST(ServeTest, DifferentialRandomOpsShardedWireVsShardedLocal) {
  // K = 3 served vs K = 3 in-process: the wire adds nothing to the id
  // assignment or any read strategy (shard-obliviousness composes with
  // the protocol). Single worker so the FaultVfs lanes are touched by
  // one thread at a time.
  FaultVfs vfs(11);
  auto wdb = WalDatabase::Open(&vfs, "db", WalOptions{{2, true}, 3});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  Database mirror(dyndb::DatabaseOptions{3});
  PairHarness h = StartPairServer(wdb->get(), /*workers=*/1, /*clients=*/1);
  RunDifferential(h.clients[0], mirror, /*seed=*/0x5A4D, /*ops=*/180);
}

// ---------------------------------------------------------------------
// Pipelining.
// ---------------------------------------------------------------------

TEST(ServeTest, PipelinedRequestsAnsweredInOrder) {
  FaultVfs vfs(3);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{8, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  PairHarness h = StartPairServer(wdb->get(), 2, 1);
  Client& c = h.clients[0];

  // Queue 60 requests without reading a single response: 20 × (insert,
  // point get of that insert's id, info).
  constexpr int kBatches = 20;
  std::vector<uint64_t> sent_ids;
  for (int i = 0; i < kBatches; ++i) {
    Request ins;
    ins.op = ReqOp::kInsert;
    ins.entry = MakeDynamic(Rec(i));
    auto sid = c.Send(std::move(ins));
    ASSERT_TRUE(sid.ok()) << sid.status();
    sent_ids.push_back(*sid);

    Request get;
    get.op = ReqOp::kGet;
    get.entry_id = static_cast<uint64_t>(i);
    sid = c.Send(std::move(get));
    ASSERT_TRUE(sid.ok()) << sid.status();
    sent_ids.push_back(*sid);

    Request info;
    info.op = ReqOp::kInfo;
    sid = c.Send(std::move(info));
    ASSERT_TRUE(sid.ok()) << sid.status();
    sent_ids.push_back(*sid);
  }

  // Responses arrive strictly in request order (Client::Await also
  // verifies each id against the oldest outstanding request).
  for (int i = 0; i < kBatches; ++i) {
    auto ins = c.Await();
    ASSERT_TRUE(ins.ok()) << ins.status();
    EXPECT_EQ(ins->id, sent_ids[static_cast<size_t>(3 * i)]);
    ASSERT_TRUE(ins->status.ok()) << ins->status;
    EXPECT_EQ(ins->entry_id, static_cast<uint64_t>(i));

    auto get = c.Await();
    ASSERT_TRUE(get.ok()) << get.status();
    ASSERT_TRUE(get->status.ok()) << get->status;
    ASSERT_EQ(get->entries.size(), 1u);
    // The pipelined get ran after its preceding insert: entry i
    // already existed.
    EXPECT_EQ(get->entries[0].value, Rec(i));

    auto info = c.Await();
    ASSERT_TRUE(info.ok()) << info.status();
    // Monotone view: at least i+1 entries existed when the info ran.
    EXPECT_GE(info->size, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(wdb->get()->db().size(), static_cast<size_t>(kBatches));
}

// ---------------------------------------------------------------------
// Session teardown.
// ---------------------------------------------------------------------

TEST(ServeTest, TeardownMidRequestLeavesDatabaseConsistent) {
  FaultVfs vfs(5);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  PairHarness h = StartPairServer(wdb->get(), 2, 2);

  // Client 0 sends *half* an insert frame and vanishes.
  ByteBuffer body;
  Request req;
  req.op = ReqOp::kInsert;
  req.id = 1;
  req.entry = MakeDynamic(Rec(42));
  EncodeRequest(req, &body);
  ByteBuffer frame;
  ASSERT_TRUE(EncodeFrame(body, &frame).ok());
  ASSERT_GT(frame.size(), 8u);
  ASSERT_TRUE(
      h.clients[0].socket().SendAll(frame.data(), frame.size() / 2).ok());
  h.clients[0].socket().Close();

  WaitForClosedSessions(*h.server, 1);

  // The torn request executed nothing; the database is untouched and
  // still fully serviceable through the surviving session.
  EXPECT_EQ(wdb->get()->db().size(), 0u);
  EXPECT_TRUE(wdb->get()->wal_status().ok());
  Client& alive = h.clients[1];
  auto id = alive.InsertValue(Rec(1));
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(wdb->get()->db().size(), 1u);
  EXPECT_EQ(h.server->stats().requests_ok, 1u);
}

TEST(ServeTest, PeerVanishingBeforeReadingResponseIsContained) {
  FaultVfs vfs(5);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  PairHarness h = StartPairServer(wdb->get(), 2, 2);

  // A complete request followed by an immediate close: the server must
  // execute it, survive the dead response path (no SIGPIPE), and keep
  // serving others.
  Request req;
  req.op = ReqOp::kInsert;
  req.entry = MakeDynamic(Rec(9));
  ASSERT_TRUE(h.clients[0].Send(std::move(req)).ok());
  h.clients[0].socket().Close();

  WaitForClosedSessions(*h.server, 1);
  EXPECT_TRUE(h.clients[1].Ping().ok());
  // The fully-delivered request was executed even though nobody read
  // the ack.
  EXPECT_EQ(wdb->get()->db().size(), 1u);
}

// ---------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------

TEST(ServeTest, OverloadShedsWithUnavailable) {
  FaultVfs vfs(5);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  PairHarness h = StartPairServer(wdb->get(), 1, /*clients=*/2,
                                  /*max_sessions=*/2);

  // Both admitted sessions work.
  EXPECT_TRUE(h.clients[0].Ping().ok());
  EXPECT_TRUE(h.clients[1].Ping().ok());

  // The third is refused: AdoptConnection reports kUnavailable and the
  // peer receives one kUnavailable frame (op kNone) before the close.
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  Status adopted = h.server->AdoptConnection(std::move(pair->first));
  EXPECT_EQ(adopted.code(), StatusCode::kUnavailable);
  Client shed(std::move(pair->second));
  auto resp = shed.Await();
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->op, ReqOp::kNone);
  EXPECT_EQ(resp->status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(shed.Await().ok());  // then EOF
  EXPECT_EQ(h.server->stats().sessions_shed, 1u);

  // Capacity is by *live* sessions: once one leaves, the next
  // connection is admitted again.
  h.clients[0].socket().Close();
  WaitForClosedSessions(*h.server, 1);
  auto pair2 = Socket::Pair();
  ASSERT_TRUE(pair2.ok()) << pair2.status();
  EXPECT_TRUE(h.server->AdoptConnection(std::move(pair2->first)).ok());
  Client again(std::move(pair2->second));
  EXPECT_TRUE(again.Ping().ok());
}

// ---------------------------------------------------------------------
// TCP end to end.
// ---------------------------------------------------------------------

TEST(ServeTest, TcpEndToEnd) {
  FaultVfs vfs(5);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  ServeOptions opts;
  opts.workers = 2;
  opts.listen = true;
  opts.port = 0;  // ephemeral
  auto server = Server::Start(wdb->get(), opts);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_NE((*server)->port(), 0);

  auto c1 = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(c1.ok()) << c1.status();
  auto c2 = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(c2.ok()) << c2.status();

  ASSERT_TRUE(c1->RegisterExtent("recs", RecT()).ok());
  auto id = c1->InsertValue(Rec(5));
  ASSERT_TRUE(id.ok()) << id.status();

  // The second connection reads what the first wrote.
  auto got = c2->Get(*id);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, Rec(5));
  auto extent = c2->GetViaExtent(RecT());
  ASSERT_TRUE(extent.ok()) << extent.status();
  EXPECT_EQ(extent->size(), 1u);

  (*server)->Stop();
  // After Stop every session is closed: the next call fails cleanly.
  EXPECT_FALSE(c1->Ping().ok());
}

TEST(ServeTest, TcpOverloadShedsAtAccept) {
  FaultVfs vfs(5);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  ServeOptions opts;
  opts.workers = 1;
  opts.max_sessions = 1;
  opts.listen = true;
  auto server = Server::Start(wdb->get(), opts);
  ASSERT_TRUE(server.ok()) << server.status();

  auto keeper = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(keeper.ok()) << keeper.status();
  ASSERT_TRUE(keeper->Ping().ok());  // admitted and served

  auto refused = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(refused.ok()) << refused.status();  // TCP accepts...
  auto resp = refused->Await();  // ...then the server sheds in-band
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ((*server)->stats().sessions_shed, 1u);

  // The admitted session was never disturbed.
  EXPECT_TRUE(keeper->Ping().ok());
}

// ---------------------------------------------------------------------
// 4 clients × 4 workers stress (the serve-tsan target).
// ---------------------------------------------------------------------

TEST(ServeTest, StressFourClientsFourWorkers) {
  storage::PosixVfs vfs;
  const std::string dir = FreshDir("stress");
  auto wdb = WalDatabase::Open(&vfs, dir, WalOptions{{8, true}, 2});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  ASSERT_TRUE(wdb->get()->RegisterExtent("recs", RecT()).ok());

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 50;
  PairHarness h = StartPairServer(wdb->get(), /*workers=*/4, kClients);

  std::vector<std::map<uint64_t, Value>> acked(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client& c = h.clients[static_cast<size_t>(t)];
      for (int i = 0; i < kOpsPerClient; ++i) {
        Value v = Rec(t * 1000 + i);
        auto id = c.InsertValue(v);
        EXPECT_TRUE(id.ok()) << id.status();
        if (id.ok()) acked[static_cast<size_t>(t)][*id] = v;
        // Read-your-writes through the same session.
        if (i % 5 == 0 && id.ok()) {
          auto back = c.Get(*id);
          EXPECT_TRUE(back.ok()) << back.status();
          if (back.ok()) {
            EXPECT_EQ(back->value, v);
          }
        }
        // Snapshot reads interleave with everyone's writes.
        if (i % 10 == 0) {
          auto scan = c.GetViaIndex(RecT());
          EXPECT_TRUE(scan.ok()) << scan.status();
        }
      }
      EXPECT_TRUE(c.Commit().ok());
    });
  }
  for (std::thread& th : threads) th.join();

  // Every acked insert is present with the right value; nothing else
  // was written.
  const Database& db = wdb->get()->db();
  size_t total = 0;
  for (int t = 0; t < kClients; ++t) {
    total += acked[static_cast<size_t>(t)].size();
    for (const auto& [id, v] : acked[static_cast<size_t>(t)]) {
      auto got = db.Get(id);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->value, v);
    }
  }
  EXPECT_EQ(db.size(), total);
  EXPECT_EQ(total, static_cast<size_t>(kClients * kOpsPerClient));
  EXPECT_TRUE(wdb->get()->wal_status().ok());

  ServerStats stats = h.server->stats();
  EXPECT_EQ(stats.requests_error, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// ---------------------------------------------------------------------
// The durability oracle lifted to the wire: kill the server's storage
// at every VFS op while live clients stream writes.
// ---------------------------------------------------------------------

struct WireCrashOutcome {
  bool open_failed = false;
  /// Per streamed value: true = the client got an OK response.
  std::map<int, bool> acked;
  uint64_t total_vfs_ops = 0;
};

/// One server lifetime under an armed FaultVfs: 3 socketpair clients
/// each stream 5 writes, recording which were acked. workers=1 keeps
/// the (thread-compatible, not thread-safe) FaultVfs touched by one
/// server thread only; clients touch only their sockets.
WireCrashOutcome ServeUntilCrash(FaultVfs* vfs) {
  WireCrashOutcome out;
  auto wdb = WalDatabase::Open(vfs, "db", WalOptions{{1, true}, 1});
  if (!wdb.ok()) {
    out.open_failed = true;
    out.total_vfs_ops = vfs->mutating_ops();
    return out;
  }
  constexpr int kClients = 3;
  constexpr int kWritesEach = 5;
  {
    PairHarness h = StartPairServer(wdb->get(), /*workers=*/1, kClients);
    std::vector<std::thread> threads;
    dbpl::Mutex acked_mu;
    threads.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        Client& c = h.clients[static_cast<size_t>(t)];
        for (int i = 0; i < kWritesEach; ++i) {
          const int seq = t * 100 + i;
          auto id = c.InsertValue(Rec(seq));
          dbpl::MutexLock lock(&acked_mu);
          out.acked[seq] = id.ok();
        }
      });
    }
    for (std::thread& th : threads) th.join();
    h.server->Stop();
  }
  wdb->reset();  // destructor's best-effort flush happens here
  out.total_vfs_ops = vfs->mutating_ops();
  return out;
}

/// The values present in a recovered database, keyed by their Seq.
std::set<int> RecoveredSeqs(const Database& db) {
  std::set<int> seqs;
  db.GetSnapshot().ForEachEntry([&](Database::EntryId, const Dynamic& d) {
    for (int t = 0; t < 3; ++t) {
      for (int i = 0; i < 5; ++i) {
        const int seq = t * 100 + i;
        if (d.value == Rec(seq)) seqs.insert(seq);
      }
    }
  });
  return seqs;
}

TEST(ServeCrashMatrixTest, ServerKilledAtEveryVfsOpWhileClientsStream) {
  // Fault-free pass: learn the op budget.
  const uint64_t total_ops = [] {
    FaultVfs vfs(0xC0FFEE);
    WireCrashOutcome out = ServeUntilCrash(&vfs);
    EXPECT_FALSE(out.open_failed);
    for (const auto& [seq, ok] : out.acked) EXPECT_TRUE(ok) << seq;
    return out.total_vfs_ops;
  }();
  ASSERT_GT(total_ops, 10u);

  const FaultVfs::UnsyncedFate kFates[] = {
      FaultVfs::UnsyncedFate::kLost, FaultVfs::UnsyncedFate::kTornPrefix,
      FaultVfs::UnsyncedFate::kSurvives};

  for (uint64_t k = 1; k <= total_ops; ++k) {
    for (FaultVfs::UnsyncedFate fate : kFates) {
      SCOPED_TRACE("crash at op " + std::to_string(k) + " fate " +
                   std::to_string(static_cast<int>(fate)));
      FaultVfs vfs(0xC0FFEE);
      vfs.CrashAtMutatingOp(k);
      WireCrashOutcome out = ServeUntilCrash(&vfs);

      // Power loss, then restart: recovery must always succeed.
      vfs.PowerLoss(fate);
      auto reopened = WalDatabase::Open(&vfs, "db", WalOptions{{1, true}, 1});
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      const std::set<int> recovered = RecoveredSeqs((*reopened)->db());

      // The wire durability oracle. An acked write returned OK only
      // after its group's fsync barrier, so:
      //  * acked => present, under every fate (kLost keeps synced
      //    bytes);
      //  * errored => absent under kLost (its bytes, if any, were
      //    never synced);
      //  * under kTornPrefix/kSurvives an errored write may still be
      //    present (e.g. record and marker landed but the barrier's
      //    fsync failed after them) — clients were told "unresolved",
      //    not "absent", which is exactly the PR 5 oracle.
      for (const auto& [seq, was_acked] : out.acked) {
        if (was_acked) {
          EXPECT_TRUE(recovered.count(seq) == 1)
              << "acked write " << seq << " lost";
        } else if (fate == FaultVfs::UnsyncedFate::kLost) {
          EXPECT_TRUE(recovered.count(seq) == 0)
              << "errored write " << seq << " present after kLost";
        }
      }
      // Nothing recovered that was never streamed and acked/attempted.
      for (int seq : recovered) {
        ASSERT_TRUE(out.acked.count(seq) == 1) << "phantom value " << seq;
      }

      // The recovered database is a usable primary again.
      auto id = (*reopened)->InsertValue(Rec(999));
      ASSERT_TRUE(id.ok()) << id.status();
      auto back = (*reopened)->db().Get(*id);
      ASSERT_TRUE(back.ok()) << back.status();
      EXPECT_EQ(back->value, Rec(999));
    }
  }
}

// ---------------------------------------------------------------------
// Oversize responses: answered in-band, session survives.
// ---------------------------------------------------------------------

/// A record whose payload alone is `n` bytes.
Value BigRec(int seq, size_t n) {
  return Value::RecordOf({{"Seq", Value::Int(seq)},
                          {"Payload", Value::String(std::string(n, 'p'))}});
}

TEST(ServeTest, OversizeScanAnsweredInBandAndSessionSurvives) {
  FaultVfs vfs(5);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  ASSERT_TRUE(wdb->get()->RegisterExtent("recs", RecT()).ok());
  // 17 × 1MiB of payload: the full scan cannot fit one ≤16MiB frame,
  // but any single record can.
  constexpr int kRecords = 17;
  constexpr size_t kPayload = 1u << 20;
  dyndb::Database::EntryId last_id = 0;
  for (int i = 0; i < kRecords; ++i) {
    auto id = wdb->get()->InsertValue(BigRec(i, kPayload));
    ASSERT_TRUE(id.ok()) << id.status();
    last_id = *id;
  }
  ASSERT_TRUE(wdb->get()->Commit().ok());

  PairHarness h = StartPairServer(wdb->get(), /*workers=*/1, /*clients=*/1);
  Client& c = h.clients[0];

  // Pipeline the poison request and an innocent one behind it. The
  // refusal must arrive in-band, for the right request id, and the
  // ping behind it must still be answered on the same session.
  Request scan;
  scan.op = ReqOp::kGetScan;
  scan.type = RecT();
  auto scan_id = c.Send(std::move(scan));
  ASSERT_TRUE(scan_id.ok()) << scan_id.status();
  Request ping;
  ping.op = ReqOp::kPing;
  ASSERT_TRUE(c.Send(std::move(ping)).ok());

  auto refusal = c.Await();
  ASSERT_TRUE(refusal.ok()) << refusal.status();  // transport survived
  EXPECT_EQ(refusal->id, *scan_id);
  EXPECT_EQ(refusal->op, ReqOp::kGetScan);
  EXPECT_EQ(refusal->status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(refusal->entries.empty());  // refusal carries no payload

  auto pong = c.Await();
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->status.ok());

  // The typed convenience surfaces the same refusal...
  auto scan2 = c.GetScan(RecT());
  EXPECT_EQ(scan2.status().code(), StatusCode::kResourceExhausted);
  // ...and a query whose response fits still works afterwards.
  auto one = c.Get(last_id);
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(one->value, BigRec(kRecords - 1, kPayload));

  ServerStats stats = h.server->stats();
  EXPECT_EQ(stats.sessions_closed, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_GE(stats.requests_error, 2u);  // the two refused scans
}

// ---------------------------------------------------------------------
// Peers that do not read: backpressure, never a blocked worker.
// ---------------------------------------------------------------------

/// Polls until the server has answered `n` requests OK (or 5s elapse).
void WaitForRequestsOk(const Server& server, uint64_t n) {
  for (int i = 0; i < 5000; ++i) {
    if (server.stats().requests_ok >= n) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "server never answered " << n << " request(s)";
}

TEST(ServeTest, SlowReaderDoesNotStallOtherSessions) {
  FaultVfs vfs(5);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  // 8 × 1 MiB: one scan answer is far more than a socketpair buffers.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(wdb->get()->InsertValue(BigRec(i, 1u << 20)).ok());
  }
  ASSERT_TRUE(wdb->get()->Commit().ok());
  PairHarness h = StartPairServer(wdb->get(), /*workers=*/1, /*clients=*/2);

  // Client A asks for the scan and never reads a byte of the answer.
  Request scan;
  scan.op = ReqOp::kGetScan;
  scan.type = RecT();
  ASSERT_TRUE(h.clients[0].Send(std::move(scan)).ok());
  WaitForRequestsOk(*h.server, 1);

  // The server's only worker must not be parked on A's full socket.
  Client& b = h.clients[1];
  b.set_await_timeout(std::chrono::seconds(2));
  Status pong = b.Ping();
  EXPECT_TRUE(pong.ok()) << pong;
}

TEST(ServeTest, NonDrainingPipelinerIsBoundedNotBlocking) {
  FaultVfs vfs(5);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  // 15 × 512 KiB: each scan answer is about 7.5 MiB, so the unsent
  // bound is not a whole number of answers.
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(wdb->get()->InsertValue(BigRec(i, 512u << 10)).ok());
  }
  ASSERT_TRUE(wdb->get()->Commit().ok());
  const std::vector<Value> expected = wdb->get()->db().GetScan(RecT());
  Response answer;
  answer.op = ReqOp::kGetScan;
  for (const Value& v : expected) answer.entries.push_back(MakeDynamic(v));
  ByteBuffer answer_body;
  EncodeResponse(answer, &answer_body);
  const size_t answer_bytes = kFrameHeaderBytes + answer_body.size();
  ASSERT_LE(answer_bytes, kMaxFrameBody);

  PairHarness h = StartPairServer(wdb->get(), /*workers=*/1, /*clients=*/2);
  Client& a = h.clients[0];
  constexpr int kScans = 64;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kScans; ++i) {
    Request scan;
    scan.op = ReqOp::kGetScan;
    scan.type = RecT();
    auto id = a.Send(std::move(scan));
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }

  // Let the server run until it stops executing A's requests.
  WaitForRequestsOk(*h.server, 1);
  uint64_t executed = h.server->stats().requests_ok;
  for (int i = 0; i < 50; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const uint64_t now = h.server->stats().requests_ok;
    if (now == executed) break;
    executed = now;
  }
  // The bound's worth of answers, plus the one that crossed it.
  EXPECT_LE(executed, kMaxUnsentBytes / answer_bytes + 1);
  EXPECT_LT(executed, static_cast<uint64_t>(kScans));

  // The only worker is free for other sessions.
  Client& b = h.clients[1];
  b.set_await_timeout(std::chrono::seconds(2));
  Status pong = b.Ping();
  EXPECT_TRUE(pong.ok()) << pong;

  // Once A drains, every answer arrives, in order and intact.
  for (int i = 0; i < kScans; ++i) {
    auto resp = a.Await();
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_EQ(resp->id, ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(resp->status.ok()) << resp->status;
    ASSERT_EQ(resp->entries.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(resp->entries[j].value, expected[j]) << "scan " << i;
    }
  }
  EXPECT_EQ(h.server->stats().requests_ok, kScans + 1u);
}

// ---------------------------------------------------------------------
// Client receive deadline.
// ---------------------------------------------------------------------

TEST(ServeTest, AwaitDeadlineExpiresOnSilentPeer) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  Client c(std::move(pair->first));
  c.set_await_timeout(std::chrono::milliseconds(100));
  // The peer exists but never answers (nothing is reading either, but
  // one ping fits the socketpair buffer).
  Request ping;
  ping.op = ReqOp::kPing;
  ASSERT_TRUE(c.Send(std::move(ping)).ok());

  const auto t0 = std::chrono::steady_clock::now();
  auto resp = c.Await();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(resp.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(elapsed, std::chrono::milliseconds(90));
  EXPECT_LT(elapsed, std::chrono::seconds(5));

  // A peer that trickles half a header and stalls hits the same
  // deadline: it bounds the whole frame read, not each byte.
  const uint8_t half_header[4] = {1, 2, 3, 4};
  ASSERT_TRUE(pair->second.SendAll(half_header, sizeof(half_header)).ok());
  EXPECT_EQ(c.Await().status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------
// The shipping ops: kShipBounds / kReadChunk.
// ---------------------------------------------------------------------

TEST(ServeTest, ShipBoundsMatchesInProcessShipper) {
  FaultVfs vfs(5);
  auto wdb = WalDatabase::Open(&vfs, "db", WalOptions{{1, true}, 2});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  ASSERT_TRUE(wdb->get()->RegisterExtent("recs", RecT()).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(wdb->get()->InsertValue(Rec(i)).ok());
  }
  ASSERT_TRUE(wdb->get()->Commit().ok());

  PairHarness h = StartPairServer(wdb->get(), /*workers=*/1, /*clients=*/1);
  auto wire = h.clients[0].ShipBounds();
  ASSERT_TRUE(wire.ok()) << wire.status();
  const auto local = wdb->get()->ship_bounds();
  EXPECT_EQ(wire->generation, local.generation);
  ASSERT_EQ(wire->shards.size(), local.shards.size());
  for (size_t s = 0; s < local.shards.size(); ++s) {
    EXPECT_EQ(wire->shards[s].durable_bytes, local.shards[s].durable_bytes);
    EXPECT_EQ(wire->shards[s].epoch, local.shards[s].epoch);
  }
  EXPECT_GT(wire->epoch(), 0u);
}

TEST(ServeTest, ReadChunkBoundariesMatchTheFile) {
  FaultVfs vfs(5);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  ASSERT_TRUE(wdb->get()->RegisterExtent("recs", RecT()).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(wdb->get()->InsertValue(Rec(i)).ok());
  }
  ASSERT_TRUE(wdb->get()->Commit().ok());

  const uint64_t durable = wdb->get()->ship_bounds().shards[0].durable_bytes;
  ASSERT_GT(durable, 0u);
  auto file_bytes = vfs.ReadFileBytes(wdb->get()->wal_path(0));
  ASSERT_TRUE(file_bytes.ok()) << file_bytes.status();
  const std::string wal(file_bytes->begin(), file_bytes->end());

  PairHarness h = StartPairServer(wdb->get(), /*workers=*/1, /*clients=*/1);
  Client& c = h.clients[0];

  // Offset 0, the whole durable prefix.
  auto whole = c.ReadChunk(ShipFile::kWalSegment, 0, 0, durable);
  ASSERT_TRUE(whole.ok()) << whole.status();
  EXPECT_EQ(whole->file_size, wal.size());
  EXPECT_EQ(whole->data, wal.substr(0, durable));

  // A mid-file range.
  const uint64_t mid = durable / 2;
  auto tail = c.ReadChunk(ShipFile::kWalSegment, 0, mid, durable - mid);
  ASSERT_TRUE(tail.ok()) << tail.status();
  EXPECT_EQ(tail->data, wal.substr(mid, durable - mid));

  // Reading exactly at the end of the file: empty, not an error.
  auto at_end = c.ReadChunk(ShipFile::kWalSegment, 0, wal.size(), 64);
  ASSERT_TRUE(at_end.ok()) << at_end.status();
  EXPECT_EQ(at_end->file_size, wal.size());
  EXPECT_TRUE(at_end->data.empty());

  // Past the end: also empty.
  auto past = c.ReadChunk(ShipFile::kWalSegment, 0, wal.size() + 4096, 64);
  ASSERT_TRUE(past.ok()) << past.status();
  EXPECT_TRUE(past->data.empty());

  // A zero-length read is the cheap "stat": size only.
  auto stat = c.ReadChunk(ShipFile::kWalSegment, 0, 0, 0);
  ASSERT_TRUE(stat.ok()) << stat.status();
  EXPECT_EQ(stat->file_size, wal.size());
  EXPECT_TRUE(stat->data.empty());

  // A shard this (1-shard) primary does not have: typed error, session
  // survives.
  auto bad_shard = c.ReadChunk(ShipFile::kWalSegment, 1, 0, 16);
  EXPECT_EQ(bad_shard.status().code(), StatusCode::kInvalidArgument);

  // No checkpoint has been written yet: NotFound, in-band.
  auto no_ckpt = c.ReadChunk(ShipFile::kCheckpoint, 0, 0, 16);
  EXPECT_EQ(no_ckpt.status().code(), StatusCode::kNotFound);

  // After a checkpoint the same read succeeds and matches the file.
  ASSERT_TRUE(wdb->get()->Checkpoint().ok());
  auto ckpt_bytes = vfs.ReadFileBytes(wdb->get()->checkpoint_path());
  ASSERT_TRUE(ckpt_bytes.ok()) << ckpt_bytes.status();
  auto ckpt = c.ReadChunk(ShipFile::kCheckpoint, 0, 0,
                          std::min<uint64_t>(ckpt_bytes->size(), 4096));
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  EXPECT_EQ(ckpt->file_size, ckpt_bytes->size());
  EXPECT_EQ(ckpt->data,
            std::string(ckpt_bytes->begin(),
                        ckpt_bytes->begin() +
                            static_cast<long>(ckpt->data.size())));

  EXPECT_EQ(h.server->stats().sessions_closed, 0u);
}

// ---------------------------------------------------------------------
// RemoteShipper: an unmodified Replica over the wire.
// ---------------------------------------------------------------------

/// Follower == primary, compared through snapshots (the serve-side
/// sibling of crash_recovery_test's ExpectConverged).
void ExpectConverged(const Database& primary, const Database& follower) {
  Database::Snapshot p = primary.GetSnapshot();
  Database::Snapshot f = follower.GetSnapshot();
  ASSERT_EQ(p.size(), f.size());
  EXPECT_EQ(p.epoch(), f.epoch());
  // Ids are shard-striped, so walk the entries rather than indexing.
  std::map<Database::EntryId, Value> pv, fv;
  p.ForEachEntry([&](Database::EntryId id, const Dynamic& d) { pv[id] = d.value; });
  f.ForEachEntry([&](Database::EntryId id, const Dynamic& d) { fv[id] = d.value; });
  EXPECT_EQ(pv, fv);
  ASSERT_EQ(p.ExtentNames(), f.ExtentNames());
}

TEST(ServeTest, RemoteFollowerConvergesOverSocketpair) {
  FaultVfs vfs(7);
  auto wdb = WalDatabase::Open(&vfs, "db", WalOptions{{1, true}, 2});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  ASSERT_TRUE(wdb->get()->RegisterExtent("recs", RecT()).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(wdb->get()->InsertValue(Rec(i)).ok());
  }
  ASSERT_TRUE(wdb->get()->Commit().ok());

  PairHarness h = StartPairServer(wdb->get(), /*workers=*/1, /*clients=*/0);
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  ASSERT_TRUE(h.server->AdoptConnection(std::move(pair->first)).ok());
  auto shipper = RemoteShipper::Adopt(std::move(pair->second));
  ASSERT_TRUE(shipper.ok()) << shipper.status();
  EXPECT_EQ((*shipper)->shard_count(), 2);

  persist::Replica follower;
  ASSERT_TRUE(follower.Attach(shipper->get()).ok());
  ExpectConverged(wdb->get()->db(), follower.db());

  // Incremental tailing: new commits arrive on the next poll.
  for (int i = 10; i < 16; ++i) {
    ASSERT_TRUE(wdb->get()->InsertValue(Rec(i)).ok());
  }
  ASSERT_TRUE(wdb->get()->Commit().ok());
  ASSERT_TRUE(follower.Poll().ok());
  ExpectConverged(wdb->get()->db(), follower.db());

  // A checkpoint rotation bumps the generation: the follower must
  // re-bootstrap over the wire (checkpoint download + fresh cursors).
  ASSERT_TRUE(wdb->get()->Checkpoint().ok());
  ASSERT_TRUE(wdb->get()->InsertValue(Rec(99)).ok());
  ASSERT_TRUE(wdb->get()->Commit().ok());
  ASSERT_TRUE(follower.Poll().ok());
  ExpectConverged(wdb->get()->db(), follower.db());
  EXPECT_GE(follower.stats().bootstraps, 2u);

  follower.Detach();
  h.server->Stop();
}

// A cold follower replays each shard's WAL through the read-ahead
// window: one kReadChunk per shard fetches everything up to the
// durable bound, so the RPC count is a small constant (bounds, probes,
// one fill per shard), not the 2 round trips per record that a header
// read plus a body read would cost without it (over 8 000 here).
TEST(ServeTest, WireCatchUpReadsAheadToDurableBound) {
  FaultVfs vfs(11);
  auto wdb = WalDatabase::Open(&vfs, "db", WalOptions{{1, true}, 2});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  ASSERT_TRUE(wdb->get()->RegisterExtent("recs", RecT()).ok());
  constexpr int kRecords = 2000;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(wdb->get()->InsertValue(Rec(i)).ok());
  }
  ASSERT_TRUE(wdb->get()->Commit().ok());

  PairHarness h = StartPairServer(wdb->get(), /*workers=*/1, /*clients=*/0);
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  ASSERT_TRUE(h.server->AdoptConnection(std::move(pair->first)).ok());
  auto shipper = RemoteShipper::Adopt(std::move(pair->second));
  ASSERT_TRUE(shipper.ok()) << shipper.status();

  persist::Replica follower;
  ASSERT_TRUE(follower.Attach(shipper->get()).ok());
  ExpectConverged(wdb->get()->db(), follower.db());
  EXPECT_EQ(follower.stats().bootstraps, 1u);
  EXPECT_LE((*shipper)->stats().rpcs, 16u);

  follower.Detach();
  h.server->Stop();
}

// A WAL larger than kMaxReadChunk takes more than one window; the
// record that straddles the first window's end is re-fetched whole.
TEST(ServeTest, ReadAheadRefillsPastTheChunkCap) {
  FaultVfs vfs(12);
  auto wdb = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  ASSERT_TRUE(wdb->get()->RegisterExtent("big", SeqT()).ok());
  const int n = static_cast<int>(kMaxReadChunk / 65536) + 16;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(wdb->get()->InsertValue(BigRec(i, 65536)).ok());
  }
  ASSERT_GT(wdb->get()->ship_bounds().shards[0].durable_bytes,
            kMaxReadChunk);

  PairHarness h = StartPairServer(wdb->get(), /*workers=*/1, /*clients=*/0);
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  ASSERT_TRUE(h.server->AdoptConnection(std::move(pair->first)).ok());
  auto shipper = RemoteShipper::Adopt(std::move(pair->second));
  ASSERT_TRUE(shipper.ok()) << shipper.status();

  persist::Replica follower;
  ASSERT_TRUE(follower.Attach(shipper->get()).ok());
  ExpectConverged(wdb->get()->db(), follower.db());
  EXPECT_LE((*shipper)->stats().rpcs, 12u);

  follower.Detach();
  h.server->Stop();
}

TEST(ServeTest, NetworkFollowerReconnectsAfterPrimaryRestart) {
  storage::PosixVfs vfs;
  const std::string dir = FreshDir("wirefollow");

  persist::Replica follower;
  std::unique_ptr<RemoteShipper> shipper;
  uint16_t port = 0;
  {
    auto wdb = WalDatabase::Open(&vfs, dir, CommitPolicy{1, true});
    ASSERT_TRUE(wdb.ok()) << wdb.status();
    ASSERT_TRUE(wdb->get()->RegisterExtent("recs", RecT()).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(wdb->get()->InsertValue(Rec(i)).ok());
    }
    ASSERT_TRUE(wdb->get()->Commit().ok());

    ServeOptions opts;
    opts.workers = 1;
    opts.listen = true;
    opts.port = 0;
    auto server = Server::Start(wdb->get(), opts);
    ASSERT_TRUE(server.ok()) << server.status();
    port = (*server)->port();

    RemoteShipper::Options ropts;
    ropts.recv_timeout = std::chrono::milliseconds(2000);
    ropts.backoff_initial = std::chrono::milliseconds(5);
    ropts.backoff_max = std::chrono::milliseconds(50);
    ropts.max_reconnect_attempts = 40;
    auto connected = RemoteShipper::Connect("127.0.0.1", port, ropts);
    ASSERT_TRUE(connected.ok()) << connected.status();
    shipper = std::move(*connected);

    ASSERT_TRUE(follower.Attach(shipper.get()).ok());
    ExpectConverged(wdb->get()->db(), follower.db());

    (*server)->Stop();
  }  // the primary process "dies" here

  // Same data directory, same port: a recovered primary comes back.
  auto wdb2 = WalDatabase::Open(&vfs, dir, CommitPolicy{1, true});
  ASSERT_TRUE(wdb2.ok()) << wdb2.status();
  for (int i = 5; i < 8; ++i) {
    ASSERT_TRUE(wdb2->get()->InsertValue(Rec(i)).ok());
  }
  ASSERT_TRUE(wdb2->get()->Commit().ok());
  ServeOptions opts2;
  opts2.workers = 1;
  opts2.listen = true;
  opts2.port = port;
  auto server2 = Server::Start(wdb2->get(), opts2);
  ASSERT_TRUE(server2.ok()) << server2.status();

  // The next poll finds the transport dead, redials, sees a bumped
  // generation (the bias — the restarted primary's counter reset), and
  // re-bootstraps to the recovered primary's state.
  ASSERT_TRUE(follower.Poll().ok());
  ExpectConverged(wdb2->get()->db(), follower.db());
  EXPECT_GE(shipper->stats().reconnects, 1u);
  EXPECT_GE(follower.stats().bootstraps, 2u);

  // And keeps tailing it.
  ASSERT_TRUE(wdb2->get()->InsertValue(Rec(100)).ok());
  ASSERT_TRUE(wdb2->get()->Commit().ok());
  ASSERT_TRUE(follower.Poll().ok());
  ExpectConverged(wdb2->get()->db(), follower.db());

  follower.Detach();
  (*server2)->Stop();
}

// ---------------------------------------------------------------------
// Hostile / restarted primaries: the chunk path must stay honest.
// ---------------------------------------------------------------------

/// Reads one request frame off `sock` (blocking) and decodes it.
Result<Request> RecvRequest(Socket* sock) {
  std::vector<uint8_t> buf(kFrameHeaderBytes);
  DBPL_RETURN_IF_ERROR(sock->RecvAll(buf.data(), buf.size()));
  size_t total = 0;
  std::string err;
  FrameStatus fs = InspectFrame(buf.data(), buf.size(), &total, &err);
  if (fs == FrameStatus::kNeedMore && total > buf.size()) {
    const size_t had = buf.size();
    buf.resize(total);
    DBPL_RETURN_IF_ERROR(sock->RecvAll(buf.data() + had, total - had));
    fs = InspectFrame(buf.data(), buf.size(), &total, &err);
  }
  if (fs != FrameStatus::kFrame) return Status::Corruption(err);
  return DecodeRequest(buf.data() + kFrameHeaderBytes,
                       total - kFrameHeaderBytes);
}

/// Frames and sends one response on `sock`.
Status SendResponse(Socket* sock, const Response& resp) {
  ByteBuffer body, frame;
  EncodeResponse(resp, &body);
  DBPL_RETURN_IF_ERROR(EncodeFrame(body, &frame));
  return sock->SendAll(frame.data(), frame.size());
}

/// A scripted primary: answers the kShipBounds handshake honestly (one
/// shard) but every nonzero kReadChunk with `excess` bytes *more* than
/// requested — each answer is still a perfectly CRC-valid frame, so
/// only a follower-side length check can catch it. Zero-length probes
/// (Open's stat) are answered honestly so a shipper gets far enough to
/// reach the ReadAt copy path. Exits when the peer hangs up.
void RunOversizingPrimary(Socket sock, size_t excess) {
  while (true) {
    auto req = RecvRequest(&sock);
    if (!req.ok()) return;
    Response resp;
    resp.id = req->id;
    resp.op = req->op;
    if (req->op == ReqOp::kShipBounds) {
      resp.ship.generation = 1;
      resp.ship.shards.resize(1);
      resp.ship.shards[0].durable_bytes = 1 << 20;
      resp.ship.shards[0].epoch = 1;
    } else if (req->op == ReqOp::kReadChunk) {
      resp.file_size = 1 << 20;
      resp.chunk.assign(
          req->length == 0 ? 0 : static_cast<size_t>(req->length) + excess,
          'x');
    }
    if (!SendResponse(&sock, resp).ok()) return;
  }
}

TEST(ServeTest, OversizeChunkFromHostilePrimaryIsRejected) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  std::thread primary(RunOversizingPrimary, std::move(pair->second), 65536);

  auto shipper = RemoteShipper::Adopt(std::move(pair->first));
  ASSERT_TRUE(shipper.ok()) << shipper.status();
  auto file = (*shipper)->vfs()->Open((*shipper)->wal_path(0),
                                      storage::OpenMode::kRead);
  ASSERT_TRUE(file.ok()) << file.status();

  // Unchecked, the 64 KiB answer to this 8-byte read would be
  // memcpy'd straight over the tiny buffer (follower-side memory
  // corruption); it must instead die in-band as Corruption.
  uint8_t tiny[8] = {0};
  auto got = (*file)->ReadAt(0, tiny, sizeof(tiny));
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << got.status();

  shipper->reset();  // closes the transport; the scripted primary exits
  primary.join();
}

TEST(ServeTest, ClientRejectsOversizeChunk) {
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  std::thread primary(RunOversizingPrimary, std::move(pair->second), 4096);
  {
    Client c(std::move(pair->first));
    auto got = c.ReadChunk(ShipFile::kWalSegment, 0, 0, 16);
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << got.status();
  }  // the Client's socket closes here; the scripted primary exits
  primary.join();
}

/// A scripted primary serving `wal` as its one WAL segment while
/// advertising only `durable` bytes of it as durable. It records every
/// kReadChunk it is sent in `*reads` (read after the thread is joined)
/// and pads each nonzero answer with `excess` bytes beyond the range
/// asked for. There is no checkpoint. Exits when the peer hangs up.
void RunRecordingPrimary(Socket sock, std::string wal, uint64_t durable,
                         size_t excess, std::vector<Request>* reads) {
  while (true) {
    auto req = RecvRequest(&sock);
    if (!req.ok()) return;
    Response resp;
    resp.id = req->id;
    resp.op = req->op;
    if (req->op == ReqOp::kShipBounds) {
      resp.ship.generation = 1;
      resp.ship.shards.resize(1);
      resp.ship.shards[0].durable_bytes = durable;
      resp.ship.shards[0].epoch = 1;
    } else if (req->op == ReqOp::kReadChunk) {
      reads->push_back(*req);
      if (req->file == ShipFile::kCheckpoint) {
        resp.status = Status::NotFound("no checkpoint");
      } else {
        resp.file_size = wal.size();
        if (req->offset < wal.size()) {
          resp.chunk = wal.substr(static_cast<size_t>(req->offset),
                                  static_cast<size_t>(req->length));
        }
        if (req->length > 0) resp.chunk.append(excess, 'x');
      }
    }
    if (!SendResponse(&sock, resp).ok()) return;
  }
}

/// A WAL of `n` put records; `*bound` is the byte offset just past
/// record `durable_records`.
std::string WalBytes(int n, int durable_records, uint64_t* bound) {
  FaultVfs vfs(13);
  auto writer = storage::LogWriter::Open(&vfs, "wal");
  EXPECT_TRUE(writer.ok()) << writer.status();
  for (int i = 0; i < n; ++i) {
    if (i == durable_records) *bound = (*writer)->bytes_written();
    storage::LogRecord rec{storage::LogRecordType::kPut,
                           "k" + std::to_string(i), std::string(i % 13, 'v')};
    EXPECT_TRUE((*writer)->Append(rec).ok());
  }
  auto bytes = vfs.ReadFileBytes("wal");
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return std::string(bytes->begin(), bytes->end());
}

// The window never asks for a byte past the advertised durable bound,
// even though the primary's file holds more: a follower tailing to the
// bound fetches it in one read-ahead.
TEST(ServeTest, ReadAheadStopsAtTheDurableBound) {
  uint64_t durable = 0;
  const std::string wal = WalBytes(/*n=*/60, /*durable_records=*/40, &durable);
  ASSERT_GT(durable, 0u);
  ASSERT_LT(durable, wal.size());
  std::vector<Request> reads;
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  std::thread primary(RunRecordingPrimary, std::move(pair->second), wal,
                      durable, 0, &reads);
  {
    auto shipper = RemoteShipper::Adopt(std::move(pair->first));
    ASSERT_TRUE(shipper.ok()) << shipper.status();
    auto reader = storage::LogReader::Open((*shipper)->vfs(),
                                           (*shipper)->wal_path(0));
    ASSERT_TRUE(reader.ok()) << reader.status();
    storage::LogRecord rec;
    int got = 0;
    while ((*reader)->offset() < durable) {
      auto has = (*reader)->Next(&rec);
      ASSERT_TRUE(has.ok()) << has.status();
      ASSERT_TRUE(*has);
      EXPECT_EQ(rec.key, "k" + std::to_string(got));
      EXPECT_EQ(rec.value, std::string(got % 13, 'v'));
      ++got;
    }
    EXPECT_EQ(got, 40);
    EXPECT_EQ((*reader)->offset(), durable);
  }  // the shipper's socket closes here; the scripted primary exits
  primary.join();

  int fills = 0;
  for (const Request& r : reads) {
    EXPECT_LE(r.offset + r.length, durable)
        << "read of " << r.length << " bytes at " << r.offset;
    if (r.length > 0) ++fills;
  }
  EXPECT_EQ(fills, 1);
}

// A read-ahead answer longer than the widened request is still
// rejected before any copy.
TEST(ServeTest, OversizeReadAheadAnswerIsRejected) {
  uint64_t durable = 0;
  const std::string wal = WalBytes(/*n=*/20, /*durable_records=*/20, &durable);
  durable = wal.size();
  std::vector<Request> reads;
  auto pair = Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  std::thread primary(RunRecordingPrimary, std::move(pair->second), wal,
                      durable, 1, &reads);
  {
    auto shipper = RemoteShipper::Adopt(std::move(pair->first));
    ASSERT_TRUE(shipper.ok()) << shipper.status();
    auto file = (*shipper)->vfs()->Open((*shipper)->wal_path(0),
                                        storage::OpenMode::kRead);
    ASSERT_TRUE(file.ok()) << file.status();
    uint8_t header[kFrameHeaderBytes] = {0};
    auto got = (*file)->ReadAt(0, header, sizeof(header));
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << got.status();
  }
  primary.join();
  ASSERT_FALSE(reads.empty());
  EXPECT_EQ(reads.back().length, durable);  // the widened request
}

TEST(ServeTest, ReconnectAbortsInFlightChunkRead) {
  storage::PosixVfs vfs;
  const std::string dir = FreshDir("reconnabort");
  uint16_t port = 0;
  std::unique_ptr<RemoteShipper> shipper;
  std::unique_ptr<storage::VfsFile> file;
  uint64_t gen0 = 0;
  {
    auto wdb = WalDatabase::Open(&vfs, dir, CommitPolicy{1, true});
    ASSERT_TRUE(wdb.ok()) << wdb.status();
    ASSERT_TRUE(wdb->get()->RegisterExtent("recs", RecT()).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(wdb->get()->InsertValue(Rec(i)).ok());
    }
    ASSERT_TRUE(wdb->get()->Commit().ok());

    ServeOptions opts;
    opts.workers = 1;
    opts.listen = true;
    opts.port = 0;
    auto server = Server::Start(wdb->get(), opts);
    ASSERT_TRUE(server.ok()) << server.status();
    port = (*server)->port();

    RemoteShipper::Options ropts;
    ropts.recv_timeout = std::chrono::milliseconds(2000);
    ropts.backoff_initial = std::chrono::milliseconds(5);
    ropts.backoff_max = std::chrono::milliseconds(50);
    ropts.max_reconnect_attempts = 40;
    auto connected = RemoteShipper::Connect("127.0.0.1", port, ropts);
    ASSERT_TRUE(connected.ok()) << connected.status();
    shipper = std::move(*connected);
    gen0 = shipper->ship_bounds().generation;

    auto opened = shipper->vfs()->Open(shipper->wal_path(0),
                                       storage::OpenMode::kRead);
    ASSERT_TRUE(opened.ok()) << opened.status();
    file = std::move(*opened);
    uint8_t buf[16];
    ASSERT_TRUE(file->ReadAt(0, buf, sizeof(buf)).ok());

    (*server)->Stop();
  }  // the primary process "dies" here

  // A recovered primary is back on the same port before the follower
  // notices anything.
  auto wdb2 = WalDatabase::Open(&vfs, dir, CommitPolicy{1, true});
  ASSERT_TRUE(wdb2.ok()) << wdb2.status();
  ServeOptions opts2;
  opts2.workers = 1;
  opts2.listen = true;
  opts2.port = port;
  auto server2 = Server::Start(wdb2->get(), opts2);
  ASSERT_TRUE(server2.ok()) << server2.status();

  // The read that crosses the restart reconnects under the hood but
  // must NOT be answered from the new incarnation's file — replaying
  // the range could splice bytes from two primary lifetimes into one
  // logical read. It aborts as kUnavailable instead.
  uint8_t buf[16];
  auto got = file->ReadAt(0, buf, sizeof(buf));
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable) << got.status();
  EXPECT_GE(shipper->stats().reconnects, 1u);

  // The very next bounds poll runs on the reconnected transport and
  // reports the bumped generation — the re-bootstrap signal.
  EXPECT_GT(shipper->ship_bounds().generation, gen0);

  file.reset();
  shipper.reset();
  (*server2)->Stop();
}

// A read-ahead window dies with its connection: after a reconnect
// to a different primary incarnation, a read the old window covers
// must go to the wire and return the new primary's bytes.
TEST(ServeTest, ReadAheadNeverOutlivesItsConnection) {
  storage::PosixVfs vfs;
  const std::string dir_a = FreshDir("readahead_a");
  const std::string dir_b = FreshDir("readahead_b");
  uint16_t port = 0;
  std::unique_ptr<RemoteShipper> shipper;
  std::unique_ptr<storage::VfsFile> file;
  std::string old_bytes;
  {
    auto wdb = WalDatabase::Open(&vfs, dir_a, CommitPolicy{1, true});
    ASSERT_TRUE(wdb.ok()) << wdb.status();
    ASSERT_TRUE(wdb->get()->RegisterExtent("recs", RecT()).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(wdb->get()->InsertValue(Rec(i)).ok());
    }
    ASSERT_TRUE(wdb->get()->Commit().ok());
    auto bytes = vfs.ReadFileBytes(wdb->get()->wal_path(0));
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    old_bytes.assign(bytes->begin(), bytes->end());

    ServeOptions opts;
    opts.workers = 1;
    opts.listen = true;
    opts.port = 0;
    auto server = Server::Start(wdb->get(), opts);
    ASSERT_TRUE(server.ok()) << server.status();
    port = (*server)->port();

    RemoteShipper::Options ropts;
    ropts.recv_timeout = std::chrono::milliseconds(2000);
    ropts.backoff_initial = std::chrono::milliseconds(5);
    ropts.backoff_max = std::chrono::milliseconds(50);
    ropts.max_reconnect_attempts = 40;
    auto connected = RemoteShipper::Connect("127.0.0.1", port, ropts);
    ASSERT_TRUE(connected.ok()) << connected.status();
    shipper = std::move(*connected);

    // A 16-byte read fills a window with the whole durable segment.
    auto opened = shipper->vfs()->Open(shipper->wal_path(0),
                                       storage::OpenMode::kRead);
    ASSERT_TRUE(opened.ok()) << opened.status();
    file = std::move(*opened);
    uint8_t buf[16];
    auto got = file->ReadAt(0, buf, sizeof(buf));
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(*got, sizeof(buf));

    (*server)->Stop();
  }

  // A different database with the same geometry takes over the port;
  // its WAL differs from the old one at offset 16.
  auto wdb2 = WalDatabase::Open(&vfs, dir_b, CommitPolicy{1, true});
  ASSERT_TRUE(wdb2.ok()) << wdb2.status();
  ASSERT_TRUE(wdb2->get()->RegisterExtent("others", SeqT()).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(wdb2->get()->InsertValue(Rec(100 + i)).ok());
  }
  ASSERT_TRUE(wdb2->get()->Commit().ok());
  auto new_file = vfs.ReadFileBytes(wdb2->get()->wal_path(0));
  ASSERT_TRUE(new_file.ok()) << new_file.status();
  const std::string new_bytes(new_file->begin(), new_file->end());
  ASSERT_GE(new_bytes.size(), 32u);
  ASSERT_NE(new_bytes.substr(16, 16), old_bytes.substr(16, 16));
  ServeOptions opts2;
  opts2.workers = 1;
  opts2.listen = true;
  opts2.port = port;
  auto server2 = Server::Start(wdb2->get(), opts2);
  ASSERT_TRUE(server2.ok()) << server2.status();

  // The bounds poll finds the transport dead and reconnects.
  shipper->ship_bounds();
  ASSERT_GE(shipper->stats().reconnects, 1u);

  // Offset 16 lies inside the old window and ahead of its consumed
  // position, but the window belongs to the dead connection.
  const uint64_t rpcs = shipper->stats().rpcs;
  uint8_t buf[16];
  auto got = file->ReadAt(16, buf, sizeof(buf));
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(*got, sizeof(buf));
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(buf), sizeof(buf)),
            new_bytes.substr(16, 16));
  EXPECT_GT(shipper->stats().rpcs, rpcs);

  file.reset();
  shipper.reset();
  (*server2)->Stop();
}

TEST(ServeTest, GeometryChangeOnReconnectRefusesImmediately) {
  storage::PosixVfs vfs;
  uint16_t port = 0;
  std::unique_ptr<RemoteShipper> shipper;
  std::unique_ptr<storage::VfsFile> file;
  {
    // A 2-shard primary.
    auto wdb = WalDatabase::Open(&vfs, FreshDir("geomchange_a"),
                                 WalOptions{{1, true}, 2});
    ASSERT_TRUE(wdb.ok()) << wdb.status();
    ASSERT_TRUE(wdb->get()->RegisterExtent("recs", RecT()).ok());
    ASSERT_TRUE(wdb->get()->InsertValue(Rec(1)).ok());
    ASSERT_TRUE(wdb->get()->Commit().ok());

    ServeOptions opts;
    opts.workers = 1;
    opts.listen = true;
    opts.port = 0;
    auto server = Server::Start(wdb->get(), opts);
    ASSERT_TRUE(server.ok()) << server.status();
    port = (*server)->port();

    RemoteShipper::Options ropts;
    ropts.recv_timeout = std::chrono::milliseconds(2000);
    ropts.backoff_initial = std::chrono::milliseconds(5);
    ropts.backoff_max = std::chrono::milliseconds(50);
    ropts.max_reconnect_attempts = 40;
    auto connected = RemoteShipper::Connect("127.0.0.1", port, ropts);
    ASSERT_TRUE(connected.ok()) << connected.status();
    shipper = std::move(*connected);
    ASSERT_EQ(shipper->shard_count(), 2);

    auto opened = shipper->vfs()->Open(shipper->wal_path(0),
                                       storage::OpenMode::kRead);
    ASSERT_TRUE(opened.ok()) << opened.status();
    file = std::move(*opened);

    (*server)->Stop();
  }

  // A *different* (1-shard) database takes over the port: as far as
  // this shipper is concerned that is not a restarted primary.
  auto wdb2 = WalDatabase::Open(&vfs, FreshDir("geomchange_b"),
                                CommitPolicy{1, true});
  ASSERT_TRUE(wdb2.ok()) << wdb2.status();
  ServeOptions opts2;
  opts2.workers = 1;
  opts2.listen = true;
  opts2.port = port;
  auto server2 = Server::Start(wdb2->get(), opts2);
  ASSERT_TRUE(server2.ok()) << server2.status();

  // The refusal is permanent, so it must surface as the documented
  // kFailedPrecondition at once — not be redialed into kUnavailable
  // after max_reconnect_attempts (40 here: masking would also take
  // ~40 × backoff in wall clock).
  uint8_t buf[16];
  auto got = file->ReadAt(0, buf, sizeof(buf));
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition)
      << got.status();

  file.reset();
  shipper.reset();
  (*server2)->Stop();
}

}  // namespace
}  // namespace dbpl::serve
