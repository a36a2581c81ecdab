// Differential tests for the sharded entry log: a K-sharded
// dyndb::Database (and its WAL/replica stack) must be observationally
// equivalent to the single-shard one on every read path — same entries,
// same Get results under every strategy, same joins, same recovery,
// same replication — differing only in id encoding and enumeration
// interleaving (both of which are specified, and checked here too).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/value.h"
#include "dyndb/database.h"
#include "persist/database_io.h"
#include "persist/replica.h"
#include "persist/wal_database.h"
#include "serial/encoder.h"
#include "storage/fault_vfs.h"
#include "test_util.h"
#include "types/parse.h"
#include "types/type_of.h"

namespace dbpl::dyndb {
namespace {

using core::Value;
using persist::CommitPolicy;
using persist::Replica;
using persist::WalDatabase;
using persist::WalOptions;
using storage::FaultVfs;

/// Total order on values via their canonical serialized form, so
/// result sets can be compared as multisets.
std::string Fingerprint(const Value& v) {
  ByteBuffer buf;
  serial::EncodeValue(v, &buf);
  return std::string(reinterpret_cast<const char*>(buf.data()), buf.size());
}

std::vector<std::string> Sorted(const std::vector<Value>& vs) {
  std::vector<std::string> out;
  out.reserve(vs.size());
  for (const Value& v : vs) out.push_back(Fingerprint(v));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> SortedEntries(const Database& db) {
  std::vector<std::string> out;
  db.GetSnapshot().ForEachEntry(
      [&](Database::EntryId, const Dynamic& d) {
        out.push_back(Fingerprint(d.value));
      });
  std::sort(out.begin(), out.end());
  return out;
}

/// The exact (id -> value) map, for paths that must preserve ids
/// (checkpoint round-trips, replication).
std::map<Database::EntryId, std::string> IdMap(const Database& db) {
  std::map<Database::EntryId, std::string> out;
  db.GetSnapshot().ForEachEntry(
      [&](Database::EntryId id, const Dynamic& d) {
        out[id] = Fingerprint(d.value);
      });
  return out;
}

types::Type NameT() { return *types::ParseType("{Name: String}"); }
types::Type AgeT() { return *types::ParseType("{Age: Int}"); }

TEST(ShardedIdTest, EncodingRoundTrips) {
  for (int k : {1, 2, 3, 7, Database::kMaxShards}) {
    for (uint64_t seq = 0; seq < 5; ++seq) {
      for (int s = 0; s < k; ++s) {
        const Database::EntryId id =
            seq * static_cast<uint64_t>(k) + static_cast<uint64_t>(s);
        EXPECT_EQ(Database::ShardOfId(id, k), s);
        EXPECT_EQ(Database::SeqOfId(id, k), seq);
      }
    }
  }
}

TEST(ShardedIdTest, SingleShardIdsStayDense) {
  Database db;  // default: one shard
  EXPECT_EQ(db.shards(), 1);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(db.MustInsertValue(Value::Int(static_cast<int64_t>(i))), i);
  }
}

TEST(ShardedIdTest, ShardedIdsEncodeTheirShardAndResolve) {
  Database db(DatabaseOptions{4});
  EXPECT_EQ(db.shards(), 4);
  std::set<Database::EntryId> ids;
  for (int i = 0; i < 64; ++i) {
    Value v = Value::Int(i);
    const Database::EntryId id = db.MustInsertValue(v);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
    auto got = db.Get(id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->value, v);
  }
  EXPECT_EQ(db.size(), 64u);
  // Each shard's visible sequence is dense: ids seq*K+s for seq below
  // the shard size all resolve, the next one does not.
  const Database::Snapshot snap = db.GetSnapshot();
  size_t total = 0;
  for (int s = 0; s < 4; ++s) {
    const size_t n = snap.shard_size(s);
    total += n;
    for (uint64_t seq = 0; seq < n; ++seq) {
      EXPECT_TRUE(snap.Get(seq * 4 + static_cast<uint64_t>(s)).ok());
    }
    EXPECT_FALSE(snap.Get(n * 4 + static_cast<uint64_t>(s)).ok());
  }
  EXPECT_EQ(total, 64u);
}

TEST(ShardedIdTest, InsertAtValidatesTheShardSequence) {
  Database db(DatabaseOptions{3});
  // Replay ids out of shard order is fine; out of *sequence* order
  // within a shard is a gap.
  ASSERT_TRUE(db.InsertAt(2, MakeDynamic(Value::Int(2))).ok());  // shard 2
  ASSERT_TRUE(db.InsertAt(0, MakeDynamic(Value::Int(0))).ok());  // shard 0
  Status gap = db.InsertAt(4, MakeDynamic(Value::Int(4)));  // shard 1 seq 1
  EXPECT_EQ(gap.code(), StatusCode::kFailedPrecondition);
  Status dup = db.InsertAt(0, MakeDynamic(Value::Int(0)));
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db.InsertAt(1, MakeDynamic(Value::Int(1))).ok());  // shard 1
  ASSERT_TRUE(db.InsertAt(4, MakeDynamic(Value::Int(4))).ok());
  EXPECT_EQ(db.size(), 4u);
  EXPECT_EQ(db.Get(4)->value, Value::Int(4));
}

TEST(ShardedDatabaseTest, EnumerationOrderIsIdOrder) {
  Database db(DatabaseOptions{5});
  for (int i = 0; i < 40; ++i) db.MustInsertValue(Value::Int(i));
  std::vector<Database::EntryId> seen;
  db.GetSnapshot().ForEachEntry(
      [&](Database::EntryId id, const Dynamic&) { seen.push_back(id); });
  ASSERT_EQ(seen.size(), 40u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

/// One randomized workload applied to both databases: inserts of
/// record-ish and arbitrary values, with extent registrations
/// interleaved at pseudo-random points.
void ApplyWorkload(uint64_t seed, int n, Database* a, Database* b) {
  testing::Rng rng(seed);
  int extents = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.Below(16) == 0 && extents < 2) {
      types::Type t = extents == 0 ? NameT() : AgeT();
      const std::string name = "x" + std::to_string(extents++);
      ASSERT_TRUE(a->RegisterExtent(name, t).ok());
      ASSERT_TRUE(b->RegisterExtent(name, std::move(t)).ok());
    } else {
      Value v = rng.Coin() ? testing::RandomRecord(rng)
                           : testing::RandomValue(rng, 2);
      a->MustInsertValue(v);
      b->MustInsertValue(std::move(v));
    }
  }
}

TEST(ShardedDifferentialTest, AllReadPathsMatchSingleShard) {
  for (int k : {2, 3, 5}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("shards " + std::to_string(k) + " seed " +
                   std::to_string(seed));
      Database one;
      Database sharded(DatabaseOptions{k});
      ApplyWorkload(seed, 120, &one, &sharded);

      EXPECT_EQ(sharded.size(), one.size());
      EXPECT_EQ(sharded.epoch(),
                // Each registration counts once per shard.
                one.size() +
                    static_cast<uint64_t>(k) * (one.epoch() - one.size()));
      EXPECT_EQ(SortedEntries(sharded), SortedEntries(one));
      EXPECT_EQ(sharded.DistinctTypeCount(), one.DistinctTypeCount());
      EXPECT_EQ(sharded.ExtentNames(), one.ExtentNames());

      // Every Get strategy, on several probe types.
      const Database::Snapshot ss = sharded.GetSnapshot();
      const Database::Snapshot os = one.GetSnapshot();
      for (const types::Type& t :
           {NameT(), AgeT(), types::Type::Top(),
            *types::ParseType("{Name: String, Dept: String}")}) {
        EXPECT_EQ(Sorted(ss.GetScan(t)), Sorted(os.GetScan(t)));
        EXPECT_EQ(Sorted(ss.GetViaIndex(t)), Sorted(os.GetViaIndex(t)));
        // Threaded scans partition differently but agree too.
        EXPECT_EQ(Sorted(ss.GetScan(t, GetOptions{3})),
                  Sorted(os.GetScan(t)));
        EXPECT_EQ(Sorted(ss.GetViaIndex(t, GetOptions{3})),
                  Sorted(os.GetViaIndex(t)));
        auto se = ss.GetViaExtent(t);
        auto oe = os.GetViaExtent(t);
        ASSERT_EQ(se.ok(), oe.ok());
        if (se.ok()) EXPECT_EQ(Sorted(*se), Sorted(*oe));
        EXPECT_EQ(Sorted(ss.GetRelation(t).objects()),
                  Sorted(os.GetRelation(t).objects()));
      }

      // Packages carry the same values (ids differ only in encoding).
      {
        std::vector<Value> sp, op;
        for (const Dynamic& d : ss.GetPackages(NameT())) sp.push_back(d.value);
        for (const Dynamic& d : os.GetPackages(NameT())) op.push_back(d.value);
        EXPECT_EQ(Sorted(sp), Sorted(op));
      }

      // Joins over extents derived from one consistent image.
      auto sj = ss.JoinExtents(NameT(), AgeT());
      auto oj = os.JoinExtents(NameT(), AgeT());
      ASSERT_EQ(sj.ok(), oj.ok());
      if (sj.ok()) EXPECT_EQ(Sorted(sj->objects()), Sorted(oj->objects()));
    }
  }
}

TEST(ShardedDifferentialTest, SnapshotSaveLoadMatches) {
  FaultVfs vfs(11);
  Database one;
  Database sharded(DatabaseOptions{4});
  ApplyWorkload(21, 80, &one, &sharded);
  // SaveSnapshot enumerates in id order; the reloaded (single-shard)
  // databases hold the same multiset either way.
  ASSERT_TRUE(
      persist::SaveSnapshot(&vfs, "one.dbpl", one.GetSnapshot()).ok());
  ASSERT_TRUE(persist::SaveSnapshot(&vfs, "sharded.dbpl",
                                    sharded.GetSnapshot()).ok());
  auto lone = persist::LoadDatabase(&vfs, "one.dbpl");
  auto lsharded = persist::LoadDatabase(&vfs, "sharded.dbpl");
  ASSERT_TRUE(lone.ok() && lsharded.ok());
  EXPECT_EQ(SortedEntries(*lsharded), SortedEntries(*lone));
}

TEST(ShardedCheckpointTest, V2RoundTripPreservesIdsAndGeometry) {
  FaultVfs vfs(12);
  Database db(DatabaseOptions{3});
  ASSERT_TRUE(db.RegisterExtent("names", NameT()).ok());
  testing::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    db.MustInsertValue(testing::RandomRecord(rng));
  }
  ASSERT_TRUE(
      persist::SaveCheckpoint(&vfs, "ckpt.dbpl", db.GetSnapshot()).ok());

  auto image = persist::ReadCheckpoint(&vfs, "ckpt.dbpl");
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->shards, 3);
  EXPECT_EQ(image->entry_count(), 50u);
  ASSERT_EQ(image->extents.size(), 1u);
  EXPECT_EQ(image->extents[0].first, "names");

  auto loaded = persist::LoadCheckpoint(&vfs, "ckpt.dbpl");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->shards(), 3);
  EXPECT_EQ(IdMap(*loaded), IdMap(db));  // ids, not just values
  EXPECT_EQ(loaded->ExtentNames(), db.ExtentNames());
  EXPECT_EQ(loaded->epoch(), db.epoch());
}

TEST(ShardedWalTest, ShardedRecoveryMatchesSingleShard) {
  FaultVfs vfs(13);
  {
    auto one = WalDatabase::Open(&vfs, "one", CommitPolicy{2, true});
    auto sharded =
        WalDatabase::Open(&vfs, "sharded", WalOptions{{2, true}, 3});
    ASSERT_TRUE(one.ok() && sharded.ok());
    EXPECT_EQ((*sharded)->shard_count(), 3);
    testing::Rng rng(31);
    ASSERT_TRUE((*one)->RegisterExtent("names", NameT()).ok());
    ASSERT_TRUE((*sharded)->RegisterExtent("names", NameT()).ok());
    for (int i = 0; i < 40; ++i) {
      Value v = testing::RandomRecord(rng);
      ASSERT_TRUE((*one)->InsertValue(v).ok());
      ASSERT_TRUE((*sharded)->InsertValue(std::move(v)).ok());
      if (i == 25) {
        ASSERT_TRUE((*one)->Checkpoint().ok());
        ASSERT_TRUE((*sharded)->Checkpoint().ok());
      }
    }
    // Clean close: destructors flush the open batches.
  }
  // Reopen, letting the sharded directory's geometry speak for itself.
  auto one = WalDatabase::Open(&vfs, "one");
  auto sharded = WalDatabase::Open(&vfs, "sharded");
  ASSERT_TRUE(one.ok() && sharded.ok());
  EXPECT_EQ((*sharded)->db().shards(), 3);
  EXPECT_EQ(SortedEntries((*sharded)->db()), SortedEntries((*one)->db()));
  EXPECT_EQ((*sharded)->db().ExtentNames(), (*one)->db().ExtentNames());
  auto se = (*sharded)->db().GetViaExtent(NameT());
  auto oe = (*one)->db().GetViaExtent(NameT());
  ASSERT_TRUE(se.ok() && oe.ok());
  EXPECT_EQ(Sorted(*se), Sorted(*oe));
}

TEST(ShardedWalTest, PowerLossKeepsACommittedPrefixPerShard) {
  FaultVfs vfs(14);
  std::map<Database::EntryId, std::string> committed;
  {
    auto wdb = WalDatabase::Open(&vfs, "db", WalOptions{{1, true}, 4});
    ASSERT_TRUE(wdb.ok());
    testing::Rng rng(7);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE((*wdb)->InsertValue(testing::RandomRecord(rng)).ok());
    }
    committed = IdMap((*wdb)->db());
    // No clean close: simulate the process dying with the OS cache.
    vfs.PowerLoss(FaultVfs::UnsyncedFate::kLost);
  }
  auto wdb = WalDatabase::Open(&vfs, "db");
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  EXPECT_EQ((*wdb)->db().shards(), 4);
  // Every surviving entry is exactly what was committed at its id
  // (sync-every-1 means everything inserted was made durable).
  EXPECT_EQ(IdMap((*wdb)->db()), committed);
}

TEST(ShardedWalTest, OpenRejectsAShardMismatch) {
  FaultVfs vfs(15);
  {
    auto wdb = WalDatabase::Open(&vfs, "db", WalOptions{{1, true}, 3});
    ASSERT_TRUE(wdb.ok());
    ASSERT_TRUE((*wdb)->InsertValue(Value::Int(1)).ok());
    ASSERT_TRUE((*wdb)->Checkpoint().ok());
  }
  auto wrong = WalDatabase::Open(&vfs, "db", WalOptions{{1, true}, 2});
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
  auto fresh_as_one = WalDatabase::Open(&vfs, "db", CommitPolicy{1, true});
  ASSERT_TRUE(fresh_as_one.ok());  // policy-only overload auto-adopts
  EXPECT_EQ((*fresh_as_one)->db().shards(), 3);
}

TEST(ShardedWalTest, GeometrySurvivesACrashBeforeTheFirstCheckpoint) {
  FaultVfs vfs(16);
  {
    auto wdb = WalDatabase::Open(&vfs, "db", WalOptions{{1, true}, 3});
    ASSERT_TRUE(wdb.ok());
    for (int i = 0; i < 9; ++i) {
      ASSERT_TRUE((*wdb)->InsertValue(Value::Int(i)).ok());
    }
    vfs.PowerLoss(FaultVfs::UnsyncedFate::kLost);
  }
  // No checkpoint was ever taken: the wal.<s>.log segments alone must
  // tell the reopen (with no explicit shard count) the geometry.
  auto wdb = WalDatabase::Open(&vfs, "db");
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  EXPECT_EQ((*wdb)->db().shards(), 3);
  EXPECT_EQ((*wdb)->db().size(), 9u);
}

TEST(ShardedReplicaTest, FollowerConvergesAndPreservesIds) {
  FaultVfs vfs(17);
  auto primary = WalDatabase::Open(&vfs, "p", WalOptions{{2, true}, 3});
  ASSERT_TRUE(primary.ok());
  Replica follower;
  ASSERT_TRUE(follower.Attach((*primary)->shipper()).ok());
  EXPECT_EQ(follower.db().shards(), 3);  // adopted the primary's geometry

  testing::Rng rng(41);
  ASSERT_TRUE((*primary)->RegisterExtent("names", NameT()).ok());
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          (*primary)->InsertValue(testing::RandomRecord(rng)).ok());
    }
    if (round == 2) {
      ASSERT_TRUE((*primary)->Checkpoint().ok());
    }
    ASSERT_TRUE(follower.Poll().ok());
  }
  ASSERT_TRUE((*primary)->Commit().ok());
  ASSERT_TRUE(follower.Poll().ok());

  EXPECT_EQ(follower.Epoch(), (*primary)->db().epoch());
  EXPECT_EQ(IdMap(follower.db()), IdMap((*primary)->db()));
  EXPECT_EQ(follower.db().ExtentNames(), (*primary)->db().ExtentNames());
  auto fe = follower.db().GetViaExtent(NameT());
  auto pe = (*primary)->db().GetViaExtent(NameT());
  ASSERT_TRUE(fe.ok() && pe.ok());
  EXPECT_EQ(Sorted(*fe), Sorted(*pe));
}

TEST(ShardedReplicaTest, PromotionKeepsTheShardedGeometry) {
  FaultVfs vfs(18);
  auto primary = WalDatabase::Open(&vfs, "p", WalOptions{{1, true}, 2});
  ASSERT_TRUE(primary.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*primary)->InsertValue(Value::Int(i)).ok());
  }
  Replica follower;
  ASSERT_TRUE(follower.Attach((*primary)->shipper()).ok());
  const auto replicated = IdMap(follower.db());
  ASSERT_EQ(replicated.size(), 10u);

  auto promoted = follower.PromoteToPrimary(&vfs, "q");
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_EQ((*promoted)->db().shards(), 2);
  EXPECT_EQ(IdMap((*promoted)->db()), replicated);
  ASSERT_TRUE((*promoted)->InsertValue(Value::Int(99)).ok());
}

// ---------------------------------------------------------------------
// Concurrency (the tsan build runs these under -L tsan)
// ---------------------------------------------------------------------

TEST(ShardedConcurrencyTest, ParallelWritersKeepSnapshotsConsistent) {
  Database db(DatabaseOptions{4});
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 400;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&db, w] {
      testing::Rng rng(100 + static_cast<uint64_t>(w));
      for (int i = 0; i < kPerWriter; ++i) {
        db.MustInsertValue(testing::RandomRecord(rng));
      }
    });
  }
  // A racing reader: every snapshot enumerates exactly its own size,
  // and sizes only grow.
  std::thread reader([&db] {
    size_t last = 0;
    while (last < static_cast<size_t>(kWriters) * kPerWriter) {
      const Database::Snapshot snap = db.GetSnapshot();
      size_t n = 0;
      snap.ForEachEntry([&](Database::EntryId, const Dynamic&) { ++n; });
      ASSERT_EQ(n, snap.size());
      ASSERT_GE(n, last);
      last = n;
    }
  });
  for (std::thread& t : writers) t.join();
  reader.join();
  EXPECT_EQ(db.size(), static_cast<size_t>(kWriters) * kPerWriter);
}

TEST(ShardedConcurrencyTest, RegistrationIsAtomicAcrossShards) {
  Database db(DatabaseOptions{4});
  // The writers must be bounded, not run-until-stopped: the checker
  // below walks the full extent on every snapshot, so each O(n) walk
  // buys an unbounded insert stream time to grow n — compounding over
  // 200 iterations until the walker can never catch up on a loaded
  // single-core TSan host. 2000 inserts per writer is still far more
  // churn than the registration takes to race against.
  constexpr int kPerWriter = 2000;
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&db, w] {
      testing::Rng rng(300 + static_cast<uint64_t>(w));
      for (int i = 0; i < kPerWriter; ++i) {
        db.MustInsertValue(testing::RandomRecord(rng));
      }
    });
  }
  // Register mid-stream; in every snapshot where the extent is visible
  // its membership must agree with a from-scratch index walk of the
  // same snapshot — i.e. registration is atomic across all shards.
  std::thread registrar([&db] {
    ASSERT_TRUE(db.RegisterExtent("names", NameT()).ok());
  });
  for (int i = 0; i < 200; ++i) {
    const Database::Snapshot snap = db.GetSnapshot();
    auto via_extent = snap.GetViaExtent(NameT());
    if (!via_extent.ok()) continue;  // not registered yet in this snap
    EXPECT_EQ(Sorted(*via_extent), Sorted(snap.GetViaIndex(NameT())));
  }
  registrar.join();
  for (std::thread& t : writers) t.join();
  const Database::Snapshot snap = db.GetSnapshot();
  auto via_extent = snap.GetViaExtent(NameT());
  ASSERT_TRUE(via_extent.ok());
  EXPECT_EQ(Sorted(*via_extent), Sorted(snap.GetViaIndex(NameT())));
}

/// A per-test directory on the real filesystem: the sharded WAL writes
/// its lanes concurrently from several threads, which the
/// (deliberately) single-threaded FaultVfs cannot host — the stateless
/// PosixVfs can.
std::string FreshDir(const std::string& name, int shards) {
  std::string dir = ::testing::TempDir() + "/dbpl_sharded_" + name + "_" +
                    std::to_string(::getpid());
  std::remove((dir + "/wal.log").c_str());
  for (int s = 0; s < shards; ++s) {
    std::remove((dir + "/wal." + std::to_string(s) + ".log").c_str());
  }
  std::remove((dir + "/checkpoint.dbpl").c_str());
  return dir;
}

TEST(ShardedConcurrencyTest, GroupCommitRecoversEveryParallelWrite) {
  storage::Vfs* vfs = storage::Vfs::Default();
  const std::string dir = FreshDir("groupcommit", 4);
  std::map<Database::EntryId, std::string> written;
  {
    auto wdb = WalDatabase::Open(vfs, dir, WalOptions{{4, true}, 4});
    ASSERT_TRUE(wdb.ok()) << wdb.status();
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 50;
    std::vector<std::thread> threads;
    threads.reserve(kWriters);
    for (int t = 0; t < kWriters; ++t) {
      threads.emplace_back([&wdb, t] {
        testing::Rng rng(500 + static_cast<uint64_t>(t));
        for (int i = 0; i < kPerWriter; ++i) {
          ASSERT_TRUE(
              (*wdb)->InsertValue(testing::RandomRecord(rng)).ok());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_TRUE((*wdb)->Commit().ok());
    EXPECT_TRUE((*wdb)->wal_status().ok());
    written = IdMap((*wdb)->db());
    ASSERT_EQ(written.size(),
              static_cast<size_t>(kWriters) * kPerWriter);
    // No clean close beyond this scope: recovery below must rebuild
    // everything from the four lane segments alone.
  }
  auto wdb = WalDatabase::Open(vfs, dir);
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  EXPECT_EQ((*wdb)->db().shards(), 4);
  EXPECT_EQ(IdMap((*wdb)->db()), written);
}

TEST(ShardedConcurrencyTest, CheckpointsRotateUnderParallelWriters) {
  storage::Vfs* vfs = storage::Vfs::Default();
  const std::string dir = FreshDir("ckptrotate", 3);
  std::map<Database::EntryId, std::string> written;
  {
    auto wdb = WalDatabase::Open(vfs, dir, WalOptions{{1, true}, 3});
    ASSERT_TRUE(wdb.ok()) << wdb.status();
    constexpr int kWriters = 3;
    constexpr int kPerWriter = 40;
    std::vector<std::thread> threads;
    threads.reserve(kWriters);
    for (int t = 0; t < kWriters; ++t) {
      threads.emplace_back([&wdb, t] {
        testing::Rng rng(700 + static_cast<uint64_t>(t));
        for (int i = 0; i < kPerWriter; ++i) {
          ASSERT_TRUE(
              (*wdb)->InsertValue(testing::RandomRecord(rng)).ok());
        }
      });
    }
    // Rotate all three lanes repeatedly under live traffic.
    for (int c = 0; c < 4; ++c) {
      ASSERT_TRUE((*wdb)->Checkpoint().ok());
    }
    for (std::thread& t : threads) t.join();
    ASSERT_TRUE((*wdb)->Commit().ok());
    written = IdMap((*wdb)->db());
    ASSERT_EQ(written.size(),
              static_cast<size_t>(kWriters) * kPerWriter);
  }
  auto wdb = WalDatabase::Open(vfs, dir);
  ASSERT_TRUE(wdb.ok()) << wdb.status();
  EXPECT_EQ(IdMap((*wdb)->db()), written);
}

}  // namespace
}  // namespace dbpl::dyndb
