// Crash-matrix recovery harness over the fault-injecting VFS.
//
// For every store flavour, a scripted workload runs with a crash
// injected at every mutating I/O operation k = 1..N, followed by a
// simulated power loss under each unsynced-data fate (lost, torn
// prefix, survives). The store is then reopened and its recovered
// state must equal the last committed prefix of the workload —
// atomicity — and every corruption case must surface as a clean
// `Status`, never UB. All randomness is seeded, so failures reproduce.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dyndb/database.h"
#include "dyndb/dynamic.h"
#include "persist/database_io.h"
#include "persist/intrinsic_store.h"
#include "persist/replica.h"
#include "persist/wal_database.h"
#include "persist/replicating_store.h"
#include "persist/schema_compat.h"
#include "persist/snapshot_store.h"
#include "serve/remote_shipper.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "storage/fault_vfs.h"
#include "storage/kv_store.h"
#include "test_util.h"
#include "storage/paged_store.h"
#include "storage/pager.h"
#include "types/parse.h"
#include "types/subtype.h"

namespace dbpl {
namespace {

using core::Oid;
using core::Value;
using persist::IntrinsicStore;
using persist::ReplicatingStore;
using persist::SnapshotStore;
using storage::FaultVfs;
using storage::KvStore;
using storage::LogRecordType;
using storage::PagedStore;
using storage::Pager;
using storage::WriteBatch;

using Fate = FaultVfs::UnsyncedFate;

constexpr Fate kAllFates[] = {Fate::kLost, Fate::kTornPrefix,
                              Fate::kSurvives};

const char* FateName(Fate f) {
  switch (f) {
    case Fate::kLost:
      return "lost";
    case Fate::kTornPrefix:
      return "torn-prefix";
    case Fate::kSurvives:
      return "survives";
  }
  return "?";
}

// ---------------------------------------------------------------------
// KvStore: atomic batch commits over the write-ahead log.
// ---------------------------------------------------------------------

using KvState = std::map<std::string, std::string>;

KvState Dump(const KvStore& store) {
  KvState out;
  for (const std::string& key : store.Keys()) {
    out[key] = *store.Get(key);
  }
  return out;
}

/// The scripted workload: `batches[i]` applied to `models[i]` gives
/// `models[i + 1]`; `models[0]` is the empty store.
struct KvWorkload {
  std::vector<WriteBatch> batches;
  std::vector<KvState> models;
};

KvWorkload MakeKvWorkload() {
  KvWorkload w;
  w.models.push_back({});
  auto add = [&w](const std::vector<std::pair<std::string, std::string>>& puts,
                  const std::vector<std::string>& deletes) {
    WriteBatch batch;
    KvState model = w.models.back();
    for (const auto& [k, v] : puts) {
      batch.Put(k, v);
      model[k] = v;
    }
    for (const std::string& k : deletes) {
      batch.Delete(k);
      model.erase(k);
    }
    w.batches.push_back(std::move(batch));
    w.models.push_back(std::move(model));
  };
  add({{"alpha", "1"}, {"beta", "2"}}, {});
  add({{"gamma", "3"}}, {"alpha"});
  add({{"beta", "20"}, {"delta", std::string(600, 'd')}, {"eps", "5"}}, {});
  add({{"zeta", "6"}}, {"beta", "eps"});
  add({{"alpha", "back"}, {"eta", std::string(100, 'e')}}, {"gamma"});
  return w;
}

TEST(CrashMatrixTest, KvStoreRecoversCommittedPrefixAtEveryCrashPoint) {
  const std::string path = "crash/kv.log";
  KvWorkload w = MakeKvWorkload();
  const size_t n_batches = w.batches.size();

  // Fault-free pass to learn the total number of mutating ops.
  uint64_t total_ops = 0;
  {
    FaultVfs vfs(0x5EED);
    auto store = KvStore::Open(&vfs, path);
    ASSERT_TRUE(store.ok()) << store.status();
    for (const WriteBatch& b : w.batches) {
      ASSERT_TRUE((*store)->Apply(b).ok());
    }
    total_ops = vfs.mutating_ops();
    EXPECT_EQ(Dump(**store), w.models[n_batches]);
  }
  ASSERT_GT(total_ops, n_batches);  // appends + one sync per batch

  for (uint64_t k = 1; k <= total_ops; ++k) {
    for (Fate fate : kAllFates) {
      SCOPED_TRACE("crash at op " + std::to_string(k) + ", unsynced data " +
                   FateName(fate));
      FaultVfs vfs(0xC0FFEE + k * 2654435761ULL +
                   static_cast<uint64_t>(fate));
      vfs.CrashAtMutatingOp(k);
      size_t committed = 0;
      bool injected = false;
      {
        auto store = KvStore::Open(&vfs, path);
        if (!store.ok()) {
          injected = true;
        } else {
          for (const WriteBatch& b : w.batches) {
            if (!(*store)->Apply(b).ok()) {
              injected = true;
              break;
            }
            ++committed;
          }
        }
      }
      ASSERT_TRUE(injected);  // k <= total_ops, so the crash always fires
      ASSERT_TRUE(vfs.crashed());
      ASSERT_LT(committed, n_batches);

      vfs.PowerLoss(fate);
      auto reopened = KvStore::Open(&vfs, path);
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      KvState got = Dump(**reopened);
      if (fate == Fate::kLost) {
        // Everything unsynced vanished: exactly the committed prefix.
        EXPECT_EQ(got, w.models[committed]);
      } else {
        // The in-flight batch may have fully reached the log (commit
        // marker included) before the plug was pulled; anything less
        // fails its CRC and is dropped. Never a half-applied batch.
        EXPECT_TRUE(got == w.models[committed] ||
                    got == w.models[committed + 1])
            << "recovered state is not a committed prefix";
      }

      // The recovered store must be fully usable.
      WriteBatch after;
      after.Put("post-recovery", "ok");
      ASSERT_TRUE((*reopened)->Apply(after).ok());
      EXPECT_EQ(*(*reopened)->Get("post-recovery"), "ok");
    }
  }
}

TEST(CrashMatrixTest, KvStoreSurvivesLyingFsync) {
  // With fsync dropped (reported OK, nothing made durable), committed
  // batches can vanish at power loss — but recovery must still land on
  // *some* committed prefix, never a torn state.
  const std::string path = "crash/kv_liar.log";
  KvWorkload w = MakeKvWorkload();
  for (Fate fate : kAllFates) {
    SCOPED_TRACE(FateName(fate));
    FaultVfs vfs(0xD0D0 + static_cast<uint64_t>(fate));
    vfs.set_drop_syncs(true);
    {
      auto store = KvStore::Open(&vfs, path);
      ASSERT_TRUE(store.ok());
      for (const WriteBatch& b : w.batches) {
        ASSERT_TRUE((*store)->Apply(b).ok());  // the fsyncs lie
      }
    }
    vfs.PowerLoss(fate);
    vfs.set_drop_syncs(false);
    auto reopened = KvStore::Open(&vfs, path);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    KvState got = Dump(**reopened);
    bool is_prefix = false;
    for (const KvState& model : w.models) {
      if (got == model) {
        is_prefix = true;
        break;
      }
    }
    EXPECT_TRUE(is_prefix) << "recovered state is not a committed prefix";
  }
}

// ---------------------------------------------------------------------
// Pager: torn page writes and bit flips are detected, not decoded.
// ---------------------------------------------------------------------

TEST(CrashMatrixTest, PagerTornPageWriteIsDetectedOrAtomic) {
  const std::string path = "crash/pages.db";
  const std::vector<uint8_t> old_payload(40, 0xAA);
  const std::vector<uint8_t> new_payload(40, 0xBB);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultVfs vfs(seed);
    {
      auto pager = Pager::Open(&vfs, path, 64);
      ASSERT_TRUE(pager.ok());
      for (int i = 0; i < 4; ++i) {
        auto id = (*pager)->Allocate();
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE((*pager)->Write(*id, old_payload).ok());
      }
      ASSERT_TRUE((*pager)->Sync().ok());
      // Crash inside the very next page write: it tears.
      vfs.CrashAtMutatingOp(1);
      EXPECT_FALSE((*pager)->Write(2, new_payload).ok());
    }
    vfs.PowerLoss(Fate::kTornPrefix);
    auto pager = Pager::Open(&vfs, path, 64);
    ASSERT_TRUE(pager.ok()) << pager.status();
    for (storage::PageId id = 0; id < 4; ++id) {
      auto read = (*pager)->Read(id);
      if (id != 2) {
        ASSERT_TRUE(read.ok()) << read.status();
        EXPECT_EQ(*read, old_payload);
        continue;
      }
      // The torn page either kept its old image, got the new one in
      // full, or fails its checksum — never a silently mixed payload.
      if (read.ok()) {
        EXPECT_TRUE(*read == old_payload || *read == new_payload);
      } else {
        EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

TEST(CrashMatrixTest, PagerBitFlipSurfacesAsCorruption) {
  const std::string path = "crash/pages_flip.db";
  FaultVfs vfs(0xF11B);
  {
    auto pager = Pager::Open(&vfs, path, 64);
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE((*pager)->Write(*id, std::vector<uint8_t>(30, 0x5A)).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  // Flip every bit of the page in turn; each flip must surface as a
  // checksum error (header bytes may also report a length error).
  for (uint64_t bit = 0; bit < 64 * 8; ++bit) {
    ASSERT_TRUE(vfs.FlipBit(path, bit).ok());
    auto pager = Pager::Open(&vfs, path, 64);
    ASSERT_TRUE(pager.ok());
    auto read = (*pager)->Read(0);
    if (bit < 30 * 8 + 64) {  // flips inside crc, length, or payload
      ASSERT_FALSE(read.ok()) << "bit " << bit;
      EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
    }
    // Flips in the zero padding beyond the payload are don't-cares.
    ASSERT_TRUE(vfs.FlipBit(path, bit).ok());  // restore
  }
}

// ---------------------------------------------------------------------
// PagedStore: the no-WAL ablation. No cross-page atomicity is promised,
// but recovery must be *clean*: every surviving record is one the
// workload actually wrote, and torn pages surface as Corruption.
// ---------------------------------------------------------------------

TEST(CrashMatrixTest, PagedStoreCrashIsDetectedOrCleanlyReadable) {
  const std::string path = "crash/paged.db";
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3"};
  // Every value each key ever held, plus "absent".
  std::map<std::string, std::set<std::string>> history;

  auto run_round = [&keys](PagedStore* store, int round) -> Status {
    for (size_t i = 0; i < keys.size(); ++i) {
      std::string value = "v" + std::to_string(round) + "-" +
                          std::string(20 + 10 * i, 'x');
      DBPL_RETURN_IF_ERROR(store->Put(keys[i], value));
    }
    return store->Flush();
  };
  for (size_t i = 0; i < keys.size(); ++i) {
    for (int round = 0; round < 3; ++round) {
      history[keys[i]].insert("v" + std::to_string(round) + "-" +
                              std::string(20 + 10 * i, 'x'));
    }
  }

  uint64_t total_ops = 0;
  {
    FaultVfs vfs(0xAB1E);
    auto store = PagedStore::Open(&vfs, path, 128);
    ASSERT_TRUE(store.ok());
    for (int round = 0; round < 3; ++round) {
      ASSERT_TRUE(run_round(store->get(), round).ok());
    }
    total_ops = vfs.mutating_ops();
  }

  for (uint64_t k = 1; k <= total_ops; ++k) {
    for (Fate fate : kAllFates) {
      SCOPED_TRACE("crash at op " + std::to_string(k) + ", unsynced data " +
                   FateName(fate));
      FaultVfs vfs(0xBEAD + k * 0x9E3779B9ULL + static_cast<uint64_t>(fate));
      vfs.CrashAtMutatingOp(k);
      {
        auto store = PagedStore::Open(&vfs, path, 128);
        if (store.ok()) {
          for (int round = 0; round < 3; ++round) {
            if (!run_round(store->get(), round).ok()) break;
          }
        }
      }
      vfs.PowerLoss(fate);
      auto reopened = PagedStore::Open(&vfs, path, 128);
      if (!reopened.ok()) {
        // A torn page tripped a checksum during directory load: the
        // ablation's documented failure mode, surfaced cleanly.
        EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
        continue;
      }
      for (const std::string& key : (*reopened)->Keys()) {
        auto value = (*reopened)->Get(key);
        if (!value.ok()) {
          EXPECT_EQ(value.status().code(), StatusCode::kCorruption);
          continue;
        }
        ASSERT_TRUE(history.contains(key)) << key;
        EXPECT_TRUE(history[key].contains(*value))
            << "recovered a value never written for " << key;
      }
    }
  }
}

// ---------------------------------------------------------------------
// SnapshotStore: whole-image saves behind an atomic rename.
// ---------------------------------------------------------------------

struct SnapshotModel {
  std::map<std::string, std::string> objects;  // oid string -> value string
  std::map<std::string, Oid> roots;

  bool operator==(const SnapshotModel& other) const = default;
};

SnapshotModel DumpImage(const SnapshotStore::Image& image) {
  SnapshotModel out;
  for (Oid oid : image.heap.Oids()) {
    out.objects[std::to_string(oid)] = (*image.heap.Get(oid)).ToString();
  }
  out.roots = image.roots;
  return out;
}

TEST(CrashMatrixTest, SnapshotStoreLoadsLastSavedImageAtEveryCrashPoint) {
  const std::string path = "crash/image.dbpl";
  // Three generations of an image, each a different heap + roots.
  auto make_generation = [](int gen) {
    auto heap = std::make_unique<core::Heap>();
    std::map<std::string, Oid> roots;
    for (int i = 0; i <= gen; ++i) {
      Oid oid = heap->Allocate(Value::RecordOf(
          {{"gen", Value::Int(gen)},
           {"name", Value::String("obj" + std::to_string(i))}}));
      roots["root" + std::to_string(i)] = oid;
    }
    return std::make_pair(std::move(heap), std::move(roots));
  };
  std::vector<SnapshotModel> models;

  uint64_t total_ops = 0;
  {
    FaultVfs vfs(0x51AF);
    for (int gen = 0; gen < 3; ++gen) {
      auto [heap, roots] = make_generation(gen);
      ASSERT_TRUE(SnapshotStore::Save(&vfs, path, *heap, roots).ok());
      auto image = SnapshotStore::Load(&vfs, path);
      ASSERT_TRUE(image.ok());
      models.push_back(DumpImage(*image));
    }
    total_ops = vfs.mutating_ops();
  }

  for (uint64_t k = 1; k <= total_ops; ++k) {
    for (Fate fate : kAllFates) {
      SCOPED_TRACE("crash at op " + std::to_string(k) + ", unsynced data " +
                   FateName(fate));
      FaultVfs vfs(0x10AD + k * 0x2545F491ULL + static_cast<uint64_t>(fate));
      vfs.CrashAtMutatingOp(k);
      size_t saved = 0;
      for (int gen = 0; gen < 3; ++gen) {
        auto [heap, roots] = make_generation(gen);
        if (!SnapshotStore::Save(&vfs, path, *heap, roots).ok()) break;
        ++saved;
      }
      ASSERT_TRUE(vfs.crashed());
      ASSERT_LT(saved, 3u);
      vfs.PowerLoss(fate);
      auto image = SnapshotStore::Load(&vfs, path);
      if (saved == 0) {
        // No save completed its rename: there is no image, and a torn
        // temp file must never be mistaken for one.
        EXPECT_EQ(image.status().code(), StatusCode::kNotFound);
      } else {
        // The tmp file is synced before the rename, so the image the
        // name points at is always complete — all-or-nothing.
        ASSERT_TRUE(image.ok()) << image.status();
        EXPECT_EQ(DumpImage(*image), models[saved - 1]);
      }
    }
  }
}

// ---------------------------------------------------------------------
// ReplicatingStore: extern/intern handles behind atomic renames.
// ---------------------------------------------------------------------

TEST(CrashMatrixTest, ReplicatingStoreInternSeesOldOrNewGraph) {
  const std::string dir = "crash/rep";
  dyndb::Dynamic v1{Value::Int(41), types::Type::Int()};
  dyndb::Dynamic v2{Value::RecordOf({{"x", Value::Int(42)}}),
                    *types::ParseType("{x: Int}")};

  uint64_t total_ops = 0;
  {
    FaultVfs vfs(0x4E7);
    auto store = ReplicatingStore::Open(&vfs, dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Extern("h", v1).ok());
    ASSERT_TRUE((*store)->Extern("h", v2).ok());
    total_ops = vfs.mutating_ops();
  }

  for (uint64_t k = 1; k <= total_ops; ++k) {
    for (Fate fate : kAllFates) {
      SCOPED_TRACE("crash at op " + std::to_string(k) + ", unsynced data " +
                   FateName(fate));
      FaultVfs vfs(0xE117 + k * 0x100000001B3ULL +
                   static_cast<uint64_t>(fate));
      vfs.CrashAtMutatingOp(k);
      size_t externed = 0;
      {
        auto store = ReplicatingStore::Open(&vfs, dir);
        if (store.ok()) {
          if ((*store)->Extern("h", v1).ok()) ++externed;
          if (externed == 1 && (*store)->Extern("h", v2).ok()) ++externed;
        }
      }
      vfs.PowerLoss(fate);
      auto store = ReplicatingStore::Open(&vfs, dir);
      ASSERT_TRUE(store.ok()) << store.status();
      auto interned = (*store)->Intern("h");
      if (externed == 0) {
        EXPECT_EQ(interned.status().code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(interned.ok()) << interned.status();
        const Value& expect = externed == 1 ? v1.value : v2.value;
        EXPECT_EQ(interned->value, expect);
      }
    }
  }
}

// ---------------------------------------------------------------------
// IntrinsicStore: commits of heap deltas through the KV log.
// ---------------------------------------------------------------------

struct IntrinsicModel {
  std::map<std::string, std::string> objects;  // oid -> value string
  std::map<std::string, Oid> roots;
  std::map<std::string, std::string> root_types;  // name -> type string

  bool operator==(const IntrinsicModel&) const = default;
};

IntrinsicModel DumpIntrinsic(const IntrinsicStore& store) {
  IntrinsicModel out;
  for (Oid oid : store.heap().Oids()) {
    out.objects[std::to_string(oid)] = (*store.heap().Get(oid)).ToString();
  }
  for (const std::string& name : store.RootNames()) {
    out.roots[name] = *store.GetRoot(name);
    out.root_types[name] = (*store.RootType(name)).ToString();
  }
  return out;
}

/// Applies commit step `step` (0-based) to the store. Returns the
/// commit's status; earlier heap mutations are infallible.
Status RunIntrinsicStep(IntrinsicStore* store, int step) {
  core::Heap& heap = store->heap();
  switch (step) {
    case 0: {
      Oid emp = heap.Allocate(Value::RecordOf(
          {{"Name", Value::String("Ada")}, {"Age", Value::Int(36)}}));
      DBPL_RETURN_IF_ERROR(store->SetRootTyped(
          "emp", emp, *types::ParseType("{Name: String, Age: Int}")));
      break;
    }
    case 1: {
      Oid emp = *store->GetRoot("emp");
      DBPL_RETURN_IF_ERROR(heap.Put(
          emp, Value::RecordOf({{"Name", Value::String("Grace")},
                                {"Age", Value::Int(37)}})));
      Oid note = heap.Allocate(Value::String("promoted"));
      DBPL_RETURN_IF_ERROR(store->SetRoot("note", note));
      break;
    }
    case 2: {
      DBPL_RETURN_IF_ERROR(store->RemoveRoot("note"));
      store->CollectGarbage();
      break;
    }
    default:
      return Status::Internal("no such step");
  }
  return store->Commit();
}

TEST(CrashMatrixTest, IntrinsicStoreRecoversCommittedPrefixAtEveryCrashPoint) {
  const std::string path = "crash/intr.log";
  constexpr int kSteps = 3;
  std::vector<IntrinsicModel> models;  // models[i] = state after i commits

  uint64_t total_ops = 0;
  {
    FaultVfs vfs(0x1A7E);
    auto store = IntrinsicStore::Open(&vfs, path);
    ASSERT_TRUE(store.ok());
    models.push_back(DumpIntrinsic(**store));
    for (int step = 0; step < kSteps; ++step) {
      ASSERT_TRUE(RunIntrinsicStep(store->get(), step).ok());
      models.push_back(DumpIntrinsic(**store));
    }
    total_ops = vfs.mutating_ops();
  }

  for (uint64_t k = 1; k <= total_ops; ++k) {
    for (Fate fate : kAllFates) {
      SCOPED_TRACE("crash at op " + std::to_string(k) + ", unsynced data " +
                   FateName(fate));
      FaultVfs vfs(0x717E + k * 0xFF51AFD7ULL + static_cast<uint64_t>(fate));
      vfs.CrashAtMutatingOp(k);
      size_t committed = 0;
      {
        auto store = IntrinsicStore::Open(&vfs, path);
        if (store.ok()) {
          for (int step = 0; step < kSteps; ++step) {
            if (!RunIntrinsicStep(store->get(), step).ok()) break;
            ++committed;
          }
        }
      }
      ASSERT_TRUE(vfs.crashed());
      ASSERT_LT(committed, static_cast<size_t>(kSteps));
      vfs.PowerLoss(fate);
      auto reopened = IntrinsicStore::Open(&vfs, path);
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      IntrinsicModel got = DumpIntrinsic(**reopened);
      if (fate == Fate::kLost) {
        EXPECT_TRUE(got == models[committed]);
      } else {
        EXPECT_TRUE(got == models[committed] || got == models[committed + 1])
            << "recovered state is not a committed prefix";
      }
      EXPECT_FALSE((*reopened)->HasUncommittedChanges());
    }
  }
}

// ---------------------------------------------------------------------
// Database snapshot saves racing live inserts. The save thread persists
// whatever snapshot it acquires while a writer keeps inserting; a crash
// is injected into the save's I/O. Recovery must land on NotFound (no
// complete image ever reached its rename) or on *some* consistent
// snapshot: an insertion-order prefix with untorn, correctly-typed
// entries — never a mix of two saves and never a torn entry.
// ---------------------------------------------------------------------

TEST(CrashMatrixTest, ConcurrentSnapshotSaveRacingInsertsRecovers) {
  const std::string path = "crash/dyndb.img";
  constexpr int kInserts = 192;

  dyndb::Database db;
  std::thread writer([&db] {
    for (int i = 0; i < kInserts; ++i) {
      db.MustInsertValue(Value::RecordOf(
          {{"seq", Value::Int(i)}, {"tag", Value::String("r")}}));
    }
  });

  // One VFS across all crash points: each completed save supersedes the
  // previous image via the atomic rename, exactly like a long-lived
  // checkpoint file.
  FaultVfs vfs(0xDB5E);
  for (uint64_t k = 1; k <= 24; ++k) {
    Fate fate = kAllFates[k % 3];
    SCOPED_TRACE("crash at op +" + std::to_string(k) + ", unsynced data " +
                 FateName(fate));
    vfs.CrashAtMutatingOp(k);
    // Keep saving fresh snapshots (racing the writer) until the
    // injected crash fires; it always does, since every save mutates.
    while (persist::SaveSnapshot(&vfs, path, db.GetSnapshot()).ok()) {
    }
    ASSERT_TRUE(vfs.crashed());
    vfs.PowerLoss(fate);

    auto loaded = persist::LoadDatabase(&vfs, path);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
          << loaded.status();
      continue;
    }
    // A recovered image is a consistent snapshot: entry i is the
    // untorn i-th insert, carrying its type (P2), and every Get
    // strategy agrees on it.
    dyndb::Database::Snapshot snap = loaded->GetSnapshot();
    ASSERT_LE(snap.size(), static_cast<size_t>(kInserts));
    for (size_t i = 0; i < snap.size(); ++i) {
      Result<dyndb::Dynamic> d = snap.Get(i);
      ASSERT_TRUE(d.ok());
      EXPECT_EQ(d->value,
                Value::RecordOf({{"seq", Value::Int(static_cast<int64_t>(i))},
                                 {"tag", Value::String("r")}}));
      EXPECT_EQ(d->type, dyndb::MakeDynamic(d->value).type);
    }
    types::Type t = *types::ParseType("{seq: Int}");
    EXPECT_EQ(snap.GetScan(t).size(), snap.size());
    EXPECT_EQ(snap.GetScan(t), snap.GetViaIndex(t));
  }
  writer.join();

  // Fault-free final save of the quiesced database round-trips exactly.
  ASSERT_TRUE(persist::SaveSnapshot(&vfs, path, db.GetSnapshot()).ok());
  auto final_loaded = persist::LoadDatabase(&vfs, path);
  ASSERT_TRUE(final_loaded.ok()) << final_loaded.status();
  EXPECT_EQ(final_loaded->size(), static_cast<size_t>(kInserts));
  EXPECT_EQ(final_loaded->entries(), db.entries());
}

// ---------------------------------------------------------------------
// Schema compatibility across an injected crash (principle P2: type
// descriptors persist with their values).
// ---------------------------------------------------------------------

TEST(CrashMatrixTest, SchemaEvolutionLostInCrashedCommitThenReapplied) {
  const std::string path = "crash/schema.log";
  FaultVfs vfs(0x5C8E);
  types::Type v1 = *types::ParseType("{Name: String}");
  types::Type v2 = *types::ParseType("{Name: String, Age: Int}");
  types::Type view = *types::ParseType("{}");
  types::Type bad = *types::ParseType("{Name: Int}");

  {
    auto store = IntrinsicStore::Open(&vfs, path);
    ASSERT_TRUE(store.ok());
    Oid o = (*store)->heap().Allocate(
        Value::RecordOf({{"Name", Value::String("Ada")}}));
    ASSERT_TRUE((*store)->SetRootTyped("DB", o, v1).ok());
    ASSERT_TRUE((*store)->Commit().ok());

    // Enrich the schema to v2 — but the commit crashes.
    ASSERT_TRUE((*store)->OpenRootChecked("DB", v2).ok());
    EXPECT_EQ(*(*store)->RootType("DB"), v2);  // evolved in memory
    vfs.CrashAtMutatingOp(1);
    EXPECT_FALSE((*store)->Commit().ok());
  }
  vfs.PowerLoss(Fate::kLost);

  {
    // The enrichment never committed: the stored descriptor is still v1.
    auto store = IntrinsicStore::Open(&vfs, path);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ(*(*store)->RootType("DB"), v1);

    // Recompilation rules against the recovered store:
    EXPECT_TRUE((*store)->OpenRootChecked("DB", v1).ok());  // identical
    EXPECT_EQ(*(*store)->RootType("DB"), v1);
    EXPECT_TRUE((*store)->OpenRootChecked("DB", view).ok());  // view
    EXPECT_EQ(*(*store)->RootType("DB"), v1);  // nothing lost
    EXPECT_EQ((*store)->OpenRootChecked("DB", bad).status().code(),
              StatusCode::kInconsistent);  // rejection

    // Enrichment, this time committed for real.
    ASSERT_TRUE((*store)->OpenRootChecked("DB", v2).ok());
    ASSERT_TRUE((*store)->Commit().ok());
  }
  vfs.PowerLoss(Fate::kLost);  // nothing unsynced should remain

  {
    auto store = IntrinsicStore::Open(&vfs, path);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ(*(*store)->RootType("DB"), v2);  // P2: the type survived
    EXPECT_EQ((*store)->OpenRootChecked("DB", bad).status().code(),
              StatusCode::kInconsistent);
  }
}

// ---------------------------------------------------------------------
// WalDatabase: the write-ahead durability layer. A scripted workload of
// inserts, an extent registration, checkpoints and commits runs with a
// crash injected at every mutating VFS op (so every append, commit
// marker, fsync, checkpoint save and log rotation gets hit); recovery
// must yield exactly a committed prefix of the workload, differentially
// checked against an in-memory oracle.
// ---------------------------------------------------------------------

Value WalVal(size_t i) {
  return Value::RecordOf(
      {{"Seq", Value::Int(static_cast<int64_t>(i))},
       {"Payload", Value::String(std::string(3 + i % 5, 'w'))}});
}

types::Type WalRecT() {
  return *types::ParseType("{Seq: Int, Payload: String}");
}

/// One scripted mutation against a WalDatabase. The oracle mirrors the
/// WAL's durability bookkeeping: `floor` is the number of entries known
/// durable (covered by a synced commit marker or a completed
/// checkpoint), `pending` mirrors the open batch.
struct WalOracle {
  size_t applied_inserts = 0;  // inserts whose step returned OK
  size_t floor = 0;            // entries provably durable
  uint64_t pending = 0;        // mirrors WalDatabase::pending_in_batch
  bool extent_applied = false;

  void OnOkInsert(uint64_t every_n) {
    ++applied_inserts;
    if (++pending >= every_n) {
      floor = applied_inserts;
      pending = 0;
    }
  }
  void OnOkCheckpoint() {
    floor = applied_inserts;
    pending = 0;
  }
};

/// Checks that a recovered database is the untorn prefix of the
/// scripted insert sequence of length `size`, with every Get strategy
/// agreeing wherever the extent exists.
void ExpectWalPrefix(const dyndb::Database& db, size_t size) {
  ASSERT_EQ(db.size(), size);
  for (size_t i = 0; i < size; ++i) {
    Result<dyndb::Dynamic> d = db.Get(i);
    ASSERT_TRUE(d.ok()) << d.status();
    EXPECT_EQ(d->value, WalVal(i));
    // P2: the recovered entry still carries its type description.
    EXPECT_TRUE(types::TypeEquiv(d->type, dyndb::MakeDynamic(d->value).type));
  }
  auto via_extent = db.GetViaExtent(WalRecT());
  if (via_extent.ok()) {
    EXPECT_EQ(*via_extent, db.GetScan(WalRecT()));
    EXPECT_EQ(via_extent->size(), size);
  }
}

/// The scripted workload, parameterized over the commit policy. Steps
/// run in order until one fails (the injected crash). Returns the
/// number of steps that completed. `after_step`, when set, runs after
/// every successful step — the shipping matrix uses it to interleave
/// follower polls with the primary's mutations (FaultVfs is not
/// thread-safe, so the interleaving must be manual and deterministic).
int RunWalWorkload(persist::WalDatabase* wdb, uint64_t every_n,
                   WalOracle* oracle,
                   const std::function<void()>& after_step = {}) {
  int done = 0;
  size_t next = 0;
  auto insert = [&]() -> bool {
    if (!wdb->InsertValue(WalVal(next)).ok()) return false;
    ++next;
    oracle->OnOkInsert(every_n);
    return true;
  };
  // Interleaves inserts with an extent registration, two checkpoints
  // (one mid-batch when every_n > 1) and a final explicit commit, so
  // crash points land in every phase of the protocol.
  for (int step = 0; step < 12; ++step, ++done) {
    switch (step) {
      case 2:
        if (!wdb->RegisterExtent("recs", WalRecT()).ok()) return done;
        oracle->extent_applied = true;
        // The registration is one observed mutation in the batch; if it
        // closes the batch, the marker covers all earlier inserts too.
        if (++oracle->pending >= every_n) {
          oracle->floor = oracle->applied_inserts;
          oracle->pending = 0;
        }
        break;
      case 5:
      case 9:
        if (!wdb->Checkpoint().ok()) return done;
        oracle->OnOkCheckpoint();
        break;
      case 11:
        if (!wdb->Commit().ok()) return done;
        oracle->floor = oracle->applied_inserts;
        oracle->pending = 0;
        break;
      default:
        if (!insert()) return done;
        break;
    }
    if (after_step) after_step();
  }
  return done;
}

class WalCrashMatrixTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Policies, WalCrashMatrixTest,
                         ::testing::Values(1u, 3u),
                         [](const auto& info) {
                           return "every_n_" + std::to_string(info.param);
                         });

TEST_P(WalCrashMatrixTest, RecoversACommittedPrefixAtEveryCrashPoint) {
  const uint64_t every_n = GetParam();
  const persist::CommitPolicy policy{every_n, true};
  const std::string dir = "crash/waldb";

  // Fault-free pass: learn the op count and the final state.
  uint64_t total_ops = 0;
  size_t total_inserts = 0;
  {
    FaultVfs vfs(0x3A1);
    auto wdb = persist::WalDatabase::Open(&vfs, dir, policy);
    ASSERT_TRUE(wdb.ok()) << wdb.status();
    WalOracle oracle;
    ASSERT_EQ(RunWalWorkload(wdb->get(), every_n, &oracle), 12);
    EXPECT_EQ(oracle.floor, oracle.applied_inserts);  // final Commit
    total_inserts = oracle.applied_inserts;
    total_ops = vfs.mutating_ops();
    ExpectWalPrefix((*wdb)->db(), total_inserts);
  }
  ASSERT_GT(total_ops, total_inserts);

  for (uint64_t k = 1; k <= total_ops; ++k) {
    for (Fate fate : kAllFates) {
      SCOPED_TRACE("crash at op " + std::to_string(k) + ", unsynced data " +
                   FateName(fate));
      FaultVfs vfs(0x3AD5 + k * 0x9E3779B97F4A7C15ULL +
                   static_cast<uint64_t>(fate));
      vfs.CrashAtMutatingOp(k);
      WalOracle oracle;
      int done = -1;  // -1: Open itself crashed
      {
        auto wdb = persist::WalDatabase::Open(&vfs, dir, policy);
        if (wdb.ok()) done = RunWalWorkload(wdb->get(), every_n, &oracle);
        // The destructor's best-effort flush runs against the crashed
        // VFS and must fail harmlessly.
      }
      ASSERT_LT(done, 12);  // k <= total_ops: the crash always fires
      ASSERT_TRUE(vfs.crashed());
      // `done` is the index of the step the crash interrupted.
      const bool crash_in_checkpoint = done == 5 || done == 9;

      vfs.PowerLoss(fate);
      auto reopened = persist::WalDatabase::Open(&vfs, dir, policy);
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      const dyndb::Database& db = (*reopened)->db();
      const persist::WalRecoveryStats& stats = (*reopened)->recovery_stats();

      if (fate == Fate::kLost) {
        // All unsynced bytes vanished: recovery lands on *exactly* the
        // oracle's durable floor — except when the crash hit a
        // checkpoint step after its atomic rename, which durably
        // covers every insert applied so far (renames are metadata
        // ops, durable immediately). Because fsync only ever runs on
        // frame-aligned content, the log tail is clean, not corrupt.
        if (crash_in_checkpoint && db.size() == oracle.applied_inserts) {
          ExpectWalPrefix(db, oracle.applied_inserts);
        } else {
          ExpectWalPrefix(db, oracle.floor);
        }
        EXPECT_FALSE(stats.corrupt_tail);
      } else {
        // The in-flight tail may have (partially) reached the log. A
        // torn or uncommitted tail is dropped; a complete one (commit
        // marker included) replays. Either way: an untorn committed
        // prefix no shorter than the floor, never beyond what ran.
        ASSERT_GE(db.size(), oracle.floor);
        ASSERT_LE(db.size(), oracle.applied_inserts + 1);
        ExpectWalPrefix(db, db.size());
      }
      // If the extent registration was applied and is durable, its
      // membership must have been rebuilt to match a full scan — that
      // is checked inside ExpectWalPrefix. Here: a database that kept
      // entries past the registration step must have kept the extent
      // too (they are covered by the same commit markers).
      if (oracle.extent_applied && fate == Fate::kLost &&
          oracle.pending == 0 && oracle.floor == oracle.applied_inserts) {
        // pending == 0 means every observed mutation — including the
        // registration — sits under a synced marker or checkpoint.
        EXPECT_TRUE(db.GetViaExtent(WalRecT()).ok());
      }

      // The recovered database must be fully usable: insert, commit,
      // reopen, and the new entry is there.
      const size_t recovered = db.size();
      ASSERT_TRUE((*reopened)->InsertValue(WalVal(recovered)).ok());
      ASSERT_TRUE((*reopened)->Commit().ok());
      reopened->reset();
      vfs.PowerLoss(Fate::kLost);
      auto again = persist::WalDatabase::Open(&vfs, dir, policy);
      ASSERT_TRUE(again.ok()) << again.status();
      ExpectWalPrefix((*again)->db(), recovered + 1);
    }
  }
}

// Property: recovering from a checkpoint plus the log suffix yields the
// same database as replaying the entire history from an empty log. Two
// WAL databases receive an identical pseudo-random mutation stream; one
// checkpoints repeatedly, the other never. After a clean close and
// reopen, their states must be indistinguishable.
TEST(WalCrashMatrixTest, CheckpointPlusReplayEqualsReplayFromEmpty) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultVfs vfs(seed);
    dbpl::testing::Rng rng(seed * 0xABCD);
    {
      auto ckpt = persist::WalDatabase::Open(&vfs, "a", persist::CommitPolicy{3, true});
      auto replay = persist::WalDatabase::Open(&vfs, "b", persist::CommitPolicy{3, true});
      ASSERT_TRUE(ckpt.ok() && replay.ok());
      int extents = 0;
      for (int i = 0; i < 60; ++i) {
        if (rng.Below(12) == 0 && extents < 3) {
          // Register the same fresh extent on both. (Registering the
          // extents at different points relative to the inserts would
          // be fine too — membership is derived, not logged.)
          std::string name = "e" + std::to_string(extents++);
          types::Type t = *types::ParseType(
              extents == 1 ? "{Name: String}" : extents == 2
                  ? "{Age: Int}" : "{Name: String, Dept: String}");
          ASSERT_TRUE((*ckpt)->RegisterExtent(name, t).ok());
          ASSERT_TRUE((*replay)->RegisterExtent(name, std::move(t)).ok());
        } else {
          Value v = dbpl::testing::RandomRecord(rng);
          ASSERT_TRUE((*ckpt)->InsertValue(v).ok());
          ASSERT_TRUE((*replay)->InsertValue(std::move(v)).ok());
        }
        if (i % 17 == 9) {
          ASSERT_TRUE((*ckpt)->Checkpoint().ok());
        }
      }
      ASSERT_GE((*ckpt)->checkpoints_taken(), 1u);
      // Clean close: destructors flush the open batches.
    }

    auto ckpt = persist::WalDatabase::Open(&vfs, "a", persist::CommitPolicy{3, true});
    auto replay = persist::WalDatabase::Open(&vfs, "b", persist::CommitPolicy{3, true});
    ASSERT_TRUE(ckpt.ok() && replay.ok());
    EXPECT_TRUE((*ckpt)->recovery_stats().had_checkpoint);
    EXPECT_FALSE((*replay)->recovery_stats().had_checkpoint);

    // Same entries in the same order, each with its carried type...
    const dyndb::Database& a = (*ckpt)->db();
    const dyndb::Database& b = (*replay)->db();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.Get(i)->value, b.Get(i)->value);
      EXPECT_TRUE(types::TypeEquiv(a.Get(i)->type, b.Get(i)->type));
    }
    // ...the same extents, with identical derived membership...
    dyndb::Database::Snapshot sa = a.GetSnapshot();
    dyndb::Database::Snapshot sb = b.GetSnapshot();
    ASSERT_EQ(sa.ExtentNames(), sb.ExtentNames());
    for (const auto& [name, type] : sa.Extents()) {
      auto ea = sa.GetViaExtent(type);
      auto eb = sb.GetViaExtent(type);
      ASSERT_TRUE(ea.ok() && eb.ok()) << name;
      EXPECT_EQ(*ea, *eb) << name;
      EXPECT_EQ(*ea, sa.GetScan(type)) << name;
    }
    // ...and the same answers to queries neither side has an extent for.
    types::Type probe = *types::ParseType("{Age: Int}");
    EXPECT_EQ(sa.GetScan(probe), sb.GetScan(probe));
    EXPECT_EQ(sa.GetViaIndex(probe), sb.GetViaIndex(probe));
  }
}

// ---------------------------------------------------------------------
// WAL shipping under crashes: the matrix above re-run with live
// followers attached. The primary dies at every mutating VFS op under
// every unsynced-data fate while an eagerly-polling follower tails it
// (and a lazy one lags at zero); the invariants are
//
//  (1) at every point — before, during and after the crash — each
//      follower holds an untorn committed prefix of the scripted
//      history, at a commit/checkpoint boundary: it never observes an
//      uncommitted, torn, or reordered batch;
//  (2) a follower is always a prefix of whatever the primary recovers
//      to (only *synced* bytes ship, so nothing a follower applied can
//      be taken back by the power loss);
//  (3) after recovery, every follower re-attached to the new
//      incarnation converges to exactly its state, and the pair keeps
//      shipping new writes.
// ---------------------------------------------------------------------

/// Follower ≡ primary, including derived reads and the epoch.
void ExpectConverged(const dyndb::Database& primary,
                     const dyndb::Database& follower) {
  dyndb::Database::Snapshot p = primary.GetSnapshot();
  dyndb::Database::Snapshot f = follower.GetSnapshot();
  ASSERT_EQ(p.size(), f.size());
  EXPECT_EQ(p.epoch(), f.epoch());
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.Get(i)->value, f.Get(i)->value);
  }
  ASSERT_EQ(p.ExtentNames(), f.ExtentNames());
  for (const auto& [name, type] : p.Extents()) {
    auto pe = p.GetViaExtent(type);
    auto fe = f.GetViaExtent(type);
    ASSERT_TRUE(pe.ok() && fe.ok()) << name;
    EXPECT_EQ(*pe, *fe) << name;
  }
}

/// A wire attachment for the crash matrix: a workers=1 dbpl-serve
/// server over the primary plus a RemoteShipper adopted from the other
/// end of a socketpair. Every RPC is synchronous and the single worker
/// serves it while the test thread blocks, so the (thread-compatible,
/// not thread-safe) FaultVfs is only ever touched by one thread at a
/// time; and shipping reads don't count as mutating ops, so the
/// crash-point numbering is identical with or without the tap.
struct WireTap {
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::RemoteShipper> shipper;
};

Result<WireTap> OpenWireTap(persist::WalDatabase* wdb) {
  WireTap tap;
  serve::ServeOptions opts;
  opts.workers = 1;
  DBPL_ASSIGN_OR_RETURN(tap.server, serve::Server::Start(wdb, opts));
  DBPL_ASSIGN_OR_RETURN(auto pair, serve::Socket::Pair());
  DBPL_RETURN_IF_ERROR(tap.server->AdoptConnection(std::move(pair.first)));
  DBPL_ASSIGN_OR_RETURN(tap.shipper,
                        serve::RemoteShipper::Adopt(std::move(pair.second)));
  return tap;
}

TEST_P(WalCrashMatrixTest, FollowersConvergeAtEveryCrashPoint) {
  const uint64_t every_n = GetParam();
  const persist::CommitPolicy policy{every_n, true};
  const std::string dir = "crash/waldb_ship";

  // Fault-free pass: learn the op count (polling is read-only, so the
  // mutating-op numbering matches the faulted passes exactly).
  uint64_t total_ops = 0;
  {
    FaultVfs vfs(0x51B);
    auto wdb = persist::WalDatabase::Open(&vfs, dir, policy);
    ASSERT_TRUE(wdb.ok()) << wdb.status();
    persist::Replica follower;
    ASSERT_TRUE(follower.Attach((*wdb)->shipper()).ok());
    auto tap = OpenWireTap(wdb->get());
    ASSERT_TRUE(tap.ok()) << tap.status();
    persist::Replica wire;
    ASSERT_TRUE(wire.Attach(tap->shipper.get()).ok());
    WalOracle oracle;
    ASSERT_EQ(RunWalWorkload(wdb->get(), every_n, &oracle,
                             [&] {
                               ASSERT_TRUE(follower.Poll().ok());
                               ASSERT_TRUE(wire.Poll().ok());
                             }),
              12);
    total_ops = vfs.mutating_ops();
    ExpectConverged((*wdb)->db(), follower.db());
    ExpectConverged((*wdb)->db(), wire.db());
    tap->server->Stop();
  }

  for (uint64_t k = 1; k <= total_ops; ++k) {
    for (Fate fate : kAllFates) {
      SCOPED_TRACE("crash at op " + std::to_string(k) + ", unsynced data " +
                   FateName(fate));
      FaultVfs vfs(0x5EED + k * 0x9E3779B97F4A7C15ULL +
                   static_cast<uint64_t>(fate));
      vfs.CrashAtMutatingOp(k);
      WalOracle oracle;
      persist::Replica eager;  // polls after every workload step
      persist::Replica lazy;   // never polls until after recovery
      persist::Replica wire;   // eager, but across the socketpair
      size_t eager_floor = 0;  // follower sizes must be monotone
      size_t wire_floor = 0;
      {
        auto wdb = persist::WalDatabase::Open(&vfs, dir, policy);
        if (wdb.ok()) {
          ASSERT_TRUE(eager.Attach((*wdb)->shipper()).ok());
          ASSERT_TRUE(lazy.Attach((*wdb)->shipper()).ok());
          auto tap = OpenWireTap(wdb->get());
          ASSERT_TRUE(tap.ok()) << tap.status();
          ASSERT_TRUE(wire.Attach(tap->shipper.get()).ok());
          RunWalWorkload(wdb->get(), every_n, &oracle, [&] {
            // Invariant (1), live: polls may fail once the VFS has
            // crashed — the followers must simply stop advancing, not
            // regress or tear. The wire follower sees the primary's
            // read errors in-band and must absorb them identically.
            (void)eager.Poll();
            const size_t size = eager.db().size();
            ASSERT_GE(size, eager_floor);
            eager_floor = size;
            ExpectWalPrefix(eager.db(), size);
            ASSERT_LE(size, oracle.applied_inserts + 1);
            (void)wire.Poll();
            const size_t wsize = wire.db().size();
            ASSERT_GE(wsize, wire_floor);
            wire_floor = wsize;
            ExpectWalPrefix(wire.db(), wsize);
            ASSERT_LE(wsize, oracle.applied_inserts + 1);
          });
          // Stop the tap before the primary dies; one more poll, now
          // with a dead transport, must be absorbed cleanly too.
          tap->server->Stop();
          (void)wire.Poll();
          ExpectWalPrefix(wire.db(), wire.db().size());
        }
        ASSERT_TRUE(vfs.crashed());
        // One more poll against the crashed VFS: reads hit stale
        // handles; the follower must absorb that cleanly.
        (void)eager.Poll();
        ExpectWalPrefix(eager.db(), eager.db().size());
      }

      vfs.PowerLoss(fate);
      auto reopened = persist::WalDatabase::Open(&vfs, dir, policy);
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      const dyndb::Database& db = (*reopened)->db();

      // Invariant (2): all followers are prefixes of the recovered
      // state — the fate of unsynced bytes cannot reach them.
      for (persist::Replica* f : {&eager, &lazy, &wire}) {
        ASSERT_LE(f->db().size(), db.size());
        ExpectWalPrefix(f->db(), f->db().size());
        ASSERT_LE(f->Epoch(), db.epoch());
      }

      // Invariant (3): re-attach to the recovered incarnation and
      // converge, then keep shipping fresh writes. The wire follower
      // re-attaches through a fresh tap — the "follower reconnects to
      // the restarted primary" path.
      auto tap2 = OpenWireTap(reopened->get());
      ASSERT_TRUE(tap2.ok()) << tap2.status();
      ASSERT_TRUE(eager.Attach((*reopened)->shipper()).ok());
      ASSERT_TRUE(lazy.Attach((*reopened)->shipper()).ok());
      ASSERT_TRUE(wire.Attach(tap2->shipper.get()).ok());
      ExpectConverged(db, eager.db());
      ExpectConverged(db, lazy.db());
      ExpectConverged(db, wire.db());

      const size_t recovered = db.size();
      ASSERT_TRUE((*reopened)->InsertValue(WalVal(recovered)).ok());
      ASSERT_TRUE((*reopened)->Commit().ok());
      ASSERT_TRUE(eager.Poll().ok());
      ExpectConverged(db, eager.db());
      ASSERT_EQ(eager.db().size(), recovered + 1);
      ASSERT_TRUE(wire.Poll().ok());
      ExpectConverged(db, wire.db());
      ASSERT_EQ(wire.db().size(), recovered + 1);
      tap2->server->Stop();
    }
  }
}

// ---------------------------------------------------------------------
// Sharded WAL crash matrix: the same discipline against a K=3 primary
// (per-shard segments, group commit, sharded checkpoint rotation),
// with an eagerly-polling follower attached throughout. Entry ids are
// shard-encoded, so the invariants are stated over the *set* of
// recovered values (each scripted value exactly once, no torn or alien
// entry) rather than dense id prefixes. The policy is sync-every-1, so
// the oracle is simply the count of inserts that returned OK: recovery
// must land on exactly that set, plus at most the one write the crash
// interrupted (whose record may have durably reached its lane).
// ---------------------------------------------------------------------

/// Follower ≡ primary under shard-encoded ids: same (id, value)
/// pairs, same extents, same epoch. (`ExpectConverged` above walks
/// dense K=1 ids and cannot be used here.)
void ExpectShardedConverged(const dyndb::Database& primary,
                            const dyndb::Database& follower) {
  ASSERT_EQ(primary.size(), follower.size());
  EXPECT_EQ(primary.epoch(), follower.epoch());
  std::map<dyndb::Database::EntryId, Value> entries;
  primary.GetSnapshot().ForEachEntry(
      [&](dyndb::Database::EntryId id, const dyndb::Dynamic& d) {
        entries.emplace(id, d.value);
      });
  follower.GetSnapshot().ForEachEntry(
      [&](dyndb::Database::EntryId id, const dyndb::Dynamic& d) {
        auto it = entries.find(id);
        ASSERT_NE(it, entries.end()) << "follower-only id " << id;
        EXPECT_EQ(it->second, d.value) << "divergent value at id " << id;
      });
  EXPECT_EQ(primary.ExtentNames(), follower.ExtentNames());
}

/// The database holds exactly {WalVal(0) .. WalVal(size-1)}, each
/// once, and extent membership (when registered) matches a full scan.
void ExpectShardedWalSet(const dyndb::Database& db) {
  std::set<int64_t> seen;
  db.GetSnapshot().ForEachEntry(
      [&](dyndb::Database::EntryId, const dyndb::Dynamic& d) {
        const Value* seq = d.value.FindField("Seq");
        ASSERT_NE(seq, nullptr);
        EXPECT_EQ(d.value, WalVal(static_cast<size_t>(seq->AsInt())));
        EXPECT_TRUE(seen.insert(seq->AsInt()).second)
            << "duplicate Seq " << seq->AsInt();
      });
  ASSERT_EQ(seen.size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(seen.count(static_cast<int64_t>(i)), 1u)
        << "recovered set is not the scripted prefix: missing " << i;
  }
  auto via_extent = db.GetViaExtent(WalRecT());
  if (via_extent.ok()) {
    EXPECT_EQ(via_extent->size(),
              db.GetSnapshot().GetScan(WalRecT()).size());
  }
}

TEST(WalCrashMatrixTest, ShardedPrimaryRecoversAtEveryCrashPoint) {
  const persist::WalOptions options{{1, true}, 3};
  const std::string dir = "crash/waldb_sharded";

  // The scripted workload: inserts with a registration and two
  // checkpoints interleaved (so crash points land in lane appends,
  // group syncs, the checkpoint save and every lane's rotation).
  // Returns the number of inserts that returned OK.
  auto run = [](persist::WalDatabase* wdb,
                const std::function<void()>& after_step) -> size_t {
    size_t applied = 0;
    for (int step = 0; step < 12; ++step) {
      switch (step) {
        case 2:
          if (!wdb->RegisterExtent("recs", WalRecT()).ok()) return applied;
          break;
        case 5:
        case 9:
          if (!wdb->Checkpoint().ok()) return applied;
          break;
        default:
          if (!wdb->InsertValue(WalVal(applied)).ok()) return applied;
          ++applied;
          break;
      }
      if (after_step) after_step();
    }
    return applied;
  };

  // Fault-free pass: learn the op count and the insert total.
  uint64_t total_ops = 0;
  size_t total_inserts = 0;
  {
    FaultVfs vfs(0x5A4D);
    auto wdb = persist::WalDatabase::Open(&vfs, dir, options);
    ASSERT_TRUE(wdb.ok()) << wdb.status();
    persist::Replica follower;
    ASSERT_TRUE(follower.Attach((*wdb)->shipper()).ok());
    total_inserts = run(wdb->get(),
                        [&] { ASSERT_TRUE(follower.Poll().ok()); });
    ASSERT_EQ(total_inserts, 9u);
    total_ops = vfs.mutating_ops();
    ExpectShardedWalSet((*wdb)->db());
    ExpectShardedConverged((*wdb)->db(), follower.db());
  }

  for (uint64_t k = 1; k <= total_ops; ++k) {
    for (Fate fate : kAllFates) {
      SCOPED_TRACE("crash at op " + std::to_string(k) + ", unsynced data " +
                   FateName(fate));
      FaultVfs vfs(0xD157 + k * 0x9E3779B97F4A7C15ULL +
                   static_cast<uint64_t>(fate));
      vfs.CrashAtMutatingOp(k);
      persist::Replica eager;
      size_t applied = 0;
      size_t eager_floor = 0;
      {
        auto wdb = persist::WalDatabase::Open(&vfs, dir, options);
        if (wdb.ok()) {
          ASSERT_TRUE(eager.Attach((*wdb)->shipper()).ok());
          applied = run(wdb->get(), [&] {
            // The follower may fail to poll once the VFS has crashed;
            // it must stop advancing, never regress or tear.
            (void)eager.Poll();
            const size_t size = eager.db().size();
            ASSERT_GE(size, eager_floor);
            eager_floor = size;
            ExpectShardedWalSet(eager.db());
          });
        }
        ASSERT_TRUE(vfs.crashed());
        (void)eager.Poll();
        ExpectShardedWalSet(eager.db());
      }

      vfs.PowerLoss(fate);
      auto reopened = persist::WalDatabase::Open(&vfs, dir, options);
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      const dyndb::Database& db = (*reopened)->db();
      ASSERT_EQ(db.shards(), 3);

      // Sync-every-1: everything that returned OK is durable. Under
      // kLost the in-flight write's unsynced bytes vanish; under the
      // surviving fates its record (+ marker) may have reached a lane
      // and then replays — but never anything torn or beyond it.
      if (fate == Fate::kLost) {
        ASSERT_EQ(db.size(), applied);
      } else {
        ASSERT_GE(db.size(), applied);
        ASSERT_LE(db.size(), applied + 1);
      }
      ExpectShardedWalSet(db);

      // The follower is a prefix of the recovered primary and
      // re-converges to it, then keeps shipping fresh writes.
      ASSERT_LE(eager.db().size(), db.size());
      ASSERT_TRUE(eager.Attach((*reopened)->shipper()).ok());
      ExpectShardedConverged(db, eager.db());

      const size_t recovered = db.size();
      ASSERT_TRUE((*reopened)->InsertValue(WalVal(recovered)).ok());
      ASSERT_TRUE((*reopened)->Commit().ok());
      ASSERT_TRUE(eager.Poll().ok());
      ExpectShardedConverged(db, eager.db());
      ASSERT_EQ(eager.db().size(), recovered + 1);
    }
  }
}

}  // namespace
}  // namespace dbpl
