#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "core/order.h"
#include "dyndb/database.h"
#include "persist/database_io.h"
#include "persist/intrinsic_store.h"
#include "persist/replicating_store.h"
#include "persist/schema_compat.h"
#include "persist/snapshot_store.h"
#include "storage/fault_vfs.h"
#include "storage/log.h"
#include "test_util.h"
#include "types/parse.h"

namespace dbpl::persist {
namespace {

using core::Heap;
using core::Oid;
using core::Value;
using dbpl::testing::ScopedFile;
using dbpl::testing::TempPath;
using dyndb::Dynamic;
using dyndb::MakeDynamic;
using storage::Vfs;
using types::ParseType;
using types::Type;

void CorruptByte(const std::string& path, off_t offset) {
  int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  unsigned char b = 0;
  ASSERT_EQ(::pread(fd, &b, 1, offset), 1);
  b ^= 0xFF;
  ASSERT_EQ(::pwrite(fd, &b, 1, offset), 1);
  ::close(fd);
}

Value Person(const char* name) {
  return Value::RecordOf({{"Name", Value::String(name)}});
}

// ---------------------------------------------------------------------
// Schema compatibility (the "Persistent Pascal" recompilation rules).
// ---------------------------------------------------------------------

TEST(SchemaCompatTest, Classification) {
  Type v1 = *ParseType("{Employees: Set[{Name: String}]}");
  Type v1b = *ParseType("{Employees: Set[{Name: String}]}");
  Type v2 = *ParseType(
      "{Employees: Set[{Name: String}], Projects: Set[String]}");
  Type v3 = *ParseType("{Employees: Set[{Name: String, Empno: Int}]}");
  Type bad = *ParseType("{Employees: Int}");

  EXPECT_EQ(ClassifySchema(v1, v1b), SchemaCompat::kIdentical);
  // Stored v2 (subtype) opened at v1: a view.
  EXPECT_EQ(ClassifySchema(v2, v1), SchemaCompat::kView);
  // Stored v1 opened at the richer v2: enrichment.
  EXPECT_EQ(ClassifySchema(v1, v2), SchemaCompat::kEnrichment);
  // Sibling enrichment.
  EXPECT_EQ(ClassifySchema(v2, v3), SchemaCompat::kEnrichment);
  // Contradiction.
  EXPECT_EQ(ClassifySchema(v1, bad), SchemaCompat::kIncompatible);
}

TEST(SchemaCompatTest, EvolveSchemaNeverLosesStructure) {
  Type v1 = *ParseType("{Employees: Set[{Name: String}]}");
  Type v2 = *ParseType("{Employees: Set[{Name: String}], Count: Int}");
  // Opening stored v2 at v1 keeps v2 (the view does not strip fields).
  EXPECT_EQ(*EvolveSchema(v2, v1), v2);
  // Opening stored v1 at v2 enriches to v2.
  EXPECT_EQ(*EvolveSchema(v1, v2), v2);
  // Contradiction fails.
  EXPECT_EQ(EvolveSchema(v1, *ParseType("{Employees: Bool}")).status().code(),
            StatusCode::kInconsistent);
}

// ---------------------------------------------------------------------
// SnapshotStore (all-or-nothing persistence).
// ---------------------------------------------------------------------

TEST(SnapshotStoreTest, SaveAndLoadWholeImage) {
  ScopedFile file(TempPath("snap1"));
  Heap heap;
  Oid alice = heap.Allocate(Person("Alice"));
  Oid bob = heap.Allocate(Person("Bob"));
  Oid all = heap.Allocate(Value::List({Value::Ref(alice), Value::Ref(bob)}));
  ASSERT_TRUE(SnapshotStore::Save(Vfs::Default(), file.path, heap,
                                  {{"everyone", all}})
                  .ok());

  auto image = SnapshotStore::Load(Vfs::Default(), file.path);
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ(image->heap.size(), 3u);
  EXPECT_EQ(image->roots.at("everyone"), all);
  // Oids are preserved exactly (it is a core image).
  EXPECT_EQ(*image->heap.Get(alice), Person("Alice"));
}

TEST(SnapshotStoreTest, OneFlippedBitInvalidatesTheWholeImage) {
  // The paper: "the survival of the database is highly dependent on the
  // integrity of the programming system as a whole".
  ScopedFile file(TempPath("snap2"));
  Heap heap;
  for (int i = 0; i < 10; ++i) {
    heap.Allocate(Person(("P" + std::to_string(i)).c_str()));
  }
  ASSERT_TRUE(SnapshotStore::Save(Vfs::Default(), file.path, heap, {}).ok());
  CorruptByte(file.path, 40);
  auto image = SnapshotStore::Load(Vfs::Default(), file.path);
  EXPECT_FALSE(image.ok());
}

TEST(SnapshotStoreTest, SaveIsAtomic) {
  ScopedFile file(TempPath("snap3"));
  Heap heap1;
  heap1.Allocate(Person("V1"));
  ASSERT_TRUE(SnapshotStore::Save(Vfs::Default(), file.path, heap1, {}).ok());
  // A second save replaces it atomically; the temp file never lingers.
  Heap heap2;
  heap2.Allocate(Person("V2"));
  heap2.Allocate(Person("V2b"));
  ASSERT_TRUE(SnapshotStore::Save(Vfs::Default(), file.path, heap2, {}).ok());
  EXPECT_FALSE(Vfs::Default()->Exists(file.path + ".tmp"));
  auto image = SnapshotStore::Load(Vfs::Default(), file.path);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->heap.size(), 2u);
}

TEST(SnapshotStoreTest, RootsMustResolve) {
  ScopedFile file(TempPath("snap4"));
  Heap heap;
  heap.Allocate(Person("X"));
  ASSERT_TRUE(SnapshotStore::Save(Vfs::Default(), file.path, heap,
                                  {{"bad", 999}})
                  .ok());
  EXPECT_EQ(SnapshotStore::Load(Vfs::Default(), file.path).status().code(),
            StatusCode::kCorruption);
}

TEST(SnapshotStoreTest, SingleValueConvenience) {
  ScopedFile file(TempPath("snap5"));
  Dynamic d = MakeDynamic(Value::Int(42));
  ASSERT_TRUE(SnapshotStore::SaveValue(Vfs::Default(), file.path, d).ok());
  auto back = SnapshotStore::LoadValue(Vfs::Default(), file.path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, d);
  EXPECT_EQ(SnapshotStore::LoadValue(Vfs::Default(), TempPath("missing"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------
// ReplicatingStore (extern/intern; Amber).
// ---------------------------------------------------------------------

class ReplicatingStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempPath("repl");
    std::string cmd = "rm -rf " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    auto store = ReplicatingStore::Open(Vfs::Default(), dir_);
    ASSERT_TRUE(store.ok()) << store.status();
    store_ = std::move(store).value();
  }
  void TearDown() override {
    std::string cmd = "rm -rf " + dir_;
    (void)std::system(cmd.c_str());
  }

  std::string dir_;
  std::unique_ptr<ReplicatingStore> store_;
};

TEST_F(ReplicatingStoreTest, PaperExternInternExample) {
  // extern('DBFile', dynamic d); ... var x = intern 'DBFile';
  // var d = coerce x to database
  Type database_t = *ParseType("List[{Name: String}]");
  Value db = Value::List({Person("Alice"), Person("Bob")});
  auto d = dyndb::MakeDynamicAs(db, database_t);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(store_->Extern("DBFile", *d).ok());

  auto x = store_->Intern("DBFile");
  ASSERT_TRUE(x.ok()) << x.status();
  auto coerced = dyndb::Coerce(*x, database_t);
  ASSERT_TRUE(coerced.ok());
  EXPECT_EQ(*coerced, db);
  // The coerce fails if the type associated with the value is wrong.
  EXPECT_EQ(dyndb::Coerce(*x, Type::Int()).status().code(),
            StatusCode::kTypeError);
}

TEST_F(ReplicatingStoreTest, ModificationsDoNotSurviveSecondIntern) {
  // The paper's anomaly: "the modifications to x will not survive the
  // second intern operation".
  Heap heap;
  Oid obj = heap.Allocate(Person("original"));
  ASSERT_TRUE(
      store_->Extern("DBFile", MakeDynamic(Value::Ref(obj)), &heap).ok());

  // First intern; modify the interned copy (but do not extern).
  auto x = store_->Intern("DBFile", &heap);
  ASSERT_TRUE(x.ok());
  Oid copy1 = x->value.AsRef();
  ASSERT_TRUE(heap.Put(copy1, Person("modified")).ok());

  // Second intern: the modification is gone.
  auto y = store_->Intern("DBFile", &heap);
  ASSERT_TRUE(y.ok());
  Oid copy2 = y->value.AsRef();
  EXPECT_NE(copy1, copy2);
  EXPECT_EQ(*heap.Get(copy2), Person("original"));
  // Unless the modified copy is externed back.
  ASSERT_TRUE(
      store_->Extern("DBFile", MakeDynamic(Value::Ref(copy1)), &heap).ok());
  auto z = store_->Intern("DBFile", &heap);
  ASSERT_TRUE(z.ok());
  EXPECT_EQ(*heap.Get(z->value.AsRef()), Person("modified"));
}

TEST_F(ReplicatingStoreTest, SharedValueSplitsAcrossHandles) {
  // The paper: if a and b both refer to c, changes through a's handle
  // are invisible through b's — the handles hold distinct copies of c.
  Heap heap;
  Oid c = heap.Allocate(Value::Int(1));
  Oid a = heap.Allocate(Value::RecordOf({{"c", Value::Ref(c)}}));
  Oid b = heap.Allocate(Value::RecordOf({{"c", Value::Ref(c)}}));
  ASSERT_TRUE(store_->Extern("a", MakeDynamic(Value::Ref(a)), &heap).ok());
  ASSERT_TRUE(store_->Extern("b", MakeDynamic(Value::Ref(b)), &heap).ok());

  auto ia = store_->Intern("a", &heap);
  auto ib = store_->Intern("b", &heap);
  ASSERT_TRUE(ia.ok());
  ASSERT_TRUE(ib.ok());
  Oid ca = heap.Get(ia->value.AsRef())->FindField("c")->AsRef();
  Oid cb = heap.Get(ib->value.AsRef())->FindField("c")->AsRef();
  EXPECT_NE(ca, cb);  // two distinct copies: wasted storage
  ASSERT_TRUE(heap.Put(ca, Value::Int(99)).ok());
  EXPECT_EQ(*heap.Get(cb), Value::Int(1));  // update anomaly
}

TEST_F(ReplicatingStoreTest, SharingWithinOneHandlePreserved) {
  Heap heap;
  Oid shared = heap.Allocate(Value::Int(7));
  Oid root = heap.Allocate(Value::RecordOf(
      {{"left", Value::Ref(shared)}, {"right", Value::Ref(shared)}}));
  ASSERT_TRUE(
      store_->Extern("diamond", MakeDynamic(Value::Ref(root)), &heap).ok());
  auto in = store_->Intern("diamond", &heap);
  ASSERT_TRUE(in.ok());
  Value r = *heap.Get(in->value.AsRef());
  EXPECT_EQ(r.FindField("left")->AsRef(), r.FindField("right")->AsRef());
}

TEST_F(ReplicatingStoreTest, CyclesSurviveReplication) {
  Heap heap;
  Oid a = heap.Allocate(Value::Bottom());
  Oid b = heap.Allocate(Value::RecordOf({{"peer", Value::Ref(a)}}));
  ASSERT_TRUE(heap.Put(a, Value::RecordOf({{"peer", Value::Ref(b)}})).ok());
  ASSERT_TRUE(
      store_->Extern("cycle", MakeDynamic(Value::Ref(a)), &heap).ok());
  auto in = store_->Intern("cycle", &heap);
  ASSERT_TRUE(in.ok());
  Oid na = in->value.AsRef();
  Oid nb = heap.Get(na)->FindField("peer")->AsRef();
  EXPECT_EQ(heap.Get(nb)->FindField("peer")->AsRef(), na);
  EXPECT_NE(na, a);
}

TEST_F(ReplicatingStoreTest, InternAsEnforcesType) {
  ASSERT_TRUE(store_->Extern("n", MakeDynamic(Value::Int(5))).ok());
  EXPECT_EQ(*store_->InternAs("n", Type::Int()), Value::Int(5));
  EXPECT_EQ(store_->InternAs("n", Type::String()).status().code(),
            StatusCode::kTypeError);
}

TEST_F(ReplicatingStoreTest, HandleManagement) {
  EXPECT_FALSE(store_->HasHandle("x"));
  EXPECT_EQ(store_->Intern("x").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store_->Extern("x", MakeDynamic(Value::Int(1))).ok());
  ASSERT_TRUE(store_->Extern("y", MakeDynamic(Value::Int(2))).ok());
  EXPECT_EQ(store_->Handles(), (std::vector<std::string>{"x", "y"}));
  ASSERT_TRUE(store_->Drop("x").ok());
  EXPECT_FALSE(store_->HasHandle("x"));
  EXPECT_EQ(store_->Drop("x").code(), StatusCode::kNotFound);
  EXPECT_FALSE(store_->Extern("bad/name", MakeDynamic(Value::Int(0))).ok());
}

// A remove that fails must be reported, and the handle must stay.
TEST(PersistTest, DropReportsFailedRemove) {
  storage::FaultVfs vfs(0xD809);
  auto store = ReplicatingStore::Open(&vfs, "repl");
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->Extern("h", MakeDynamic(Value::Int(1))).ok());
  vfs.CrashAtMutatingOp(1);
  EXPECT_EQ((*store)->Drop("h").code(), StatusCode::kIoError);
  vfs.ClearCrash();
  EXPECT_TRUE((*store)->HasHandle("h"));
}

// ---------------------------------------------------------------------
// IntrinsicStore (reachability persistence; PS-algol / GemStone).
// ---------------------------------------------------------------------

TEST(IntrinsicStoreTest, HandleAloneEnsuresPersistence) {
  ScopedFile file(TempPath("intr1"));
  Oid db_oid;
  {
    auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok()) << store.status();
    Heap& heap = (*store)->heap();
    Oid alice = heap.Allocate(Person("Alice"));
    db_oid = heap.Allocate(Value::List({Value::Ref(alice)}));
    // "Creating this global name is all that is required to ensure
    // persistence."
    ASSERT_TRUE((*store)->SetRoot("DB", db_oid).ok());
    ASSERT_TRUE((*store)->Commit().ok());
  }
  auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  auto root = (*store)->GetRoot("DB");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root, db_oid);  // stable identity, no copies
  Value db = *(*store)->heap().Get(*root);
  Value alice = *(*store)->heap().Get(db.elements()[0].AsRef());
  EXPECT_EQ(alice, Person("Alice"));
}

TEST(IntrinsicStoreTest, SharingPreservedAcrossRuns) {
  // Contrast with the replicating anomaly: one object reachable from
  // two roots stays ONE object.
  ScopedFile file(TempPath("intr2"));
  {
    auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    Heap& heap = (*store)->heap();
    Oid c = heap.Allocate(Value::Int(1));
    Oid a = heap.Allocate(Value::RecordOf({{"c", Value::Ref(c)}}));
    Oid b = heap.Allocate(Value::RecordOf({{"c", Value::Ref(c)}}));
    ASSERT_TRUE((*store)->SetRoot("a", a).ok());
    ASSERT_TRUE((*store)->SetRoot("b", b).ok());
    ASSERT_TRUE((*store)->Commit().ok());
  }
  auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  Heap& heap = (*store)->heap();
  Oid ca = heap.Get(*(*store)->GetRoot("a"))->FindField("c")->AsRef();
  Oid cb = heap.Get(*(*store)->GetRoot("b"))->FindField("c")->AsRef();
  EXPECT_EQ(ca, cb);  // one shared object
  // An update through a is visible through b (after commit + reopen).
  ASSERT_TRUE(heap.Put(ca, Value::Int(99)).ok());
  ASSERT_TRUE((*store)->Commit().ok());
  auto store2 = IntrinsicStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store2.ok());
  Oid cb2 =
      (*store2)->heap().Get(*(*store2)->GetRoot("b"))->FindField("c")->AsRef();
  EXPECT_EQ(*(*store2)->heap().Get(cb2), Value::Int(99));
}

TEST(IntrinsicStoreTest, UncommittedChangesDoNotSurvive) {
  // PS-algol's commit: "before this instruction is called, the
  // persistent value and the value being used by the program can
  // diverge".
  ScopedFile file(TempPath("intr3"));
  Oid obj;
  {
    auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    obj = (*store)->heap().Allocate(Person("committed"));
    ASSERT_TRUE((*store)->SetRoot("r", obj).ok());
    ASSERT_TRUE((*store)->Commit().ok());
    // Mutate after commit, then "crash" (drop the store).
    ASSERT_TRUE((*store)->heap().Put(obj, Person("uncommitted")).ok());
    EXPECT_TRUE((*store)->HasUncommittedChanges());
  }
  auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->heap().Get(obj), Person("committed"));
  EXPECT_FALSE((*store)->HasUncommittedChanges());
}

TEST(IntrinsicStoreTest, CommitIsIncrementalAndAtomic) {
  ScopedFile file(TempPath("intr4"));
  auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  Heap& heap = (*store)->heap();
  std::vector<Oid> oids;
  for (int i = 0; i < 20; ++i) oids.push_back(heap.Allocate(Value::Int(i)));
  Oid root = heap.Allocate(Value::Bottom());
  std::vector<Value> refs;
  for (Oid o : oids) refs.push_back(Value::Ref(o));
  ASSERT_TRUE(heap.Put(root, Value::List(refs)).ok());
  ASSERT_TRUE((*store)->SetRoot("all", root).ok());
  ASSERT_TRUE((*store)->Commit().ok());
  uint64_t after_first = (*store)->kv().log_bytes();
  // Touch one object; the second commit writes only the delta.
  ASSERT_TRUE(heap.Put(oids[3], Value::Int(333)).ok());
  ASSERT_TRUE((*store)->Commit().ok());
  uint64_t delta = (*store)->kv().log_bytes() - after_first;
  EXPECT_LT(delta, after_first / 4);
}

TEST(IntrinsicStoreTest, GarbageCollection) {
  ScopedFile file(TempPath("intr5"));
  auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  Heap& heap = (*store)->heap();
  Oid keep = heap.Allocate(Person("keep"));
  heap.Allocate(Person("garbage1"));
  heap.Allocate(Person("garbage2"));
  ASSERT_TRUE((*store)->SetRoot("r", keep).ok());
  EXPECT_EQ((*store)->CollectGarbage(), 2u);
  ASSERT_TRUE((*store)->Commit().ok());
  ASSERT_TRUE((*store)->CompactStorage().ok());
  auto store2 = IntrinsicStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store2.ok());
  EXPECT_EQ((*store2)->heap().size(), 1u);
}

TEST(IntrinsicStoreTest, RootManagement) {
  ScopedFile file(TempPath("intr6"));
  auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->GetRoot("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*store)->SetRoot("r", 12345).code(), StatusCode::kNotFound);
  Oid o = (*store)->heap().Allocate(Value::Int(1));
  ASSERT_TRUE((*store)->SetRoot("r", o).ok());
  EXPECT_EQ((*store)->RootNames(), (std::vector<std::string>{"r"}));
  ASSERT_TRUE((*store)->RemoveRoot("r").ok());
  EXPECT_EQ((*store)->RemoveRoot("r").code(), StatusCode::kNotFound);
}

TEST(IntrinsicStoreTest, SchemaEvolutionOnOpenRoot) {
  ScopedFile file(TempPath("intr7"));
  Type v1 = *ParseType("{Employees: Set[{Name: String}]}");
  Type v2 = *ParseType(
      "{Employees: Set[{Name: String}], Projects: Set[String]}");
  Type bad = *ParseType("{Employees: Int}");
  {
    auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    Oid db = (*store)->heap().Allocate(Value::RecordOf(
        {{"Employees", Value::Set({Person("A")})}}));
    ASSERT_TRUE((*store)->SetRootTyped("DB", db, v1).ok());
    ASSERT_TRUE((*store)->Commit().ok());
  }
  // Recompile with the enriched type v2: allowed; the schema evolves.
  {
    auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    auto oid = (*store)->OpenRootChecked("DB", v2);
    ASSERT_TRUE(oid.ok()) << oid.status();
    EXPECT_EQ(*(*store)->RootType("DB"), v2);
    ASSERT_TRUE((*store)->Commit().ok());
  }
  // Opening at the original v1 still works (now a view of v2).
  {
    auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(*(*store)->RootType("DB"), v2);
    EXPECT_TRUE((*store)->OpenRootChecked("DB", v1).ok());
    EXPECT_EQ(*(*store)->RootType("DB"), v2);  // nothing lost
  }
  // A contradictory recompilation is rejected.
  {
    auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->OpenRootChecked("DB", bad).status().code(),
              StatusCode::kInconsistent);
  }
}

TEST(DatabaseIoTest, DatabaseRoundTripsAndExtentsAreDerived) {
  ScopedFile file(TempPath("dbio"));
  Type person_t = *ParseType("{Name: String}");
  Type employee_t = *ParseType("{Name: String, Empno: Int}");
  dyndb::Database db;
  db.MustInsertValue(Person("p1"));
  db.MustInsertValue(Value::RecordOf(
      {{"Name", Value::String("e1")}, {"Empno", Value::Int(1)}}));
  db.MustInsertValue(Value::Int(42));
  ASSERT_TRUE(persist::SaveSnapshot(Vfs::Default(), file.path,
                                    db.GetSnapshot())
                  .ok());

  auto loaded = persist::LoadDatabase(Vfs::Default(), file.path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), 3u);
  // Every entry round-trips with its type.
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(loaded->entries()[i], db.entries()[i]);
  }
  // Extents are derived state: re-register and get the same answers.
  ASSERT_TRUE(loaded->RegisterExtent("employees", employee_t).ok());
  EXPECT_EQ(loaded->GetViaExtent(employee_t)->size(), 1u);
  EXPECT_EQ(loaded->GetScan(person_t).size(), 2u);
  // Multiple extents over the same type coexist (extent ≠ type).
  ASSERT_TRUE(loaded->RegisterExtent("employees2", employee_t).ok());
  EXPECT_EQ(loaded->ExtentNames().size(), 2u);
}

TEST(DatabaseIoTest, CorruptDatabaseFileRejected) {
  ScopedFile file(TempPath("dbio_bad"));
  dyndb::Database db;
  db.MustInsertValue(Value::Int(1));
  ASSERT_TRUE(persist::SaveSnapshot(Vfs::Default(), file.path,
                                    db.GetSnapshot())
                  .ok());
  CorruptByte(file.path, 9);
  EXPECT_FALSE(
      persist::LoadDatabase(Vfs::Default(), file.path).ok());
  EXPECT_EQ(persist::LoadDatabase(Vfs::Default(),
                                  TempPath("nonexistent")).status().code(),
            StatusCode::kNotFound);
}

TEST(IntrinsicStoreTest, CrashMidCommitRecoversPreviousState) {
  ScopedFile file(TempPath("intr8"));
  {
    auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(store.ok());
    Oid o = (*store)->heap().Allocate(Value::Int(1));
    ASSERT_TRUE((*store)->SetRoot("r", o).ok());
    ASSERT_TRUE((*store)->Commit().ok());
  }
  // Simulate a crash mid-commit: append object puts without a commit
  // marker, as an interrupted Commit() would leave.
  {
    auto writer = storage::LogWriter::Open(Vfs::Default(), file.path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        (*writer)
            ->Append({storage::LogRecordType::kPut, "o/99", "garbage"})
            .ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  auto store = IntrinsicStore::Open(Vfs::Default(), file.path);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->heap().size(), 1u);
  EXPECT_FALSE((*store)->heap().Contains(99));
}

}  // namespace
}  // namespace dbpl::persist
