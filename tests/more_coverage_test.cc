// A second coverage wave: cross-cutting properties and edge cases that
// the per-module suites do not reach.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/heap.h"
#include "core/order.h"
#include "dyndb/database.h"
#include "lang/interp.h"
#include "persist/intrinsic_store.h"
#include "storage/kv_store.h"
#include "test_util.h"
#include "types/parse.h"
#include "types/subtype.h"
#include "types/type_of.h"

namespace dbpl {
namespace {

using core::Heap;
using core::Oid;
using core::Value;
using dbpl::testing::TempPath;
using types::ParseType;
using types::Type;

// ---------------------------------------------------------------------
// Order-theoretic properties of record operations.
// ---------------------------------------------------------------------

class OrderOpsPropertyTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, OrderOpsPropertyTest,
                         ::testing::Values(101, 202, 303));

TEST_P(OrderOpsPropertyTest, ProjectionIsMonotone) {
  // a ⊑ b  ⟹  a|A ⊑ b|A for records.
  dbpl::testing::Rng rng(GetParam());
  const std::vector<std::string> attrs = {"Name", "Dept"};
  for (int i = 0; i < 40; ++i) {
    Value a = dbpl::testing::RandomRecord(rng);
    // Refine a by adding or deepening fields.
    Value b = a.WithField("Extra", Value::Int(1));
    ASSERT_TRUE(core::LessEq(a, b));
    EXPECT_TRUE(core::LessEq(a.Project(attrs), b.Project(attrs)));
  }
}

TEST_P(OrderOpsPropertyTest, WithFieldRefinesWhenFieldIsNew) {
  dbpl::testing::Rng rng(GetParam() * 3);
  for (int i = 0; i < 40; ++i) {
    Value a = dbpl::testing::RandomRecord(rng);
    if (a.FindField("Zzz") != nullptr) continue;
    Value b = a.WithField("Zzz", Value::Int(9));
    EXPECT_TRUE(core::Less(a, b));
    EXPECT_TRUE(core::Consistent(a, b));
    EXPECT_EQ(*core::Join(a, b), b);
    EXPECT_EQ(core::Meet(a, b), a);
  }
}

TEST_P(OrderOpsPropertyTest, HeapExtendOnlyAddsInformation) {
  dbpl::testing::Rng rng(GetParam() * 7);
  Heap heap;
  for (int i = 0; i < 30; ++i) {
    Value before = dbpl::testing::RandomRecord(rng);
    Oid oid = heap.Allocate(before);
    Value extra = dbpl::testing::RandomRecord(rng);
    auto extended = heap.Extend(oid, extra);
    if (extended.ok()) {
      EXPECT_TRUE(core::LessEq(before, *extended));
      EXPECT_TRUE(core::LessEq(extra, *extended));
    } else {
      // Failed extension leaves the object untouched.
      EXPECT_EQ(*heap.Get(oid), before);
    }
  }
}

// ---------------------------------------------------------------------
// Get/coerce coherence over random data.
// ---------------------------------------------------------------------

TEST_P(OrderOpsPropertyTest, EveryGetPackageCoercesToItsBound) {
  dbpl::testing::Rng rng(GetParam() * 13);
  dyndb::Database db;
  for (int i = 0; i < 60; ++i) {
    db.MustInsertValue(dbpl::testing::RandomRecord(rng));
  }
  Type bound = *ParseType("{Name: String}");
  for (const auto& pkg : db.GetPackages(bound)) {
    EXPECT_TRUE(dyndb::Coerce(pkg, bound).ok());
    EXPECT_TRUE(types::IsSubtype(pkg.type, bound));
  }
  // Scan and packages agree on cardinality.
  EXPECT_EQ(db.GetPackages(bound).size(), db.GetScan(bound).size());
}

TEST(DatabaseEdgeTest, DeclaredTypesGovernGet) {
  // Insert the same value twice: once at its principal type, once
  // declared at a supertype. Get distinguishes them.
  dyndb::Database db;
  Value emp = Value::RecordOf(
      {{"Name", Value::String("e")}, {"Empno", Value::Int(1)}});
  db.MustInsertValue(emp);
  auto declared = dyndb::MakeDynamicAs(emp, *ParseType("{Name: String}"));
  ASSERT_TRUE(declared.ok());
  db.MustInsert(*declared);
  EXPECT_EQ(db.GetScan(*ParseType("{Name: String}")).size(), 2u);
  EXPECT_EQ(db.GetScan(*ParseType("{Name: String, Empno: Int}")).size(), 1u);
}

// ---------------------------------------------------------------------
// Storage endurance.
// ---------------------------------------------------------------------

TEST(StorageEnduranceTest, RepeatedReopenIsIdempotent) {
  std::string path = TempPath("reopen");
  std::remove(path.c_str());
  {
    auto store = storage::KvStore::Open(storage::Vfs::Default(), path);
    ASSERT_TRUE(store.ok());
    storage::WriteBatch batch;
    for (int i = 0; i < 100; ++i) {
      batch.Put("k" + std::to_string(i), std::string(100, 'v'));
    }
    ASSERT_TRUE((*store)->Apply(batch).ok());
  }
  for (int round = 0; round < 5; ++round) {
    auto store = storage::KvStore::Open(storage::Vfs::Default(), path);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->size(), 100u);
    EXPECT_FALSE((*store)->recovery_info().corrupt_tail);
    EXPECT_EQ((*store)->recovery_info().uncommitted_dropped, 0u);
  }
  std::remove(path.c_str());
}

TEST(StorageEnduranceTest, LargeValuesRoundTrip) {
  std::string path = TempPath("large");
  std::remove(path.c_str());
  std::string big(1 << 20, 'x');  // 1 MiB value
  big[12345] = 'y';
  {
    auto store = storage::KvStore::Open(storage::Vfs::Default(), path);
    ASSERT_TRUE(store.ok());
    storage::WriteBatch batch;
    batch.Put("big", big);
    ASSERT_TRUE((*store)->Apply(batch).ok());
  }
  auto store = storage::KvStore::Open(storage::Vfs::Default(), path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->Get("big"), big);
  std::remove(path.c_str());
}

TEST(IntrinsicEnduranceTest, ManyCommitCyclesAndCompaction) {
  std::string path = TempPath("cycles");
  std::remove(path.c_str());
  Oid obj;
  {
    auto store = persist::IntrinsicStore::Open(storage::Vfs::Default(), path);
    ASSERT_TRUE(store.ok());
    obj = (*store)->heap().Allocate(Value::Int(0));
    ASSERT_TRUE((*store)->SetRoot("counter", obj).ok());
    for (int i = 1; i <= 50; ++i) {
      ASSERT_TRUE((*store)->heap().Put(obj, Value::Int(i)).ok());
      ASSERT_TRUE((*store)->Commit().ok());
      if (i % 10 == 0) {
        ASSERT_TRUE((*store)->CompactStorage().ok());
      }
    }
  }
  auto store = persist::IntrinsicStore::Open(storage::Vfs::Default(), path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->heap().Get(obj), Value::Int(50));
  std::remove(path.c_str());
}

TEST(IntrinsicEnduranceTest, RootTypeSurvivesGcAndReopen) {
  std::string path = TempPath("roottype");
  std::remove(path.c_str());
  Type t = *ParseType("{Employees: Set[{Name: String}]}");
  {
    auto store = persist::IntrinsicStore::Open(storage::Vfs::Default(), path);
    ASSERT_TRUE(store.ok());
    Oid db = (*store)->heap().Allocate(Value::RecordOf(
        {{"Employees", Value::Set({})}}));
    (*store)->heap().Allocate(Value::Int(1));  // garbage
    ASSERT_TRUE((*store)->SetRootTyped("DB", db, t).ok());
    EXPECT_EQ((*store)->CollectGarbage(), 1u);
    ASSERT_TRUE((*store)->Commit().ok());
  }
  auto store = persist::IntrinsicStore::Open(storage::Vfs::Default(), path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->RootType("DB"), t);
  EXPECT_EQ((*store)->heap().size(), 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// MiniAmber corners.
// ---------------------------------------------------------------------

Result<std::vector<std::string>> RunSrc(const std::string& src) {
  lang::Interp interp;
  auto out = interp.Run(src);
  if (!out.ok()) return out.status();
  return out->values;
}

TEST(LangCornersTest, UserBindingShadowsBuiltin) {
  // A user-defined `map` takes precedence over the builtin.
  auto out = RunSrc(R"(
    let map = fun (x: Int) : Int => x * 100;
    map(3);
  )");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, (std::vector<std::string>{"300"}));
}

TEST(LangCornersTest, NestedCaseAndPrecedence) {
  auto out = RunSrc(R"(
    let v : <a: <x: Int | y: Int> | b: Int> = <a = <y = 5>>;
    case v of
      a(inner) => case inner of x(n) => n | y(n) => n * 2 end
    | b(n) => n
    end;
    1 + 2 == 3 and 2 * 3 == 6;
  )");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, (std::vector<std::string>{"10", "true"}));
}

TEST(LangCornersTest, SetJoinSubsumesInLanguage) {
  // Two partial facts about the same entity, joined at set level: the
  // cross-pairs that conflict disappear; the compatible pair merges.
  auto out = RunSrc(R"(
    let r1 = {| {Name = "J", Dept = "Sales"}, {Name = "K"} |};
    let r2 = {| {Name = "J", Empno = 1} |};
    r1 join r2;
  )");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, (std::vector<std::string>{
                      "{|{Dept = \"Sales\", Empno = 1, Name = \"J\"}|}"}));
}

TEST(LangCornersTest, DeepRecursionWithinReason) {
  auto out = RunSrc(R"(
    let rec count(n: Int) : Int = if n == 0 then 0 else 1 + count(n - 1);
    count(500);
  )");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, (std::vector<std::string>{"500"}));
}

TEST(LangCornersTest, StringEscapesRoundTrip) {
  auto out = RunSrc(R"(
    "line1\nline2" == "line1\nline2";
  )");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, (std::vector<std::string>{"true"}));
}

TEST(LangCornersTest, MeetBuiltinTypesAsLub) {
  // meet's static type is the LUB of the operand types (less
  // information ⇒ higher type) — check it typechecks downstream.
  auto out = RunSrc(R"(
    let m = meet({Name = "J", Empno = 1}, {Name = "J", Dept = "S"});
    m.Name;
  )");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, (std::vector<std::string>{"\"J\""}));
  // Fields outside the common structure are not accessible.
  auto bad = RunSrc(R"(
    let m = meet({Name = "J", Empno = 1}, {Name = "J", Dept = "S"});
    m.Empno;
  )");
  EXPECT_FALSE(bad.ok());
}

TEST(LangCornersTest, TypeAliasUsableInsideLaterAliases) {
  auto out = RunSrc(R"(
    type Addr = {City: String};
    type Person = {Name: String, Addr: Addr};
    let p : Person = {Name = "J", Addr = {City = "Austin"}};
    p.Addr.City;
  )");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, (std::vector<std::string>{"\"Austin\""}));
}

// ---------------------------------------------------------------------
// TypeOf / serialization agreement on random data (the full loop).
// ---------------------------------------------------------------------

TEST_P(OrderOpsPropertyTest, TypeOfIsStableUnderSerialization) {
  auto corpus = dbpl::testing::Corpus(GetParam() * 31, 50, 3);
  for (const auto& v : corpus) {
    Type before = types::TypeOf(v);
    dyndb::Dynamic d = dyndb::MakeDynamic(v);
    EXPECT_EQ(d.type, before);
    // The principal type always accepts its own value's refinements'
    // supertypes: v itself coerces to anything above its type.
    EXPECT_TRUE(dyndb::Coerce(d, Type::Top()).ok());
    EXPECT_TRUE(dyndb::Coerce(d, before).ok());
  }
}

}  // namespace
}  // namespace dbpl
