// Cross-module integration tests: whole-system scenarios that exercise
// several layers at once, mirroring how a downstream user would wire
// the pieces together.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "classes/class_system.h"
#include "core/grelation.h"
#include "core/order.h"
#include "dyndb/database.h"
#include "lang/interp.h"
#include "persist/intrinsic_store.h"
#include "persist/replicating_store.h"
#include "relational/ops.h"
#include "serial/decoder.h"
#include "serial/encoder.h"
#include "test_util.h"
#include "types/parse.h"
#include "types/type_of.h"

namespace dbpl {
namespace {

using core::Heap;
using core::Oid;
using core::Value;
using dbpl::testing::TempPath;
using types::ParseType;

// A full lifecycle: classes over a persistent heap, committed,
// reloaded, and queried through the dynamic database — classes, Get
// and persistence agreeing on the same objects.
TEST(IntegrationTest, ClassExtentsSurviveIntrinsicPersistence) {
  const std::string path = TempPath("class_persist");
  std::remove(path.c_str());
  std::vector<Oid> employees;
  {
    auto store = persist::IntrinsicStore::Open(storage::Vfs::Default(), path);
    ASSERT_TRUE(store.ok());
    Heap& heap = (*store)->heap();
    classes::ClassSystem cs(&heap);
    ASSERT_TRUE(cs.DefineVariableClass("Person", *ParseType("{Name: String}"))
                    .ok());
    ASSERT_TRUE(cs.DefineVariableClass(
                      "Employee", *ParseType("{Name: String, Empno: Int}"),
                      {"Person"})
                    .ok());
    for (int i = 0; i < 5; ++i) {
      auto oid = cs.NewInstance(
          "Employee",
          Value::RecordOf({{"Name", Value::String("e" + std::to_string(i))},
                           {"Empno", Value::Int(i)}}));
      ASSERT_TRUE(oid.ok());
      employees.push_back(*oid);
    }
    // Persist the extent as a list-of-refs root (extents are data too).
    std::vector<Value> refs;
    for (Oid oid : employees) refs.push_back(Value::Ref(oid));
    Oid extent_obj = heap.Allocate(Value::List(std::move(refs)));
    ASSERT_TRUE((*store)->SetRoot("employees", extent_obj).ok());
    ASSERT_TRUE((*store)->Commit().ok());
  }
  {
    auto store = persist::IntrinsicStore::Open(storage::Vfs::Default(), path);
    ASSERT_TRUE(store.ok());
    auto root = (*store)->GetRoot("employees");
    ASSERT_TRUE(root.ok());
    Value extent = *(*store)->heap().Get(*root);
    ASSERT_EQ(extent.elements().size(), 5u);
    // Rebuild a dynamic database from the persistent objects and the
    // type hierarchy rederives the extents.
    dyndb::Database db;
    for (const Value& ref : extent.elements()) {
      db.MustInsertValue(*(*store)->heap().Get(ref.AsRef()));
    }
    EXPECT_EQ(db.GetScan(*ParseType("{Name: String}")).size(), 5u);
    EXPECT_EQ(db.GetScan(*ParseType("{Name: String, Empno: Int}")).size(),
              5u);
    EXPECT_EQ(db.GetScan(*ParseType("{Name: String, Empno: Int, X: Int}"))
                  .size(),
              0u);
  }
  std::remove(path.c_str());
}

// MiniAmber programs talking to each other through replicating
// persistence — including the copy-semantics anomaly at language level.
TEST(IntegrationTest, TwoMiniAmberProgramsShareAHandle) {
  const std::string dir = TempPath("lang_share");
  std::string cmd = "rm -rf " + dir;
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  {
    lang::Interp producer(dir);
    auto out = producer.Run(R"(
      let parts = [{Name = "bolt", Price = 0.5},
                   {Name = "nut", Price = 0.25}];
      extern parts as "parts";
    )");
    ASSERT_TRUE(out.ok()) << out.status();
  }
  {
    lang::Interp consumer(dir);
    auto out = consumer.Run(R"(
      type Parts = List[{Name: String, Price: Real}];
      let parts = coerce (intern "parts") to Parts;
      sum(map(fun (p: {Price: Real}) : Real => p.Price, parts));
    )");
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(out->values, (std::vector<std::string>{"0.75"}));
  }
  {
    // A consumer demanding more than was stored is refused: the type
    // travelled with the value.
    lang::Interp consumer(dir);
    auto out = consumer.Run(R"(
      type Rich = List[{Name: String, Price: Real, Weight: Real}];
      coerce (intern "parts") to Rich;
    )");
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kTypeError);
  }
  (void)std::system(cmd.c_str());
}

// Figure 1 computed three ways: core GRelation, value-level set join,
// and MiniAmber's `join`, all agreeing on the same objects.
TEST(IntegrationTest, FigureOneAcrossLayers) {
  auto addr = [](const char* city, const char* state) {
    std::vector<core::RecordField> fs;
    if (city) fs.push_back({"City", Value::String(city)});
    if (state) fs.push_back({"State", Value::String(state)});
    return Value::RecordOf(std::move(fs));
  };
  std::vector<Value> r1 = {
      Value::RecordOf({{"Name", Value::String("J Doe")},
                       {"Dept", Value::String("Sales")},
                       {"Addr", addr("Moose", nullptr)}}),
      Value::RecordOf({{"Name", Value::String("M Dee")},
                       {"Dept", Value::String("Manuf")}}),
      Value::RecordOf({{"Name", Value::String("N Bug")},
                       {"Addr", addr(nullptr, "MT")}}),
  };
  std::vector<Value> r2 = {
      Value::RecordOf({{"Dept", Value::String("Sales")},
                       {"Addr", addr(nullptr, "WY")}}),
      Value::RecordOf({{"Dept", Value::String("Admin")},
                       {"Addr", addr("Billings", nullptr)}}),
      Value::RecordOf({{"Dept", Value::String("Manuf")},
                       {"Addr", addr(nullptr, "MT")}}),
  };

  // Layer 1: operational generalized relations.
  core::GRelation joined = *core::GRelation::Join(
      core::GRelation::FromObjects(r1), core::GRelation::FromObjects(r2));
  EXPECT_EQ(joined.size(), 4u);

  // Layer 2: the value-level set join (Smyth lub). Figure 1's four
  // results are mutually incomparable, so min- and max-reduction agree.
  auto set_join = core::Join(Value::Set(r1), Value::Set(r2));
  ASSERT_TRUE(set_join.ok());
  EXPECT_EQ(*set_join, joined.ToValue());

  // Layer 3: MiniAmber's join on set literals.
  lang::Interp interp;
  auto out = interp.Run(R"(
    let r1 = {| {Name = "J Doe", Dept = "Sales", Addr = {City = "Moose"}},
                {Name = "M Dee", Dept = "Manuf"},
                {Name = "N Bug", Addr = {State = "MT"}} |};
    let r2 = {| {Dept = "Sales", Addr = {State = "WY"}},
                {Dept = "Admin", Addr = {City = "Billings"}},
                {Dept = "Manuf", Addr = {State = "MT"}} |};
    length(r1 join r2);
  )");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->values, (std::vector<std::string>{"4"}));
}

// Relational algebra and generalized relations computing the same
// query over the same data.
TEST(IntegrationTest, RelationalAndGeneralizedAgreeOnAQuery) {
  using relational::AtomType;
  using relational::Relation;
  using relational::Schema;
  Relation emp(Schema::Of({{"Name", AtomType::kString},
                           {"Dept", AtomType::kString}}));
  Relation dept(Schema::Of({{"Dept", AtomType::kString},
                            {"City", AtomType::kString}}));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(emp.Insert({Value::String("n" + std::to_string(i)),
                            Value::String(i % 3 == 0 ? "Sales" : "Manuf")})
                    .ok());
  }
  ASSERT_TRUE(dept.Insert({Value::String("Sales"), Value::String("Moose")})
                  .ok());
  ASSERT_TRUE(dept.Insert({Value::String("Manuf"), Value::String("Billings")})
                  .ok());

  // π_Name,City(emp ⋈ dept), both ways.
  auto classical = relational::Project(*relational::NaturalJoin(emp, dept),
                                       {"Name", "City"});
  ASSERT_TRUE(classical.ok());
  core::GRelation generalized =
      *core::GRelation::Join(emp.ToGRelation(), dept.ToGRelation())
           ->Project({"Name", "City"});
  EXPECT_EQ(generalized, classical->ToGRelation());
}

// Serialization + typeof consistency: whatever round-trips keeps its
// principal type.
TEST(IntegrationTest, RoundTrippedValuesKeepTheirType) {
  dyndb::Database db;
  db.MustInsertValue(Value::RecordOf({{"Name", Value::String("x")}}));
  db.MustInsertValue(Value::Int(1));
  db.MustInsertValue(Value::Set({Value::Int(1), Value::Int(2)}));
  for (const auto& d : db.entries()) {
    ByteBuffer buf;
    serial::EncodeDynamic(d, &buf);
    ByteReader in(buf);
    auto back = serial::DecodeDynamic(&in);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->value, d.value);
    EXPECT_EQ(back->type, d.type);
    EXPECT_EQ(types::TypeOf(back->value), back->type);
  }
}

}  // namespace
}  // namespace dbpl
