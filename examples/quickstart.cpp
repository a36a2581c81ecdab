// Quickstart: a ten-minute tour of the library following the paper's
// storyline — values and their information ordering, structural types
// and subtyping, the heterogeneous database with the generic Get, and
// intrinsic persistence.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "core/order.h"
#include "core/value.h"
#include "dyndb/database.h"
#include "lang/interp.h"
#include "persist/intrinsic_store.h"
#include "types/parse.h"
#include "types/subtype.h"
#include "types/type_of.h"

using dbpl::core::Value;
using dbpl::storage::Vfs;
using dbpl::types::Type;

int main() {
  // -------------------------------------------------------------------
  // 1. Values and object-level inheritance (the paper's o1 ⊑ o2).
  // -------------------------------------------------------------------
  Value o1 = Value::RecordOf(
      {{"Name", Value::String("J Doe")},
       {"Address", Value::RecordOf({{"City", Value::String("Austin")}})}});
  Value o2 = o1.WithField("Emp_no", Value::Int(1234));

  std::cout << "o1 = " << o1 << "\n";
  std::cout << "o2 = " << o2 << "\n";
  std::cout << "o1 [= o2 (o2 is more informative): " << std::boolalpha
            << dbpl::core::LessEq(o1, o2) << "\n";

  // Joining adds information; contradictions are errors.
  auto joined = dbpl::core::Join(
      o2, Value::RecordOf(
              {{"Address",
                Value::RecordOf({{"Zip", Value::Int(78759)}})}}));
  std::cout << "o2 |_| {Address = {Zip}} = " << *joined << "\n";
  auto clash = dbpl::core::Join(
      o1, Value::RecordOf({{"Name", Value::String("K Smith")}}));
  std::cout << "join with {Name = \"K Smith\"}: " << clash.status() << "\n\n";

  // -------------------------------------------------------------------
  // 2. Types: the hierarchy is structural, not declared.
  // -------------------------------------------------------------------
  Type person = *dbpl::types::ParseType("{Name: String}");
  Type employee = *dbpl::types::ParseType("{Name: String, Empno: Int}");
  std::cout << "Employee <= Person: "
            << dbpl::types::IsSubtype(employee, person) << "\n";
  std::cout << "typeof(o2) = " << dbpl::types::TypeOf(o2) << "\n\n";

  // -------------------------------------------------------------------
  // 3. The heterogeneous database and the generic Get.
  // -------------------------------------------------------------------
  dbpl::dyndb::Database db;
  db.MustInsertValue(Value::RecordOf({{"Name", Value::String("p1")}}));
  db.MustInsertValue(Value::RecordOf(
      {{"Name", Value::String("e1")}, {"Empno", Value::Int(1)}}));
  db.MustInsertValue(Value::Int(42));  // anything goes: it is a list of dynamics

  std::cout << "Get[Person]   -> " << db.GetScan(person).size()
            << " values\n";
  std::cout << "Get[Employee] -> " << db.GetScan(employee).size()
            << " values\n";
  std::cout << "Get[Int]      -> " << db.GetScan(Type::Int()).size()
            << " values\n\n";

  // -------------------------------------------------------------------
  // 4. Intrinsic persistence: naming a root is all it takes.
  // -------------------------------------------------------------------
  const std::string path = "/tmp/dbpl_quickstart.db";
  std::remove(path.c_str());
  {
    auto store = dbpl::persist::IntrinsicStore::Open(Vfs::Default(), path);
    auto oid = (*store)->heap().Allocate(o2);
    (void)(*store)->SetRoot("employee_of_the_month", oid);
    (void)(*store)->Commit();
  }
  {
    auto store = dbpl::persist::IntrinsicStore::Open(Vfs::Default(), path);
    auto oid = (*store)->GetRoot("employee_of_the_month");
    std::cout << "reloaded: " << *(*store)->heap().Get(*oid) << "\n\n";
  }
  std::remove(path.c_str());

  // -------------------------------------------------------------------
  // 5. The same story in MiniAmber.
  // -------------------------------------------------------------------
  dbpl::lang::Interp interp;
  auto out = interp.Run(R"(
    type Person = {Name: String};
    type Employee = {Name: String, Empno: Int};
    let db = database;
    insert {Name = "p1"} into db;
    insert {Name = "e1", Empno = 1} into db;
    let d = dynamic 3;
    coerce d to Int;
    length(get Person from db);
    {Name = "J Doe"} join {Empno = 1234};
  )");
  if (!out.ok()) {
    std::cerr << "MiniAmber error: " << out.status() << "\n";
    return 1;
  }
  std::cout << "MiniAmber outputs:\n";
  for (size_t i = 0; i < out->values.size(); ++i) {
    std::cout << "  " << out->values[i] << " : " << out->types[i] << "\n";
  }
  return 0;
}
