// The paper's "Persistent Pascal" sketch: a program declares
//
//   type DBType = ...;  var DB: DBType handle DBHandle;
//
// and is later *recompiled* with a modified DBType'. Opening succeeds
// when DBType' is a supertype (a view) or merely consistent (schema
// enrichment); a contradictory redefinition is rejected. This example
// plays three successive "program versions" against one intrinsic
// store.
//
// Build & run:  ./build/examples/schema_evolution

#include <cstdio>
#include <iostream>

#include "core/value.h"
#include "persist/intrinsic_store.h"
#include "persist/schema_compat.h"
#include "types/parse.h"

using dbpl::core::Value;
using dbpl::persist::IntrinsicStore;
using dbpl::storage::Vfs;
using dbpl::types::ParseType;

int main() {
  const std::string path = "/tmp/dbpl_schema_evolution.db";
  std::remove(path.c_str());

  auto v1 = *ParseType("{Employees: Set[{Name: String}]}");
  auto v2 = *ParseType(
      "{Employees: Set[{Name: String}], Departments: Set[{Dept: String}]}");
  auto v3 = *ParseType(
      "{Employees: Set[{Name: String, Empno: Int}]}");
  auto bad = *ParseType("{Employees: Int}");

  // ---- Program version 1: create the database at schema v1. --------
  {
    auto store = IntrinsicStore::Open(Vfs::Default(), path);
    auto db = (*store)->heap().Allocate(Value::RecordOf(
        {{"Employees",
          Value::Set({Value::RecordOf({{"Name", Value::String("J Doe")}})})}}));
    (void)(*store)->SetRootTyped("DB", db, v1);
    (void)(*store)->Commit();
    std::cout << "v1 created database with schema:\n  " << v1 << "\n\n";
  }

  // ---- Program version 2: recompiled with new fields (enrichment). -
  {
    auto store = IntrinsicStore::Open(Vfs::Default(), path);
    std::cout << "opening stored v1 at v2 is classified as: "
              << dbpl::persist::SchemaCompatName(
                     dbpl::persist::ClassifySchema(v1, v2))
              << "\n";
    auto oid = (*store)->OpenRootChecked("DB", v2);
    if (!oid.ok()) {
      std::cerr << "unexpected failure: " << oid.status() << "\n";
      return 1;
    }
    std::cout << "schema evolved to:\n  " << *(*store)->RootType("DB")
              << "\n\n";
    (void)(*store)->Commit();
  }

  // ---- Program version 3: a *sibling* enrichment (v3 deepens
  //      Employees); the recorded schema becomes the common subtype. --
  {
    auto store = IntrinsicStore::Open(Vfs::Default(), path);
    auto stored = *(*store)->RootType("DB");
    std::cout << "opening stored schema at v3 is classified as: "
              << dbpl::persist::SchemaCompatName(
                     dbpl::persist::ClassifySchema(stored, v3))
              << "\n";
    auto oid = (*store)->OpenRootChecked("DB", v3);
    if (!oid.ok()) {
      std::cerr << "unexpected failure: " << oid.status() << "\n";
      return 1;
    }
    std::cout << "schema evolved to:\n  " << *(*store)->RootType("DB")
              << "\n\n";
    (void)(*store)->Commit();
  }

  // ---- Re-opening at the ORIGINAL v1 still works: it is a view. ----
  {
    auto store = IntrinsicStore::Open(Vfs::Default(), path);
    auto oid = (*store)->OpenRootChecked("DB", v1);
    std::cout << "re-opening at the original v1: "
              << (oid.ok() ? "OK (a view; nothing was lost)" : "FAILED")
              << "\n";
    // And the recorded schema keeps every enrichment.
    std::cout << "schema after the v1 view:\n  " << *(*store)->RootType("DB")
              << "\n\n";
  }

  // ---- A contradictory recompilation is rejected. -------------------
  {
    auto store = IntrinsicStore::Open(Vfs::Default(), path);
    auto oid = (*store)->OpenRootChecked("DB", bad);
    std::cout << "opening at {Employees: Int}: " << oid.status() << "\n";
  }

  std::remove(path.c_str());
  return 0;
}
