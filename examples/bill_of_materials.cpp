// The paper's closing example: the bill-of-materials computation, and
// why "adding transient information to a persistent structure can be
// quite useful".
//
// Parts form a DAG (shared sub-assemblies), stored persistently in an
// IntrinsicStore. TotalCost is computed twice:
//   * naively — exponential re-computation on shared subparts;
//   * memoized — a *transient* memo field is joined onto each part
//     object during the computation and stripped before commit, so the
//     extra information never persists, exactly as the paper asks.
//
// Build & run:  ./build/examples/bill_of_materials

#include <cstdio>
#include <iostream>
#include <map>
#include <vector>

#include "core/heap.h"
#include "core/order.h"
#include "persist/intrinsic_store.h"

using dbpl::core::Heap;
using dbpl::core::Oid;
using dbpl::core::Value;
using dbpl::storage::Vfs;

namespace {

uint64_t g_naive_visits = 0;
uint64_t g_memo_visits = 0;

/// A base part: bought, not manufactured.
Value BasePart(const char* name, double price) {
  return Value::RecordOf({{"Name", Value::String(name)},
                          {"IsBase", Value::Bool(true)},
                          {"PurchasePrice", Value::Real(price)},
                          {"Components", Value::List({})}});
}

/// A manufactured part with components (subpart oid, quantity).
Value Assembly(const char* name, double cost,
               const std::vector<std::pair<Oid, double>>& components) {
  std::vector<Value> comps;
  comps.reserve(components.size());
  for (const auto& [oid, qty] : components) {
    comps.push_back(Value::RecordOf(
        {{"SubPart", Value::Ref(oid)}, {"Qty", Value::Real(qty)}}));
  }
  return Value::RecordOf({{"Name", Value::String(name)},
                          {"IsBase", Value::Bool(false)},
                          {"ManufacturingCost", Value::Real(cost)},
                          {"Components", Value::List(std::move(comps))}});
}

/// The paper's recursive TotalCost, with needless recomputation on
/// DAG-shaped part explosions.
double TotalCostNaive(const Heap& heap, Oid part) {
  ++g_naive_visits;
  Value p = *heap.Get(part);
  if (p.FindField("IsBase")->AsBool()) {
    return p.FindField("PurchasePrice")->AsReal();
  }
  double total = p.FindField("ManufacturingCost")->AsReal();
  for (const Value& comp : p.FindField("Components")->elements()) {
    total += comp.FindField("Qty")->AsReal() *
             TotalCostNaive(heap, comp.FindField("SubPart")->AsRef());
  }
  return total;
}

/// The memoized version: the intermediate result is attached to the
/// part *object* as an extra field (object-level inheritance — the
/// value is joined with {MemoTotalCost = x}), then checked on re-entry.
double TotalCostMemoized(Heap& heap, Oid part) {
  ++g_memo_visits;
  Value p = *heap.Get(part);
  if (const Value* memo = p.FindField("MemoTotalCost")) {
    return memo->AsReal();
  }
  double total;
  if (p.FindField("IsBase")->AsBool()) {
    total = p.FindField("PurchasePrice")->AsReal();
  } else {
    total = p.FindField("ManufacturingCost")->AsReal();
    for (const Value& comp : p.FindField("Components")->elements()) {
      total += comp.FindField("Qty")->AsReal() *
               TotalCostMemoized(heap, comp.FindField("SubPart")->AsRef());
    }
  }
  // Join the transient field onto the persistent object.
  (void)heap.Extend(part, Value::RecordOf(
                              {{"MemoTotalCost", Value::Real(total)}}));
  return total;
}

/// Strips the transient memo fields: "there is no need for the
/// additional information to persist".
void StripMemos(Heap& heap) {
  for (Oid oid : heap.Oids()) {
    Value v = *heap.Get(oid);
    if (v.kind() != dbpl::core::ValueKind::kRecord ||
        v.FindField("MemoTotalCost") == nullptr) {
      continue;
    }
    std::vector<std::string> keep;
    for (const auto& f : v.fields()) {
      if (f.name != "MemoTotalCost") keep.push_back(f.name);
    }
    (void)heap.Put(oid, v.Project(keep));
  }
}

}  // namespace

int main() {
  const std::string path = "/tmp/dbpl_bom.db";
  std::remove(path.c_str());
  auto store = dbpl::persist::IntrinsicStore::Open(Vfs::Default(), path);
  Heap& heap = (*store)->heap();

  // Build a parts DAG with heavy sharing: each level uses the previous
  // level twice (a ladder), so the explosion diagram is a DAG, not a
  // tree — the case the paper says causes needless recomputation.
  Oid bolt = heap.Allocate(BasePart("bolt", 0.5));
  Oid nut = heap.Allocate(BasePart("nut", 0.25));
  Oid level = heap.Allocate(Assembly("clamp", 1.0, {{bolt, 4}, {nut, 4}}));
  for (int i = 0; i < 18; ++i) {
    level = heap.Allocate(Assembly(("asm-" + std::to_string(i)).c_str(), 2.0,
                                   {{level, 1}, {level, 1}}));
  }
  (void)(*store)->SetRoot("product", level);
  (void)(*store)->Commit();

  double naive = TotalCostNaive(heap, level);
  double memo = TotalCostMemoized(heap, level);
  std::cout << "total cost (naive):    " << naive << "  ["
            << g_naive_visits << " part visits]\n";
  std::cout << "total cost (memoized): " << memo << "  [" << g_memo_visits
            << " part visits]\n";
  std::cout << "speedup factor: "
            << static_cast<double>(g_naive_visits) /
                   static_cast<double>(g_memo_visits)
            << "x\n";

  // The memo fields exist right now — but they are transient: strip
  // them before commit so the persistent store never sees them.
  StripMemos(heap);
  (void)(*store)->Commit();
  std::cout << "after strip+commit, uncommitted changes: " << std::boolalpha
            << (*store)->HasUncommittedChanges() << "\n";

  // Reopen and verify no memo ever persisted.
  store->reset();
  auto reopened = dbpl::persist::IntrinsicStore::Open(Vfs::Default(), path);
  bool any_memo = false;
  for (Oid oid : (*reopened)->heap().Oids()) {
    Value v = *(*reopened)->heap().Get(oid);
    if (v.kind() == dbpl::core::ValueKind::kRecord &&
        v.FindField("MemoTotalCost") != nullptr) {
      any_memo = true;
    }
  }
  std::cout << "memo fields in the persistent store: " << any_memo << "\n";
  std::remove(path.c_str());
  return 0;
}
