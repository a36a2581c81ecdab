#ifndef DBPL_PERSIST_INTRINSIC_STORE_H_
#define DBPL_PERSIST_INTRINSIC_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/heap.h"
#include "dyndb/dynamic.h"
#include "storage/kv_store.h"
#include "types/type.h"

namespace dbpl::persist {

/// Intrinsic persistence: the paper's third model (PS-algol, GemStone).
/// "Every value in a program is persistent; there is no need physically
/// to retain storage for values for which all reference is lost."
///
/// The store owns a `core::Heap`. Named *handles* (the paper's term)
/// mark root objects; everything reachable from a root persists across
/// `Commit`, with stable oids — no replication, no extern/intern, and
/// sharing is preserved across program runs. Unreachable objects are
/// reclaimed by `CollectGarbage`.
///
/// Durability follows PS-algol's explicit `commit`: between commits the
/// persistent state and the program's heap may diverge; `Commit` writes
/// the delta atomically (via the KV store's write-ahead log), so a crash
/// mid-commit recovers to the previous commit.
///
/// Every stored object carries its type descriptor (principle P2), and
/// roots can be opened with a schema check that implements the paper's
/// recompilation rules (view / enrichment / rejection) — see
/// `OpenRootChecked`.
class IntrinsicStore {
 public:
  /// Opens (creating) a store backed by the log file at `path`,
  /// loading the committed heap and roots. All I/O goes through `vfs`
  /// (which must outlive the store).
  static Result<std::unique_ptr<IntrinsicStore>> Open(storage::Vfs* vfs,
                                                      const std::string& path);

  /// The program-visible heap. Mutations are transient until `Commit`.
  core::Heap& heap() { return heap_; }
  const core::Heap& heap() const { return heap_; }

  /// Binds a root name to an object ("creating this global name is all
  /// that is required to ensure persistence"). Transient until commit.
  Status SetRoot(const std::string& name, core::Oid oid);
  Result<core::Oid> GetRoot(const std::string& name) const;
  Status RemoveRoot(const std::string& name);
  std::vector<std::string> RootNames() const;

  /// Binds a root, recording `declared` as its schema type.
  Status SetRootTyped(const std::string& name, core::Oid oid,
                      types::Type declared);

  /// Opens a root under the paper's recompilation rules: succeeds when
  /// the stored type is a subtype of `requested` (a view) or merely
  /// consistent with it (schema enrichment — the evolved type is
  /// recorded); fails with `Inconsistent` when they contradict.
  Result<core::Oid> OpenRootChecked(const std::string& name,
                                    const types::Type& requested);

  /// The recorded schema type of a root (Top when never declared).
  Result<types::Type> RootType(const std::string& name) const;

  /// Atomically persists the delta since the last commit: changed /
  /// new / deleted objects (with their types) and the root table.
  Status Commit();

  /// True when heap or roots differ from the last committed state.
  bool HasUncommittedChanges() const;

  /// Deletes every object unreachable from the roots (in the heap;
  /// `Commit` then reclaims it in storage too). Returns the count.
  size_t CollectGarbage();

  /// Compacts the underlying log, dropping overwritten history.
  Status CompactStorage() { return kv_->Compact(); }

  /// Statistics for tests and benchmarks.
  const storage::KvStore& kv() const { return *kv_; }
  size_t committed_object_count() const { return committed_.size(); }

 private:
  explicit IntrinsicStore(std::unique_ptr<storage::KvStore> kv)
      : kv_(std::move(kv)) {}

  Status LoadCommitted();

  std::unique_ptr<storage::KvStore> kv_;
  core::Heap heap_;
  std::map<std::string, core::Oid> roots_;
  std::map<std::string, types::Type> root_types_;
  /// Last committed value of each object, for delta computation.
  std::map<core::Oid, core::Value> committed_;
  std::map<std::string, core::Oid> committed_roots_;
  std::map<std::string, types::Type> committed_root_types_;
};

}  // namespace dbpl::persist

#endif  // DBPL_PERSIST_INTRINSIC_STORE_H_
