#ifndef DBPL_PERSIST_REPLICATING_STORE_H_
#define DBPL_PERSIST_REPLICATING_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/heap.h"
#include "dyndb/dynamic.h"
#include "storage/vfs.h"
#include "types/type.h"

namespace dbpl::persist {

/// Replicating persistence: the paper's second model, "controlled by
/// program instructions that move structures in and out of secondary
/// storage" — Amber's `extern`/`intern` with named *handles*.
///
/// Key semantics, reproduced faithfully (and tested):
///  * `extern(handle, dynamic d)` copies d *and everything reachable
///    from it* to secondary storage;
///  * a handle refers to a **copy**: modifications made to an interned
///    structure do not survive a second `intern` unless externed again;
///  * if two externed handles both reach a shared value c, each handle
///    gets its own copy of c — interning both yields two distinct
///    copies, the update-anomaly/wasted-storage problem the paper notes.
///
/// Sharing *within* one handle is preserved: the reachable object graph
/// is serialized once per object with local ids, so diamonds and cycles
/// survive the round trip.
class ReplicatingStore {
 public:
  /// Opens (creating) a store rooted at directory `directory`, with all
  /// I/O through `vfs` (which must outlive the store). Each handle is
  /// one self-describing file `<directory>/<handle>.dbpl`.
  static Result<std::unique_ptr<ReplicatingStore>> Open(
      storage::Vfs* vfs, const std::string& directory);

  /// Amber's `extern 'handle' (dynamic d)`. When `heap` is non-null,
  /// every object reachable from d through Ref values is replicated
  /// into the file (with heap oids rewritten to file-local ids).
  Status Extern(const std::string& handle, const dyndb::Dynamic& d,
                const core::Heap* heap = nullptr);

  /// Amber's `intern 'handle'`: reads the handle, allocating *fresh*
  /// objects in `into` for the replicated graph. `into` may be null
  /// only when the stored value contains no references.
  Result<dyndb::Dynamic> Intern(const std::string& handle,
                                core::Heap* into = nullptr);

  /// `coerce (intern 'handle') to T`: interns and coerces in one step,
  /// enforcing the paper's principle that a value cannot be written as
  /// one type and read as another.
  Result<core::Value> InternAs(const std::string& handle,
                               const types::Type& expected,
                               core::Heap* into = nullptr);

  bool HasHandle(const std::string& handle) const;
  /// Removes the handle's file: NotFound when there is no such handle,
  /// and the Vfs's error when the remove fails.
  Status Drop(const std::string& handle);
  std::vector<std::string> Handles() const;

  const std::string& directory() const { return directory_; }

 private:
  ReplicatingStore(storage::Vfs* vfs, std::string directory)
      : vfs_(vfs), directory_(std::move(directory)) {}

  std::string FilePath(const std::string& handle) const;

  storage::Vfs* vfs_;
  std::string directory_;
};

}  // namespace dbpl::persist

#endif  // DBPL_PERSIST_REPLICATING_STORE_H_
