#ifndef DBPL_PERSIST_SNAPSHOT_STORE_H_
#define DBPL_PERSIST_SNAPSHOT_STORE_H_

#include <map>
#include <string>

#include "common/result.h"
#include "core/heap.h"
#include "dyndb/dynamic.h"
#include "storage/vfs.h"

namespace dbpl::persist {

/// All-or-nothing persistence: the first of the paper's three models,
/// "commonly used with interactive programming languages" (Lisp/Prolog
/// core images). The entire state — a heap of objects plus a table of
/// named roots — is written as one image and read back as one image.
///
/// The paper's criticisms are reproduced by construction: there is no
/// sharing of values among programs, no separation of stable data from
/// volatile data, and survival depends on the integrity of the whole
/// image (one flipped bit invalidates everything — see the tests).
///
/// Images are written to a temporary file and renamed, so a crash during
/// save leaves the previous image intact.
class SnapshotStore {
 public:
  /// A complete program state: objects plus named entry points.
  struct Image {
    core::Heap heap;
    std::map<std::string, core::Oid> roots;
  };

  /// Serializes the whole image to `path` (atomically), through `vfs`.
  static Status Save(storage::Vfs* vfs, const std::string& path,
                     const core::Heap& heap,
                     const std::map<std::string, core::Oid>& roots);

  /// Reads a whole image back.
  static Result<Image> Load(storage::Vfs* vfs, const std::string& path);

  /// Convenience for single self-describing values (no heap).
  static Status SaveValue(storage::Vfs* vfs, const std::string& path,
                          const dyndb::Dynamic& d);
  static Result<dyndb::Dynamic> LoadValue(storage::Vfs* vfs,
                                          const std::string& path);
};

}  // namespace dbpl::persist

#endif  // DBPL_PERSIST_SNAPSHOT_STORE_H_
