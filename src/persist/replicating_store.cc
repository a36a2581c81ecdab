#include "persist/replicating_store.h"

#include <algorithm>
#include <map>

#include "serial/decoder.h"
#include "serial/encoder.h"
#include "types/subtype.h"
#include "types/type_of.h"

namespace dbpl::persist {
namespace {

constexpr char kSuffix[] = ".dbpl";

/// Rebuilds `v` with every Ref oid remapped through `mapping`.
/// Unmapped oids fail (the closure must be complete).
Result<core::Value> RewriteRefs(const core::Value& v,
                                const std::map<core::Oid, core::Oid>& mapping) {
  using core::Value;
  using core::ValueKind;
  switch (v.kind()) {
    case ValueKind::kRef: {
      auto it = mapping.find(v.AsRef());
      if (it == mapping.end()) {
        return Status::Internal("dangling reference during replication: @" +
                                std::to_string(v.AsRef()));
      }
      return Value::Ref(it->second);
    }
    case ValueKind::kRecord: {
      std::vector<core::RecordField> fields;
      fields.reserve(v.fields().size());
      for (const auto& f : v.fields()) {
        DBPL_ASSIGN_OR_RETURN(Value nv, RewriteRefs(f.value, mapping));
        fields.push_back({f.name, std::move(nv)});
      }
      return Value::Record(std::move(fields));
    }
    case ValueKind::kSet:
    case ValueKind::kList: {
      std::vector<Value> elems;
      elems.reserve(v.elements().size());
      for (const auto& e : v.elements()) {
        DBPL_ASSIGN_OR_RETURN(Value ne, RewriteRefs(e, mapping));
        elems.push_back(std::move(ne));
      }
      return v.kind() == ValueKind::kSet ? Value::Set(std::move(elems))
                                         : Value::List(std::move(elems));
    }
    default:
      return v;
  }
}

bool HasRefs(const core::Value& v) {
  std::vector<core::Oid> refs;
  core::CollectRefs(v, &refs);
  return !refs.empty();
}

}  // namespace

Result<std::unique_ptr<ReplicatingStore>> ReplicatingStore::Open(
    storage::Vfs* vfs, const std::string& directory) {
  DBPL_RETURN_IF_ERROR(vfs->CreateDir(directory));
  return std::unique_ptr<ReplicatingStore>(
      new ReplicatingStore(vfs, directory));
}

std::string ReplicatingStore::FilePath(const std::string& handle) const {
  return directory_ + "/" + handle + kSuffix;
}

Status ReplicatingStore::Extern(const std::string& handle,
                                const dyndb::Dynamic& d,
                                const core::Heap* heap) {
  if (handle.empty() || handle.find('/') != std::string::npos) {
    return Status::InvalidArgument("bad handle name: " + handle);
  }
  // Discover the reachable closure and assign file-local ids.
  std::vector<core::Oid> direct;
  core::CollectRefs(d.value, &direct);
  std::vector<core::Oid> closure;
  if (heap != nullptr) {
    closure = heap->ReachableFrom(direct);
  } else if (!direct.empty()) {
    return Status::InvalidArgument(
        "value contains references but no heap was supplied");
  }
  std::map<core::Oid, core::Oid> local_id;
  core::Oid next_local = 1;
  for (core::Oid oid : closure) local_id[oid] = next_local++;

  ByteBuffer out;
  serial::EncodeHeader(&out);
  serial::EncodeType(d.type, &out);
  DBPL_ASSIGN_OR_RETURN(core::Value rewritten, RewriteRefs(d.value, local_id));
  serial::EncodeValue(rewritten, &out);
  out.PutVarint(closure.size());
  for (core::Oid oid : closure) {
    Result<core::Value> obj = heap->Get(oid);
    if (!obj.ok()) return obj.status();
    DBPL_ASSIGN_OR_RETURN(core::Value local_obj, RewriteRefs(*obj, local_id));
    out.PutVarint(local_id[oid]);
    serial::EncodeType(types::TypeOf(*obj), &out);
    serial::EncodeValue(local_obj, &out);
  }
  return vfs_->WriteFileAtomic(FilePath(handle), out);
}

Result<dyndb::Dynamic> ReplicatingStore::Intern(const std::string& handle,
                                                core::Heap* into) {
  Result<std::vector<uint8_t>> bytes = vfs_->ReadFileBytes(FilePath(handle));
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no such handle: " + handle);
    }
    return bytes.status();
  }
  ByteReader in(bytes->data(), bytes->size());
  DBPL_RETURN_IF_ERROR(serial::DecodeHeader(&in));
  DBPL_ASSIGN_OR_RETURN(types::Type type, serial::DecodeType(&in));
  DBPL_ASSIGN_OR_RETURN(core::Value value, serial::DecodeValue(&in));
  DBPL_ASSIGN_OR_RETURN(uint64_t count, in.ReadVarint());

  struct StoredObject {
    core::Oid local_id;
    core::Value value;
  };
  std::vector<StoredObject> objects;
  objects.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    DBPL_ASSIGN_OR_RETURN(uint64_t local, in.ReadVarint());
    DBPL_ASSIGN_OR_RETURN(types::Type obj_type, serial::DecodeType(&in));
    (void)obj_type;
    DBPL_ASSIGN_OR_RETURN(core::Value obj_value, serial::DecodeValue(&in));
    objects.push_back({local, std::move(obj_value)});
  }
  if (!in.AtEnd()) return Status::Corruption("trailing bytes in handle file");

  if (count > 0 && into == nullptr) {
    return Status::InvalidArgument(
        "handle contains objects but no heap was supplied");
  }
  // Allocate a fresh object per stored object (the *copy* semantics),
  // then rewrite references through the fresh mapping.
  std::map<core::Oid, core::Oid> fresh;
  for (const auto& obj : objects) {
    fresh[obj.local_id] = into->Allocate(core::Value::Bottom());
  }
  for (const auto& obj : objects) {
    DBPL_ASSIGN_OR_RETURN(core::Value rewritten,
                          RewriteRefs(obj.value, fresh));
    DBPL_RETURN_IF_ERROR(into->Put(fresh[obj.local_id], std::move(rewritten)));
  }
  if (HasRefs(value) || count > 0) {
    DBPL_ASSIGN_OR_RETURN(value, RewriteRefs(value, fresh));
  }
  return dyndb::Dynamic{std::move(value), std::move(type)};
}

Result<core::Value> ReplicatingStore::InternAs(const std::string& handle,
                                               const types::Type& expected,
                                               core::Heap* into) {
  DBPL_ASSIGN_OR_RETURN(dyndb::Dynamic d, Intern(handle, into));
  return dyndb::Coerce(d, expected);
}

bool ReplicatingStore::HasHandle(const std::string& handle) const {
  return vfs_->Exists(FilePath(handle));
}

Status ReplicatingStore::Drop(const std::string& handle) {
  Status s = vfs_->Remove(FilePath(handle));
  if (s.code() == StatusCode::kNotFound) {
    return Status::NotFound("no such handle: " + handle);
  }
  return s;
}

std::vector<std::string> ReplicatingStore::Handles() const {
  std::vector<std::string> out;
  Result<std::vector<std::string>> names = vfs_->ListDir(directory_);
  if (!names.ok()) return out;
  for (const std::string& name : *names) {
    const size_t suffix_len = sizeof(kSuffix) - 1;
    if (name.size() > suffix_len &&
        name.compare(name.size() - suffix_len, suffix_len, kSuffix) == 0) {
      out.push_back(name.substr(0, name.size() - suffix_len));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dbpl::persist
