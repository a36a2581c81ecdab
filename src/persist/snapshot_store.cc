#include "persist/snapshot_store.h"

#include "serial/decoder.h"
#include "serial/encoder.h"
#include "types/type_of.h"

namespace dbpl::persist {

Status SnapshotStore::Save(storage::Vfs* vfs, const std::string& path,
                           const core::Heap& heap,
                           const std::map<std::string, core::Oid>& roots) {
  ByteBuffer out;
  serial::EncodeHeader(&out);
  // Roots.
  out.PutVarint(roots.size());
  for (const auto& [name, oid] : roots) {
    out.PutString(name);
    out.PutVarint(oid);
  }
  // Objects: each object carries its type (principle P2).
  std::vector<core::Oid> oids = heap.Oids();
  out.PutVarint(oids.size());
  for (core::Oid oid : oids) {
    Result<core::Value> v = heap.Get(oid);
    if (!v.ok()) return v.status();
    out.PutVarint(oid);
    serial::EncodeType(types::TypeOf(*v), &out);
    serial::EncodeValue(*v, &out);
  }
  return vfs->WriteFileAtomic(path, out);
}

Result<SnapshotStore::Image> SnapshotStore::Load(storage::Vfs* vfs,
                                                 const std::string& path) {
  DBPL_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, vfs->ReadFileBytes(path));
  ByteReader in(bytes.data(), bytes.size());
  DBPL_RETURN_IF_ERROR(serial::DecodeHeader(&in));
  Image image;
  DBPL_ASSIGN_OR_RETURN(uint64_t root_count, in.ReadVarint());
  for (uint64_t i = 0; i < root_count; ++i) {
    DBPL_ASSIGN_OR_RETURN(std::string name, in.ReadString());
    DBPL_ASSIGN_OR_RETURN(uint64_t oid, in.ReadVarint());
    image.roots.emplace(std::move(name), oid);
  }
  DBPL_ASSIGN_OR_RETURN(uint64_t object_count, in.ReadVarint());
  for (uint64_t i = 0; i < object_count; ++i) {
    DBPL_ASSIGN_OR_RETURN(uint64_t oid, in.ReadVarint());
    DBPL_ASSIGN_OR_RETURN(types::Type type, serial::DecodeType(&in));
    DBPL_ASSIGN_OR_RETURN(core::Value value, serial::DecodeValue(&in));
    (void)type;  // carried for self-description; the value is structural
    DBPL_RETURN_IF_ERROR(image.heap.AllocateWithOid(oid, std::move(value)));
  }
  if (!in.AtEnd()) return Status::Corruption("trailing bytes in image");
  // Every root must resolve.
  for (const auto& [name, oid] : image.roots) {
    if (!image.heap.Contains(oid)) {
      return Status::Corruption("root '" + name + "' points at missing object");
    }
  }
  return image;
}

Status SnapshotStore::SaveValue(storage::Vfs* vfs, const std::string& path,
                                const dyndb::Dynamic& d) {
  ByteBuffer out;
  serial::EncodeDynamic(d, &out);
  return vfs->WriteFileAtomic(path, out);
}

Result<dyndb::Dynamic> SnapshotStore::LoadValue(storage::Vfs* vfs,
                                                const std::string& path) {
  DBPL_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, vfs->ReadFileBytes(path));
  ByteReader in(bytes.data(), bytes.size());
  DBPL_ASSIGN_OR_RETURN(dyndb::Dynamic d, serial::DecodeDynamic(&in));
  if (!in.AtEnd()) return Status::Corruption("trailing bytes in value file");
  return d;
}

}  // namespace dbpl::persist
