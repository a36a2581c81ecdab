#include "serve/protocol.h"

#include <algorithm>
#include <cstring>

#include "serial/decoder.h"
#include "serial/encoder.h"

namespace dbpl::serve {

namespace {

bool KnownOp(uint8_t raw) {
  return raw >= static_cast<uint8_t>(ReqOp::kPing) &&
         raw <= static_cast<uint8_t>(ReqOp::kReadChunk);
}

/// True for the ops whose OK payload is a list of dynamics.
bool OpReturnsEntries(ReqOp op) {
  switch (op) {
    case ReqOp::kGet:
    case ReqOp::kGetScan:
    case ReqOp::kGetViaExtent:
    case ReqOp::kGetViaIndex:
    case ReqOp::kGetPackages:
      return true;
    default:
      return false;
  }
}

/// Reads and validates the shared `[version][op][id]` message prefix.
Status DecodePrefix(ByteReader* in, ReqOp* op, uint64_t* id,
                    bool allow_none) {
  DBPL_ASSIGN_OR_RETURN(uint8_t version, in->ReadU8());
  if (version != kProtocolVersion) {
    return Status::Unsupported("protocol version " + std::to_string(version) +
                               " (expected " +
                               std::to_string(kProtocolVersion) + ")");
  }
  DBPL_ASSIGN_OR_RETURN(uint8_t raw_op, in->ReadU8());
  if (!KnownOp(raw_op) &&
      !(allow_none && raw_op == static_cast<uint8_t>(ReqOp::kNone))) {
    return Status::InvalidArgument("unknown opcode " + std::to_string(raw_op));
  }
  *op = static_cast<ReqOp>(raw_op);
  DBPL_ASSIGN_OR_RETURN(*id, in->ReadU64());
  return Status::OK();
}

Status RequireDrained(const ByteReader& in, const char* what) {
  if (!in.AtEnd()) {
    return Status::InvalidArgument(
        std::string(what) + ": " + std::to_string(in.remaining()) +
        " trailing bytes after payload");
  }
  return Status::OK();
}

}  // namespace

std::string_view ReqOpName(ReqOp op) {
  switch (op) {
    case ReqOp::kNone:
      return "None";
    case ReqOp::kPing:
      return "Ping";
    case ReqOp::kInsert:
      return "Insert";
    case ReqOp::kGet:
      return "Get";
    case ReqOp::kGetScan:
      return "GetScan";
    case ReqOp::kGetViaExtent:
      return "GetViaExtent";
    case ReqOp::kGetViaIndex:
      return "GetViaIndex";
    case ReqOp::kGetPackages:
      return "GetPackages";
    case ReqOp::kRegisterExtent:
      return "RegisterExtent";
    case ReqOp::kCommit:
      return "Commit";
    case ReqOp::kInfo:
      return "Info";
    case ReqOp::kShipBounds:
      return "ShipBounds";
    case ReqOp::kReadChunk:
      return "ReadChunk";
  }
  return "Unknown";
}

void EncodeRequest(const Request& req, ByteBuffer* out) {
  out->PutU8(kProtocolVersion);
  out->PutU8(static_cast<uint8_t>(req.op));
  out->PutU64(req.id);
  switch (req.op) {
    case ReqOp::kInsert:
      serial::EncodeDynamic(req.entry, out);
      break;
    case ReqOp::kGet:
      out->PutVarint(req.entry_id);
      break;
    case ReqOp::kGetScan:
    case ReqOp::kGetViaExtent:
    case ReqOp::kGetViaIndex:
    case ReqOp::kGetPackages:
      serial::EncodeType(req.type, out);
      break;
    case ReqOp::kRegisterExtent:
      out->PutString(req.extent_name);
      serial::EncodeType(req.type, out);
      break;
    case ReqOp::kReadChunk:
      out->PutU8(static_cast<uint8_t>(req.file));
      out->PutVarint(static_cast<uint64_t>(req.shard));
      out->PutVarint(req.offset);
      out->PutVarint(req.length);
      break;
    default:
      break;  // kPing/kCommit/kInfo/kShipBounds carry no payload.
  }
}

Result<Request> DecodeRequest(const uint8_t* body, size_t n) {
  ByteReader in(body, n);
  Request req;
  DBPL_RETURN_IF_ERROR(DecodePrefix(&in, &req.op, &req.id,
                                    /*allow_none=*/false));
  switch (req.op) {
    case ReqOp::kInsert: {
      DBPL_ASSIGN_OR_RETURN(req.entry, serial::DecodeDynamic(&in));
      break;
    }
    case ReqOp::kGet: {
      DBPL_ASSIGN_OR_RETURN(req.entry_id, in.ReadVarint());
      break;
    }
    case ReqOp::kGetScan:
    case ReqOp::kGetViaExtent:
    case ReqOp::kGetViaIndex:
    case ReqOp::kGetPackages: {
      DBPL_ASSIGN_OR_RETURN(req.type, serial::DecodeType(&in));
      break;
    }
    case ReqOp::kRegisterExtent: {
      DBPL_ASSIGN_OR_RETURN(req.extent_name, in.ReadString());
      DBPL_ASSIGN_OR_RETURN(req.type, serial::DecodeType(&in));
      break;
    }
    case ReqOp::kReadChunk: {
      DBPL_ASSIGN_OR_RETURN(uint8_t kind, in.ReadU8());
      if (kind > static_cast<uint8_t>(ShipFile::kWalSegment)) {
        return Status::InvalidArgument("unknown shipping file kind " +
                                       std::to_string(kind));
      }
      req.file = static_cast<ShipFile>(kind);
      DBPL_ASSIGN_OR_RETURN(uint64_t shard, in.ReadVarint());
      if (shard >= static_cast<uint64_t>(dyndb::Database::kMaxShards)) {
        return Status::InvalidArgument("shipping shard " +
                                       std::to_string(shard) +
                                       " out of range");
      }
      req.shard = static_cast<int>(shard);
      DBPL_ASSIGN_OR_RETURN(req.offset, in.ReadVarint());
      DBPL_ASSIGN_OR_RETURN(req.length, in.ReadVarint());
      if (req.length > kMaxReadChunk) {
        return Status::InvalidArgument(
            "chunk length " + std::to_string(req.length) + " exceeds limit " +
            std::to_string(kMaxReadChunk));
      }
      break;
    }
    default:
      break;
  }
  DBPL_RETURN_IF_ERROR(RequireDrained(in, "request"));
  return req;
}

void EncodeResponse(const Response& resp, ByteBuffer* out) {
  out->PutU8(kProtocolVersion);
  out->PutU8(static_cast<uint8_t>(resp.op));
  out->PutU64(resp.id);
  out->PutU8(WireCodeOf(resp.status.code()));
  out->PutString(resp.status.message());
  if (!resp.status.ok()) return;  // errors carry no payload
  if (resp.op == ReqOp::kInsert) {
    out->PutVarint(resp.entry_id);
  } else if (OpReturnsEntries(resp.op)) {
    out->PutVarint(resp.entries.size());
    for (const dyndb::Dynamic& d : resp.entries) {
      serial::EncodeDynamic(d, out);
    }
  } else if (resp.op == ReqOp::kInfo) {
    out->PutVarint(resp.size);
    out->PutVarint(resp.epoch);
    out->PutVarint(static_cast<uint64_t>(resp.shards));
  } else if (resp.op == ReqOp::kShipBounds) {
    out->PutVarint(resp.ship.generation);
    out->PutVarint(resp.ship.shards.size());
    for (const persist::WalShipper::Bounds& b : resp.ship.shards) {
      out->PutVarint(b.durable_bytes);
      out->PutVarint(b.epoch);
    }
  } else if (resp.op == ReqOp::kReadChunk) {
    out->PutVarint(resp.file_size);
    out->PutString(resp.chunk);
  }
}

Result<Response> DecodeResponse(const uint8_t* body, size_t n) {
  ByteReader in(body, n);
  Response resp;
  DBPL_RETURN_IF_ERROR(DecodePrefix(&in, &resp.op, &resp.id,
                                    /*allow_none=*/true));
  DBPL_ASSIGN_OR_RETURN(uint8_t wire_code, in.ReadU8());
  DBPL_ASSIGN_OR_RETURN(std::string message, in.ReadString());
  StatusCode code = CodeFromWire(wire_code);
  resp.status = code == StatusCode::kOk ? Status::OK()
                                        : Status(code, std::move(message));
  if (!resp.status.ok()) {
    DBPL_RETURN_IF_ERROR(RequireDrained(in, "response"));
    return resp;
  }
  if (resp.op == ReqOp::kInsert) {
    DBPL_ASSIGN_OR_RETURN(resp.entry_id, in.ReadVarint());
  } else if (OpReturnsEntries(resp.op)) {
    DBPL_ASSIGN_OR_RETURN(uint64_t count, in.ReadVarint());
    // Each dynamic consumes bytes or fails, so a hostile count cannot
    // loop past the buffer; only the reservation must not trust it.
    resp.entries.reserve(
        static_cast<size_t>(std::min<uint64_t>(count, in.remaining())));
    for (uint64_t i = 0; i < count; ++i) {
      DBPL_ASSIGN_OR_RETURN(dyndb::Dynamic d, serial::DecodeDynamic(&in));
      resp.entries.push_back(std::move(d));
    }
  } else if (resp.op == ReqOp::kInfo) {
    DBPL_ASSIGN_OR_RETURN(resp.size, in.ReadVarint());
    DBPL_ASSIGN_OR_RETURN(resp.epoch, in.ReadVarint());
    DBPL_ASSIGN_OR_RETURN(uint64_t shards, in.ReadVarint());
    if (shards < 1 ||
        shards > static_cast<uint64_t>(dyndb::Database::kMaxShards)) {
      return Status::Corruption("response shard count " +
                                std::to_string(shards) + " out of range");
    }
    resp.shards = static_cast<int>(shards);
  } else if (resp.op == ReqOp::kShipBounds) {
    DBPL_ASSIGN_OR_RETURN(resp.ship.generation, in.ReadVarint());
    DBPL_ASSIGN_OR_RETURN(uint64_t count, in.ReadVarint());
    if (count > static_cast<uint64_t>(dyndb::Database::kMaxShards)) {
      return Status::Corruption("ship-bounds shard count " +
                                std::to_string(count) + " out of range");
    }
    resp.ship.shards.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      persist::WalShipper::Bounds b;
      DBPL_ASSIGN_OR_RETURN(b.durable_bytes, in.ReadVarint());
      DBPL_ASSIGN_OR_RETURN(b.epoch, in.ReadVarint());
      resp.ship.shards.push_back(b);
    }
  } else if (resp.op == ReqOp::kReadChunk) {
    DBPL_ASSIGN_OR_RETURN(resp.file_size, in.ReadVarint());
    DBPL_ASSIGN_OR_RETURN(resp.chunk, in.ReadString());
  }
  DBPL_RETURN_IF_ERROR(RequireDrained(in, "response"));
  return resp;
}

uint8_t WireCodeOf(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 1;
    case StatusCode::kNotFound:
      return 2;
    case StatusCode::kAlreadyExists:
      return 3;
    case StatusCode::kInconsistent:
      return 4;
    case StatusCode::kTypeError:
      return 5;
    case StatusCode::kCorruption:
      return 6;
    case StatusCode::kIoError:
      return 7;
    case StatusCode::kUnsupported:
      return 8;
    case StatusCode::kFailedPrecondition:
      return 9;
    case StatusCode::kDeadlineExceeded:
      return 10;
    case StatusCode::kInternal:
      return 11;
    case StatusCode::kUnavailable:
      return 12;
    case StatusCode::kResourceExhausted:
      return 13;
  }
  return 11;  // out-of-enum input: report as Internal
}

StatusCode CodeFromWire(uint8_t wire) {
  switch (wire) {
    case 0:
      return StatusCode::kOk;
    case 1:
      return StatusCode::kInvalidArgument;
    case 2:
      return StatusCode::kNotFound;
    case 3:
      return StatusCode::kAlreadyExists;
    case 4:
      return StatusCode::kInconsistent;
    case 5:
      return StatusCode::kTypeError;
    case 6:
      return StatusCode::kCorruption;
    case 7:
      return StatusCode::kIoError;
    case 8:
      return StatusCode::kUnsupported;
    case 9:
      return StatusCode::kFailedPrecondition;
    case 10:
      return StatusCode::kDeadlineExceeded;
    case 11:
      return StatusCode::kInternal;
    case 12:
      return StatusCode::kUnavailable;
    case 13:
      return StatusCode::kResourceExhausted;
    default:
      return StatusCode::kInternal;
  }
}

}  // namespace dbpl::serve
