#include "serve/client.h"

namespace dbpl::serve {

Result<Client> Client::Connect(const std::string& host, uint16_t port) {
  DBPL_ASSIGN_OR_RETURN(Socket sock, ConnectTcp(host, port));
  return Client(std::move(sock));
}

Result<uint64_t> Client::Send(Request req) {
  req.id = next_id_++;
  ByteBuffer body;
  EncodeRequest(req, &body);
  ByteBuffer frame;
  // An unframeable (oversize) request surfaces here, before any bytes
  // reach the wire — the session stays usable.
  DBPL_RETURN_IF_ERROR(EncodeFrame(body, &frame));
  DBPL_RETURN_IF_ERROR(sock_.SendAll(frame.data(), frame.size()));
  outstanding_.push_back(req.id);
  return req.id;
}

Result<Response> Client::Await() {
  // Read the fixed header, let InspectFrame bound the claimed length,
  // read the body, then re-inspect the whole frame (CRC included).
  std::vector<uint8_t> frame(kFrameHeaderBytes);
  DBPL_RETURN_IF_ERROR(sock_.RecvAll(frame.data(), frame.size()));
  size_t total = 0;
  std::string error;
  FrameStatus fs = InspectFrame(frame.data(), frame.size(), &total, &error);
  if (fs == FrameStatus::kNeedMore) {
    frame.resize(total);
    DBPL_RETURN_IF_ERROR(sock_.RecvAll(frame.data() + kFrameHeaderBytes,
                                       total - kFrameHeaderBytes));
    fs = InspectFrame(frame.data(), total, &total, &error);
  }
  if (fs != FrameStatus::kFrame) {
    return Status::Corruption("response frame invalid: " + error);
  }
  DBPL_ASSIGN_OR_RETURN(Response resp,
                        DecodeResponse(frame.data() + kFrameHeaderBytes,
                                       total - kFrameHeaderBytes));
  if (resp.op == ReqOp::kNone) {
    // Server-initiated: answers no particular request (e.g. shed).
    return resp;
  }
  if (outstanding_.empty() || resp.id != outstanding_.front()) {
    return Status::Corruption(
        "response id " + std::to_string(resp.id) +
        " does not match the oldest outstanding request" +
        (outstanding_.empty() ? " (none outstanding)"
                              : " " + std::to_string(outstanding_.front())));
  }
  outstanding_.pop_front();
  return resp;
}

Result<Response> Client::Call(Request req) {
  DBPL_RETURN_IF_ERROR(Send(std::move(req)).status());
  return Await();
}

Status Client::Ping() {
  Request req;
  req.op = ReqOp::kPing;
  DBPL_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  return resp.status;
}

Result<dyndb::Database::EntryId> Client::Insert(const dyndb::Dynamic& entry) {
  Request req;
  req.op = ReqOp::kInsert;
  req.entry = entry;
  DBPL_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  DBPL_RETURN_IF_ERROR(resp.status);
  return resp.entry_id;
}

Result<dyndb::Dynamic> Client::Get(dyndb::Database::EntryId id) {
  Request req;
  req.op = ReqOp::kGet;
  req.entry_id = id;
  DBPL_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  DBPL_RETURN_IF_ERROR(resp.status);
  if (resp.entries.size() != 1) {
    return Status::Corruption("Get response carried " +
                              std::to_string(resp.entries.size()) +
                              " entries (expected 1)");
  }
  return std::move(resp.entries.front());
}

std::vector<core::Value> Client::ValuesOf(std::vector<dyndb::Dynamic> ds) {
  std::vector<core::Value> out;
  out.reserve(ds.size());
  for (dyndb::Dynamic& d : ds) out.push_back(std::move(d.value));
  return out;
}

Result<std::vector<core::Value>> Client::CallForValues(ReqOp op,
                                                       const types::Type& t) {
  Request req;
  req.op = op;
  req.type = t;
  DBPL_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  DBPL_RETURN_IF_ERROR(resp.status);
  return ValuesOf(std::move(resp.entries));
}

Result<std::vector<core::Value>> Client::GetScan(const types::Type& t) {
  return CallForValues(ReqOp::kGetScan, t);
}

Result<std::vector<core::Value>> Client::GetViaExtent(const types::Type& t) {
  return CallForValues(ReqOp::kGetViaExtent, t);
}

Result<std::vector<core::Value>> Client::GetViaIndex(const types::Type& t) {
  return CallForValues(ReqOp::kGetViaIndex, t);
}

Result<std::vector<dyndb::Dynamic>> Client::GetPackages(const types::Type& t) {
  Request req;
  req.op = ReqOp::kGetPackages;
  req.type = t;
  DBPL_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  DBPL_RETURN_IF_ERROR(resp.status);
  return std::move(resp.entries);
}

Status Client::RegisterExtent(const std::string& name, const types::Type& t) {
  Request req;
  req.op = ReqOp::kRegisterExtent;
  req.extent_name = name;
  req.type = t;
  DBPL_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  return resp.status;
}

Status Client::Commit() {
  Request req;
  req.op = ReqOp::kCommit;
  DBPL_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  return resp.status;
}

Result<Client::Info> Client::GetInfo() {
  Request req;
  req.op = ReqOp::kInfo;
  DBPL_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  DBPL_RETURN_IF_ERROR(resp.status);
  Info info;
  info.size = resp.size;
  info.epoch = resp.epoch;
  info.shards = resp.shards;
  return info;
}

Result<persist::WalShipper::ShipState> Client::ShipBounds() {
  Request req;
  req.op = ReqOp::kShipBounds;
  DBPL_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  DBPL_RETURN_IF_ERROR(resp.status);
  return std::move(resp.ship);
}

Result<Client::Chunk> Client::ReadChunk(ShipFile file, int shard,
                                        uint64_t offset, uint64_t length) {
  Request req;
  req.op = ReqOp::kReadChunk;
  req.file = file;
  req.shard = shard;
  req.offset = offset;
  req.length = length;
  DBPL_ASSIGN_OR_RETURN(Response resp, Call(std::move(req)));
  DBPL_RETURN_IF_ERROR(resp.status);
  // A chunk longer than asked for is a protocol violation (the frame
  // limit alone would let a hostile server answer an 8-byte read with
  // megabytes); refuse it before any caller trusts the size.
  if (resp.chunk.size() > length) {
    return Status::Corruption(
        "server answered a " + std::to_string(length) +
        "-byte chunk read with " + std::to_string(resp.chunk.size()) +
        " bytes");
  }
  Chunk chunk;
  chunk.file_size = resp.file_size;
  chunk.data = std::move(resp.chunk);
  return chunk;
}

}  // namespace dbpl::serve
