#ifndef DBPL_SERVE_PROTOCOL_H_
#define DBPL_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/frame.h"
#include "common/result.h"
#include "common/status.h"
#include "dyndb/database.h"
#include "dyndb/dynamic.h"
#include "persist/wal_database.h"
#include "types/type.h"

namespace dbpl::serve {

// The dbpl-serve wire protocol: length-prefixed, CRC-framed binary
// messages whose payloads reuse the serial layer's self-describing
// encoding (serial::EncodeDynamic — value and type travel together,
// the paper's P2 lifted onto the wire, so a client can never desync
// from schema evolution).
//
// ## Frame layout
//
//   [u32 masked crc32c(body)] [u32 body length] [body bytes]
//
// The shared CRC frame of common/frame.h — byte for byte the framing
// of a WAL record at rest. On the wire the body length is bounded by
// kMaxFrameBody: a peer claiming more is a protocol violation,
// detected from the 8-byte header alone — a hostile length can never
// drive an allocation.
//
// ## Message bodies
//
//   request  := [u8 version] [u8 op] [u64 request id] [payload]
//   response := [u8 version] [u8 op] [u64 request id]
//               [u8 status code] [string message] [payload if OK]
//
// Request ids are chosen by the client and echoed verbatim; a client
// may pipeline any number of requests, and the server answers each
// session's requests strictly in arrival order. Server-initiated
// errors that answer no particular request (admission-control sheds,
// unparseable requests) use op kNone and id 0.
//
// Status travels as an explicit one-byte code (WireCodeOf /
// CodeFromWire) rather than the enum's integer value, so reordering
// dbpl::StatusCode never silently changes the wire format.

/// Protocol version; bumped on incompatible changes. A peer speaking
/// an unknown version is answered with kUnsupported and disconnected.
inline constexpr uint8_t kProtocolVersion = 1;

using dbpl::FrameStatus;
using dbpl::kFrameHeaderBytes;

/// Upper bound on a frame body. Chosen to fit any plausible request
/// (a single entry or a modest result set) while keeping a hostile
/// length field from committing the peer to a giant read.
inline constexpr uint64_t kMaxFrameBody = 1ull << 24;

/// Largest chunk a kReadChunk request may ask for: the frame body
/// limit minus generous slack for the response envelope (prefix,
/// status, file size, chunk length prefix), so a maximal chunk can
/// always be answered within one legal frame.
inline constexpr uint64_t kMaxReadChunk = kMaxFrameBody - 64;

/// Request opcodes. Values are wire format — append, never renumber.
enum class ReqOp : uint8_t {
  /// No request: the op echoed on server-initiated error responses.
  kNone = 0,
  kPing = 1,
  kInsert = 2,
  kGet = 3,
  kGetScan = 4,
  kGetViaExtent = 5,
  kGetViaIndex = 6,
  kGetPackages = 7,
  kRegisterExtent = 8,
  kCommit = 9,
  kInfo = 10,
  /// WAL shipping (DESIGN.md §9.3): the primary's current
  /// WalShipper::ShipState — generation plus one (durable bytes,
  /// epoch) bound per shard segment. No request payload.
  kShipBounds = 11,
  /// WAL shipping: a ranged read of ≤ kMaxReadChunk bytes from one of
  /// the primary's shipping files, identified by (kind, shard) — never
  /// by a path string, so a hostile client cannot name arbitrary
  /// files. The response carries the file's current size plus the
  /// bytes actually available at the offset (short or empty at EOF,
  /// mirroring VfsFile::ReadAt).
  kReadChunk = 12,
};

/// The files kReadChunk can address, scoped to the served database's
/// directory by construction.
enum class ShipFile : uint8_t {
  kCheckpoint = 0,
  /// The per-shard WAL segment named by Request::shard.
  kWalSegment = 1,
};

/// Human-readable opcode name (for error messages and logs).
std::string_view ReqOpName(ReqOp op);

/// One decoded request. Which fields are meaningful depends on `op`:
/// kInsert uses `entry`; kGet uses `entry_id`; the four Get-strategy
/// ops use `type`; kRegisterExtent uses `extent_name` + `type`;
/// kReadChunk uses `file` + `shard` + `offset` + `length`.
struct Request {
  uint64_t id = 0;
  ReqOp op = ReqOp::kPing;
  dyndb::Dynamic entry;
  dyndb::Database::EntryId entry_id = 0;
  types::Type type;
  std::string extent_name;
  /// kReadChunk: which shipping file, which shard (segments only),
  /// and the byte range requested (length ≤ kMaxReadChunk).
  ShipFile file = ShipFile::kCheckpoint;
  int shard = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// One decoded response. `status` carries the operation's outcome;
/// payload fields are meaningful only when it is OK: kInsert fills
/// `entry_id`; kGet and the Get-strategy ops fill `entries` (each a
/// self-describing dynamic); kInfo fills `size`/`epoch`/`shards`.
struct Response {
  uint64_t id = 0;
  ReqOp op = ReqOp::kNone;
  Status status;
  dyndb::Database::EntryId entry_id = 0;
  std::vector<dyndb::Dynamic> entries;
  uint64_t size = 0;
  uint64_t epoch = 0;
  int shards = 1;
  /// kShipBounds: the primary's shippable state verbatim.
  persist::WalShipper::ShipState ship;
  /// kReadChunk: the file's size at read time, and the bytes available
  /// in the requested range (short or empty at EOF).
  uint64_t file_size = 0;
  std::string chunk;
};

/// Appends the body encoding of a request/response (no frame header).
void EncodeRequest(const Request& req, ByteBuffer* out);
void EncodeResponse(const Response& resp, ByteBuffer* out);

/// Decodes one message body (the bytes between frame headers). Total:
/// any input yields a value or a non-OK status, never a crash — these
/// are the surfaces tests/fuzz/fuzz_serve_frame.cc feeds hostile bytes.
Result<Request> DecodeRequest(const uint8_t* body, size_t n);
Result<Response> DecodeResponse(const uint8_t* body, size_t n);

/// Wraps a message body in a wire frame (common/frame.h). A body
/// larger than kMaxFrameBody is refused with kResourceExhausted and
/// `out` is left untouched, so the oversize can be answered in-band
/// instead of framed.
inline Status EncodeFrame(const ByteBuffer& body, ByteBuffer* out) {
  return dbpl::EncodeFrame(body.data(), body.size(), kMaxFrameBody, out);
}

/// Inspects the start of `data` for one complete wire frame
/// (dbpl::InspectFrame with the kMaxFrameBody limit).
inline FrameStatus InspectFrame(const uint8_t* data, size_t n, size_t* total,
                                std::string* error) {
  return dbpl::InspectFrame(data, n, kMaxFrameBody, total, error);
}

/// Status code <-> stable wire byte. Unknown wire bytes decode as
/// kInternal (a peer newer than us reported something we cannot
/// classify; treating it as a bug report is the conservative reading).
uint8_t WireCodeOf(StatusCode code);
StatusCode CodeFromWire(uint8_t wire);

}  // namespace dbpl::serve

#endif  // DBPL_SERVE_PROTOCOL_H_
