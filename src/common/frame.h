#ifndef DBPL_COMMON_FRAME_H_
#define DBPL_COMMON_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace dbpl {

// The one CRC frame shared by the write-ahead log at rest
// (storage/log.h) and the wire protocol in flight (serve/protocol.h):
//
//   [u32 masked crc32c(body)] [u32 body length] [body bytes]
//
// Both header words are little-endian; the CRC is masked with the
// LevelDB rotation (common/crc32c.h) so a frame storing its own CRC
// has no fixed point. Each user bounds the body with its own limit
// (storage::kMaxLogRecordBody, serve::kMaxFrameBody): a length above
// it is rejected from the 8-byte header alone, so a torn or hostile
// length field can never drive an allocation.

/// Frame header: masked CRC + body length, both u32 little-endian.
inline constexpr size_t kFrameHeaderBytes = 8;

/// Appends `body[0..n)` to `out` as one frame. A body larger than
/// `max_body` is refused with kResourceExhausted and `out` is left
/// untouched: the reader would reject the frame as corrupt (and a
/// ≥ 4 GiB body would silently truncate its u32 length word into a
/// CRC-valid lie), so the caller must handle the oversize instead.
Status EncodeFrame(const uint8_t* body, size_t n, uint64_t max_body,
                   ByteBuffer* out);

/// Outcome of inspecting a byte window's head for one frame.
enum class FrameStatus : uint8_t {
  /// A whole, CRC-valid frame is present.
  kFrame,
  /// The buffer holds a frame prefix; read more bytes.
  kNeedMore,
  /// The header claims a body over the limit or the CRC does not
  /// match — framing is lost for good.
  kBad,
};

/// Inspects the start of `data` for one complete frame whose body is
/// at most `max_body` bytes, without consuming anything.
///
///  * kFrame:    `*total` = the frame's full size (header + body); its
///               body is `data + kFrameHeaderBytes .. data + *total`.
///  * kNeedMore: `*total` = total bytes needed before re-inspecting
///               (kFrameHeaderBytes until the header is complete).
///  * kBad:      `*error` (when non-null) names the violation; `*total`
///               is unchanged.
///
/// Never allocates and never trusts the length field beyond bounding
/// it, so hostile headers cost O(1) to reject.
FrameStatus InspectFrame(const uint8_t* data, size_t n, uint64_t max_body,
                         size_t* total, std::string* error);

}  // namespace dbpl

#endif  // DBPL_COMMON_FRAME_H_
