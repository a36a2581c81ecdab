#include "common/frame.h"

#include "common/crc32c.h"

namespace dbpl {

namespace {

uint32_t LoadU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

Status EncodeFrame(const uint8_t* body, size_t n, uint64_t max_body,
                   ByteBuffer* out) {
  if (n > max_body) {
    return Status::ResourceExhausted(
        "frame body of " + std::to_string(n) + " bytes exceeds the limit of " +
        std::to_string(max_body));
  }
  out->PutU32(MaskCrc(Crc32c(body, n)));
  out->PutU32(static_cast<uint32_t>(n));
  out->PutRaw(body, n);
  return Status::OK();
}

FrameStatus InspectFrame(const uint8_t* data, size_t n, uint64_t max_body,
                         size_t* total, std::string* error) {
  if (n < kFrameHeaderBytes) {
    *total = kFrameHeaderBytes;
    return FrameStatus::kNeedMore;
  }
  const uint32_t masked_crc = LoadU32Le(data);
  const uint32_t body_len = LoadU32Le(data + 4);
  if (body_len > max_body) {
    if (error != nullptr) {
      *error = "frame body length " + std::to_string(body_len) +
               " exceeds limit " + std::to_string(max_body);
    }
    return FrameStatus::kBad;
  }
  const size_t frame_total = kFrameHeaderBytes + body_len;
  if (n < frame_total) {
    *total = frame_total;
    return FrameStatus::kNeedMore;
  }
  if (MaskCrc(Crc32c(data + kFrameHeaderBytes, body_len)) != masked_crc) {
    if (error != nullptr) *error = "frame CRC mismatch";
    return FrameStatus::kBad;
  }
  *total = frame_total;
  return FrameStatus::kFrame;
}

}  // namespace dbpl
