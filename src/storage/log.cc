#include "storage/log.h"

#include <vector>

#include "common/bytes.h"
#include "common/frame.h"

namespace dbpl::storage {
namespace {

/// Bytes PutVarint uses for `v` (LEB128: 7 payload bits per byte).
uint64_t VarintLen(uint64_t v) {
  uint64_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace

Result<std::unique_ptr<LogWriter>> LogWriter::Open(Vfs* vfs,
                                                   const std::string& path) {
  DBPL_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file,
                        vfs->Open(path, OpenMode::kAppend));
  DBPL_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  return std::unique_ptr<LogWriter>(new LogWriter(std::move(file), size));
}

Status LogWriter::Append(const LogRecord& record) {
  if (poisoned_) {
    return Status::FailedPrecondition(
        "log writer poisoned by an earlier I/O failure: a torn frame may "
        "sit mid-log, so further appends would be unreachable at recovery");
  }
  // Size check before any allocation or I/O: a record the reader's
  // sanity bound would classify as corruption must never be written.
  uint64_t body_size = 1 + VarintLen(record.key.size()) + record.key.size() +
                       VarintLen(record.value.size()) + record.value.size();
  if (body_size > kMaxLogRecordBody) {
    return Status::InvalidArgument(
        "log record body of " + std::to_string(body_size) +
        " bytes exceeds the " + std::to_string(kMaxLogRecordBody) +
        "-byte bound the reader accepts");
  }

  ByteBuffer body;
  body.PutU8(static_cast<uint8_t>(record.type));
  body.PutString(record.key);
  body.PutString(record.value);

  ByteBuffer frame;
  DBPL_RETURN_IF_ERROR(
      EncodeFrame(body.data(), body.size(), kMaxLogRecordBody, &frame));

  Status appended = file_->Append(frame.data(), frame.size());
  if (!appended.ok()) {
    poisoned_ = true;
    return appended;
  }
  bytes_written_ += frame.size();
  return Status::OK();
}

Status LogWriter::Sync() {
  if (poisoned_) {
    return Status::FailedPrecondition(
        "log writer poisoned by an earlier I/O failure");
  }
  Status synced = file_->Sync();
  if (!synced.ok()) poisoned_ = true;
  return synced;
}

Result<std::unique_ptr<LogReader>> LogReader::Open(Vfs* vfs,
                                                   const std::string& path) {
  return OpenAt(vfs, path, 0);
}

Result<std::unique_ptr<LogReader>> LogReader::OpenAt(Vfs* vfs,
                                                     const std::string& path,
                                                     uint64_t offset) {
  DBPL_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file,
                        vfs->Open(path, OpenMode::kRead));
  std::unique_ptr<LogReader> reader(new LogReader(std::move(file)));
  reader->offset_ = offset;
  return reader;
}

Result<bool> LogReader::Next(LogRecord* out) {
  if (done_) return false;
  // Read the header, let InspectFrame bound the claimed length, then
  // read the body and re-inspect the whole frame (CRC included). A
  // short read anywhere is a torn tail.
  frame_.resize(kFrameHeaderBytes);
  DBPL_ASSIGN_OR_RETURN(size_t n,
                        file_->ReadAt(offset_, frame_.data(), frame_.size()));
  if (n == 0) {
    done_ = true;
    return false;
  }
  size_t total = 0;
  FrameStatus fs =
      n < kFrameHeaderBytes
          ? FrameStatus::kBad
          : InspectFrame(frame_.data(), n, kMaxLogRecordBody, &total, nullptr);
  if (fs == FrameStatus::kNeedMore) {
    frame_.resize(total);
    DBPL_ASSIGN_OR_RETURN(
        size_t body_read,
        file_->ReadAt(offset_ + kFrameHeaderBytes,
                      frame_.data() + kFrameHeaderBytes,
                      total - kFrameHeaderBytes));
    fs = body_read < total - kFrameHeaderBytes
             ? FrameStatus::kBad
             : InspectFrame(frame_.data(), total, kMaxLogRecordBody, &total,
                            nullptr);
  }
  if (fs != FrameStatus::kFrame) {
    done_ = true;
    saw_corrupt_tail_ = true;
    return false;
  }
  // An empty body fails the type-byte read below: a length of 0 is a
  // frame the writer never produces.
  ByteReader reader(frame_.data() + kFrameHeaderBytes,
                    total - kFrameHeaderBytes);
  Result<uint8_t> type = reader.ReadU8();
  Result<std::string> key =
      type.ok() ? reader.ReadString() : Result<std::string>(type.status());
  Result<std::string> value =
      key.ok() ? reader.ReadString() : Result<std::string>(key.status());
  if (!value.ok() ||
      *type < static_cast<uint8_t>(LogRecordType::kPut) ||
      *type > static_cast<uint8_t>(LogRecordType::kCommit)) {
    done_ = true;
    saw_corrupt_tail_ = true;
    return false;
  }
  offset_ += total;
  out->type = static_cast<LogRecordType>(*type);
  out->key = std::move(key).value();
  out->value = std::move(value).value();
  return true;
}

}  // namespace dbpl::storage
