#include "trace/binary_stream.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "trace/wire.hpp"
#include "util/error.hpp"

namespace craysim::trace {

using wire::put_u16;
using wire::put_u32;

bool starts_with_binary_magic(std::span<const std::byte> data) {
  return data.size() >= kBinaryTraceMagic.size() &&
         std::memcmp(data.data(), kBinaryTraceMagic.data(), kBinaryTraceMagic.size()) == 0;
}

bool starts_with_binary_magic(std::string_view text) {
  return starts_with_binary_magic(
      std::span(reinterpret_cast<const std::byte*>(text.data()), text.size()));
}

// ---------------------------------------------------------------------------
// Per-record state machines.
// ---------------------------------------------------------------------------

bool BinaryRecordEncoder::encode_to(const TraceRecord& record, std::vector<std::byte>& out) {
  validate(record);
  if (record.is_comment()) return false;  // binary dumps carried no comments
  if (table_.has_previous() && record.start_time < table_.previous_start()) {
    throw TraceFormatError("records must be encoded in start-time order");
  }

  const CompressedFields f = table_.compress(record);
  put_u16(out, record.record_type);
  put_u16(out, f.compression);
  if (!(f.compression & kNoOffset)) put_u32(out, static_cast<std::uint64_t>(f.offset), "offset");
  if (!(f.compression & kNoLength)) put_u32(out, static_cast<std::uint64_t>(f.length), "length");
  put_u32(out, static_cast<std::uint64_t>(f.start_delta.count()), "startTime");
  put_u32(out, static_cast<std::uint64_t>(record.completion_time.count()), "completionTime");
  if (!(f.compression & kNoOperationId)) put_u32(out, record.operation_id, "operationId");
  if (!(f.compression & kNoFileId)) put_u32(out, record.file_id, "fileId");
  if (!(f.compression & kNoProcessId)) put_u32(out, record.process_id, "processId");
  put_u32(out, static_cast<std::uint64_t>(record.process_time.count()), "processTime");

  table_.commit(record, f.last_file, f.state);
  return true;
}

BinaryRecordDecoder::Decoded BinaryRecordDecoder::decode(std::span<const std::byte> data) {
  wire::Cursor cursor(data);
  TraceRecord record;
  record.record_type = cursor.u16();
  const std::uint16_t c = cursor.u16();
  record.compression = c;

  std::optional<Bytes> offset_field;
  if (!(c & kNoOffset)) {
    Bytes v = cursor.u32();
    if (c & kOffsetInBlocks) v *= kTraceBlockSize;
    offset_field = v;
  }
  std::optional<Bytes> length_field;
  if (!(c & kNoLength)) {
    Bytes v = cursor.u32();
    if (c & kLengthInBlocks) v *= kTraceBlockSize;
    length_field = v;
  }
  const Ticks start_delta = Ticks(cursor.u32());
  record.completion_time = Ticks(cursor.u32());
  std::optional<std::uint32_t> op_field;
  if (!(c & kNoOperationId)) op_field = cursor.u32();
  std::optional<std::uint32_t> file_field;
  if (!(c & kNoFileId)) file_field = cursor.u32();
  std::optional<std::uint32_t> pid_field;
  if (!(c & kNoProcessId)) pid_field = cursor.u32();
  record.process_time = Ticks(cursor.u32());

  if (pid_field) {
    record.process_id = *pid_field;
  } else if (table_.has_previous()) {
    record.process_id = table_.previous_process();
  } else {
    throw TraceFormatError("binary: TRACE_NO_PROCESSID on first record");
  }
  std::uint32_t* last_file = nullptr;
  if (file_field) {
    record.file_id = *file_field;
  } else {
    last_file = table_.last_file(record.process_id);
    if (last_file == nullptr) {
      throw TraceFormatError("binary: TRACE_NO_FILEID with no prior record for process");
    }
    record.file_id = *last_file;
  }
  FileFieldState* state = table_.file_state(record.process_id, record.file_id);
  if (op_field) {
    record.operation_id = *op_field;
  } else if (state != nullptr && state->has_operation) {
    record.operation_id = state->last_operation_id;
  } else {
    throw TraceFormatError("binary: TRACE_NO_OPERATIONID with no prior record for file");
  }
  if (offset_field) {
    record.offset = *offset_field;
  } else if (state != nullptr) {
    record.offset = state->next_sequential_offset;
  } else {
    throw TraceFormatError("binary: TRACE_NO_BLOCK with no prior access to file");
  }
  if (length_field) {
    record.length = *length_field;
  } else if (state != nullptr && state->last_length >= 0) {
    record.length = state->last_length;
  } else {
    throw TraceFormatError("binary: TRACE_NO_LENGTH with no prior access to file");
  }
  record.start_time =
      table_.has_previous() ? table_.previous_start() + start_delta : start_delta;
  validate(record);

  table_.commit(record, last_file, state);
  return {record, cursor.consumed()};
}

// ---------------------------------------------------------------------------
// Framed streaming writer/reader.
// ---------------------------------------------------------------------------

BinaryTraceWriter::BinaryTraceWriter(std::ostream& out) : out_(&out) {
  scratch_.reserve(kMaxBinaryRecordBytes);
  std::vector<std::byte> header(kBinaryTraceMagic.begin(), kBinaryTraceMagic.end());
  put_u16(header, kBinaryTraceVersion);
  put_u16(header, 0);  // flags, reserved
  out_->write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
  if (!*out_) throw Error("binary trace: header write failed");
}

void BinaryTraceWriter::write(const TraceRecord& record) {
  scratch_.clear();
  if (!encoder_.encode_to(record, scratch_)) return;  // comment: dropped
  out_->write(reinterpret_cast<const char*>(scratch_.data()),
              static_cast<std::streamsize>(scratch_.size()));
  if (!*out_) throw Error("binary trace: record write failed");
  ++records_written_;
}

void BinaryTraceReader::check_header(std::span<const std::byte> header) {
  if (header.size() < kBinaryFrameHeaderBytes || !starts_with_binary_magic(header)) {
    throw TraceFormatError("not a framed binary trace (bad magic)");
  }
  wire::Cursor cursor(header.subspan(kBinaryTraceMagic.size()));
  const std::uint16_t version = cursor.u16();
  const std::uint16_t flags = cursor.u16();
  if (version != kBinaryTraceVersion) {
    throw TraceFormatError("unsupported binary trace version " + std::to_string(version));
  }
  if (flags != 0) {
    throw TraceFormatError("binary trace: reserved header flags set");
  }
}

BinaryTraceReader::BinaryTraceReader(std::istream& in) : in_(&in) {
  // Refill window: large enough that almost every next() decodes straight
  // from the buffer, small enough that peak memory is trivially bounded.
  buffer_.resize(std::size_t{64} * 1024);
  in_->read(reinterpret_cast<char*>(buffer_.data()),
            static_cast<std::streamsize>(buffer_.size()));
  buf_end_ = static_cast<std::size_t>(in_->gcount());
  eof_ = buf_end_ < buffer_.size();
  check_header(std::span(buffer_.data(), buf_end_));
  buf_pos_ = kBinaryFrameHeaderBytes;
}

BinaryTraceReader::BinaryTraceReader(std::span<const std::byte> data) : data_(data) {
  check_header(data_);
  pos_ = kBinaryFrameHeaderBytes;
}

std::span<const std::byte> BinaryTraceReader::available() {
  if (in_ == nullptr) return data_.subspan(pos_);
  if (!eof_ && buf_end_ - buf_pos_ < kMaxBinaryRecordBytes) {
    // Slide the unconsumed tail to the front and top the window back up.
    std::memmove(buffer_.data(), buffer_.data() + buf_pos_, buf_end_ - buf_pos_);
    buf_end_ -= buf_pos_;
    buf_pos_ = 0;
    in_->read(reinterpret_cast<char*>(buffer_.data() + buf_end_),
              static_cast<std::streamsize>(buffer_.size() - buf_end_));
    const auto got = static_cast<std::size_t>(in_->gcount());
    buf_end_ += got;
    if (got == 0 || buf_end_ < buffer_.size()) eof_ = in_->eof() || got == 0;
    if (in_->bad()) throw Error("binary trace: read failed");
  }
  return std::span(buffer_.data() + buf_pos_, buf_end_ - buf_pos_);
}

std::optional<TraceRecord> BinaryTraceReader::next() {
  const std::span<const std::byte> bytes = available();
  if (bytes.empty()) return std::nullopt;  // clean end of stream
  // A partial record here means the file genuinely ends mid-record: the
  // buffer was topped up past the watermark, so the decoder's truncation
  // throw is authoritative.
  auto [record, consumed] = decoder_.decode(bytes);
  if (in_ == nullptr) {
    pos_ += consumed;
  } else {
    buf_pos_ += consumed;
  }
  ++records_read_;
  return record;
}

// ---------------------------------------------------------------------------
// File helpers.
// ---------------------------------------------------------------------------

void save_trace_binary(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open for writing: " + path);
  BinaryTraceWriter writer(out);
  for (const auto& record : trace) writer.write(record);
  out.flush();
  if (!out) throw Error("write failed: " + path);
}

Trace load_trace_binary(const std::string& path) {
  const auto source = open_record_stream(path, {.format = TraceFormat::kBinary});
  Trace trace;
  while (auto record = source->next()) trace.push_back(*record);
  return trace;
}

}  // namespace craysim::trace
