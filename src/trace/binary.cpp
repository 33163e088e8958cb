#include "trace/binary.hpp"

#include "trace/binary_stream.hpp"
#include "trace/codec.hpp"
#include "trace/wire.hpp"
#include "util/error.hpp"

namespace craysim::trace {

using wire::put_u16;
using wire::put_u32;

// The compressed codec is the whole-trace view of the streaming state
// machines in binary_stream.hpp: one shared encoder/decoder pair means the
// framed stream's payload and these functions' output cannot drift apart.
std::vector<std::byte> encode_binary(const Trace& trace) {
  std::vector<std::byte> out;
  out.reserve(trace.size() * 24);
  BinaryRecordEncoder encoder;
  for (const TraceRecord& record : trace) encoder.encode_to(record, out);
  return out;
}

Trace decode_binary(std::span<const std::byte> data) {
  Trace trace;
  BinaryRecordDecoder decoder;
  std::size_t pos = 0;
  while (pos < data.size()) {
    auto [record, consumed] = decoder.decode(data.subspan(pos));
    pos += consumed;
    trace.push_back(record);
  }
  return trace;
}

std::vector<std::byte> encode_binary_struct_dump(const Trace& trace) {
  std::vector<std::byte> out;
  out.reserve(trace.size() * kStructDumpRecordBytes);
  bool has_previous = false;
  Ticks previous_start;
  auto put_u64 = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  };
  for (const TraceRecord& record : trace) {
    validate(record);
    if (record.is_comment()) continue;
    if (has_previous && record.start_time < previous_start) {
      throw TraceFormatError("records must be encoded in start-time order");
    }
    const Ticks start_delta =
        has_previous ? record.start_time - previous_start : record.start_time;
    put_u16(out, record.record_type);
    put_u16(out, 0);  // compression: nothing omitted in a struct dump
    put_u32(out, static_cast<std::uint64_t>(record.offset), "offset");
    put_u32(out, static_cast<std::uint64_t>(record.length), "length");
    put_u64(static_cast<std::uint64_t>(start_delta.count()));
    put_u64(static_cast<std::uint64_t>(record.completion_time.count()));
    put_u32(out, record.operation_id, "operationId");
    put_u32(out, record.file_id, "fileId");
    put_u32(out, record.process_id, "processId");
    put_u32(out, static_cast<std::uint64_t>(record.process_time.count()), "processTime");
    has_previous = true;
    previous_start = record.start_time;
  }
  return out;
}

Trace decode_binary_struct_dump(std::span<const std::byte> data) {
  if (data.size() % kStructDumpRecordBytes != 0) {
    throw TraceFormatError("struct-dump trace length is not a whole number of records");
  }
  Trace trace;
  wire::Cursor cursor(data);
  bool has_previous = false;
  Ticks previous_start;
  auto u64 = [&cursor]() {
    const std::uint64_t lo = cursor.u32();
    const std::uint64_t hi = cursor.u32();
    return lo | (hi << 32);
  };
  while (!cursor.done()) {
    TraceRecord record;
    record.record_type = cursor.u16();
    record.compression = cursor.u16();
    record.offset = static_cast<Bytes>(cursor.u32());
    record.length = static_cast<Bytes>(cursor.u32());
    const Ticks start_delta = Ticks(static_cast<std::int64_t>(u64()));
    record.completion_time = Ticks(static_cast<std::int64_t>(u64()));
    record.operation_id = cursor.u32();
    record.file_id = cursor.u32();
    record.process_id = cursor.u32();
    record.process_time = Ticks(cursor.u32());
    record.start_time = has_previous ? previous_start + start_delta : start_delta;
    validate(record);
    has_previous = true;
    previous_start = record.start_time;
    trace.push_back(record);
  }
  return trace;
}

FormatComparison compare_formats(const Trace& trace) {
  FormatComparison result;
  result.records = trace.size();
  result.ascii_bytes = serialize_trace(trace).size();
  result.binary_struct_bytes = encode_binary_struct_dump(trace).size();
  result.binary_compressed_bytes = encode_binary(trace).size();
  return result;
}

}  // namespace craysim::trace
