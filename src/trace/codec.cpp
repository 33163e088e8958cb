#include "trace/codec.hpp"

#include <array>
#include <charconv>

#include "util/error.hpp"
#include "util/text.hpp"

namespace craysim::trace {
namespace {

void append_int(std::string& out, std::int64_t value) {
  if (!out.empty()) out += ' ';
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;
  out.append(buf, ptr);
}

/// Walks the space-delimited tokens of a line in place — the zero-copy
/// replacement for split(), which materialized a vector of views per record
/// on the decode hot path. Runs of spaces count as one delimiter, matching
/// split()'s empty-token dropping.
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view text) : text_(text) {}

  /// Returns the next token, or nullopt when the line is exhausted.
  std::optional<std::string_view> next() {
    while (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
    if (pos_ >= text_.size()) return std::nullopt;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ' ') ++pos_;
    return text_.substr(start, pos_ - start);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string AsciiTraceEncoder::encode(const TraceRecord& record) {
  validate(record);
  if (record.is_comment()) {
    throw TraceFormatError("use encode_comment for comment records");
  }
  if (has_previous_ && record.start_time < previous_start_) {
    throw TraceFormatError("records must be encoded in start-time order");
  }

  std::uint16_t compression = 0;
  const std::uint64_t key = FileFieldState::key_of(record.process_id, record.file_id);

  const bool omit_pid = has_previous_ && record.process_id == last_process_id_;
  if (omit_pid) compression |= kNoProcessId;

  const auto file_it = last_file_by_process_.find(record.process_id);
  const bool omit_file =
      file_it != last_file_by_process_.end() && file_it->second == record.file_id;
  if (omit_file) compression |= kNoFileId;

  const auto state_it = file_states_.find(key);
  const FileFieldState* state = state_it != file_states_.end() ? &state_it->second : nullptr;

  const bool omit_op =
      state != nullptr && state->has_operation && state->last_operation_id == record.operation_id;
  if (omit_op) compression |= kNoOperationId;

  const bool omit_offset = state != nullptr && record.offset == state->next_sequential_offset;
  if (omit_offset) compression |= kNoOffset;

  const bool omit_length = state != nullptr && record.length == state->last_length;
  if (omit_length) compression |= kNoLength;

  Bytes offset_value = record.offset;
  if (!omit_offset && offset_value != 0 && offset_value % kTraceBlockSize == 0) {
    compression |= kOffsetInBlocks;
    offset_value /= kTraceBlockSize;
  }
  Bytes length_value = record.length;
  if (!omit_length && length_value != 0 && length_value % kTraceBlockSize == 0) {
    compression |= kLengthInBlocks;
    length_value /= kTraceBlockSize;
  }

  const Ticks start_delta = has_previous_ ? record.start_time - previous_start_
                                          : record.start_time;

  std::string line;
  append_int(line, record.record_type);
  append_int(line, compression);
  if (!omit_offset) append_int(line, offset_value);
  if (!omit_length) append_int(line, length_value);
  append_int(line, start_delta.count());
  append_int(line, record.completion_time.count());
  if (!omit_op) append_int(line, record.operation_id);
  if (!omit_file) append_int(line, record.file_id);
  if (!omit_pid) append_int(line, record.process_id);
  append_int(line, record.process_time.count());

  // Update relative-field state.
  has_previous_ = true;
  previous_start_ = record.start_time;
  last_process_id_ = record.process_id;
  last_file_by_process_[record.process_id] = record.file_id;
  file_states_[key].advance(record);
  return line;
}

std::string AsciiTraceEncoder::encode_comment(std::string_view text) const {
  std::string line = std::to_string(kTraceComment);
  line += ' ';
  for (char c : text) {
    if (c != '\n' && c != '\r') line += c;
  }
  return line;
}

void AsciiTraceEncoder::reset() {
  has_previous_ = false;
  previous_start_ = Ticks::zero();
  last_process_id_ = 0;
  last_file_by_process_.clear();
  file_states_.clear();
}

std::optional<TraceRecord> AsciiTraceDecoder::decode_line(std::string_view line) {
  const std::string_view trimmed = trim(line);
  if (trimmed.empty()) return std::nullopt;

  // Fast path for the comment marker so free text is not tokenized.
  const std::size_t first_space = trimmed.find(' ');
  const std::string_view first_tok =
      first_space == std::string_view::npos ? trimmed : trimmed.substr(0, first_space);
  const auto type_value = parse_uint(first_tok);
  if (!type_value) throw TraceFormatError("unparseable record type: '" + std::string(first_tok) + "'");
  if (*type_value > 0xffff) throw TraceFormatError("record type out of range");
  if (*type_value == kTraceComment) {
    last_comment_ = first_space == std::string_view::npos
                        ? std::string()
                        : std::string(trim(trimmed.substr(first_space)));
    ++comment_count_;
    return std::nullopt;
  }

  TokenCursor cursor(trimmed);
  (void)cursor.next();  // token 0 is the record type, already parsed above
  // Magnitude bound on every value field: 2^50 bytes (1 PiB) / ticks (~350
  // years). Far beyond any real trace, but small enough that the block-size
  // rescale and running start-time sum below can never overflow int64 on
  // hostile input.
  constexpr std::int64_t kFieldLimit = std::int64_t{1} << 50;
  auto next_int = [&](const char* field) -> std::int64_t {
    const auto token = cursor.next();
    if (!token) {
      throw TraceFormatError(std::string("missing field '") + field + "' in: " +
                             std::string(trimmed));
    }
    const auto v = parse_int(*token);
    if (!v) {
      throw TraceFormatError(std::string("unparseable field '") + field + "': " +
                             std::string(*token));
    }
    if (*v > kFieldLimit || *v < -kFieldLimit) {
      throw TraceFormatError(std::string("field '") + field + "' out of range: " +
                             std::string(*token));
    }
    return *v;
  };

  TraceRecord record;
  record.record_type = static_cast<std::uint16_t>(*type_value);

  const std::int64_t comp = next_int("compression");
  if (comp < 0 || comp > 0xffff) throw TraceFormatError("compression flags out of range");
  record.compression = static_cast<std::uint16_t>(comp);
  const std::uint16_t c = record.compression;

  std::optional<Bytes> offset_field;
  if (!(c & kNoOffset)) {
    Bytes v = next_int("offset");
    if (c & kOffsetInBlocks) v *= kTraceBlockSize;
    offset_field = v;
  } else if (c & kOffsetInBlocks) {
    throw TraceFormatError("TRACE_OFFSET_IN_BLOCKS set on a record without an offset field");
  }

  std::optional<Bytes> length_field;
  if (!(c & kNoLength)) {
    Bytes v = next_int("length");
    if (c & kLengthInBlocks) v *= kTraceBlockSize;
    length_field = v;
  } else if (c & kLengthInBlocks) {
    throw TraceFormatError("TRACE_LENGTH_IN_BLOCKS set on a record without a length field");
  }

  const Ticks start_delta = Ticks(next_int("startTime"));
  record.completion_time = Ticks(next_int("completionTime"));

  std::optional<std::uint32_t> op_field;
  if (!(c & kNoOperationId)) {
    const std::int64_t v = next_int("operationId");
    if (v < 0 || v > UINT32_MAX) throw TraceFormatError("operationId out of range");
    op_field = static_cast<std::uint32_t>(v);
  }
  std::optional<std::uint32_t> file_field;
  if (!(c & kNoFileId)) {
    const std::int64_t v = next_int("fileId");
    if (v < 0 || v > UINT32_MAX) throw TraceFormatError("fileId out of range");
    file_field = static_cast<std::uint32_t>(v);
  }
  std::optional<std::uint32_t> pid_field;
  if (!(c & kNoProcessId)) {
    const std::int64_t v = next_int("processId");
    if (v < 0 || v > UINT32_MAX) throw TraceFormatError("processId out of range");
    pid_field = static_cast<std::uint32_t>(v);
  }
  record.process_time = Ticks(next_int("processTime"));
  if (cursor.next()) {
    throw TraceFormatError("trailing fields in record: " + std::string(trimmed));
  }

  // Resolve identity fields in dependency order: pid -> fileId -> file state.
  if (pid_field) {
    record.process_id = *pid_field;
  } else {
    if (!has_last_process_) throw TraceFormatError("TRACE_NO_PROCESSID on first record");
    record.process_id = last_process_id_;
  }

  if (file_field) {
    record.file_id = *file_field;
  } else {
    const auto it = last_file_by_process_.find(record.process_id);
    if (it == last_file_by_process_.end()) {
      throw TraceFormatError("TRACE_NO_FILEID with no prior record for process " +
                             std::to_string(record.process_id));
    }
    record.file_id = it->second;
  }

  const std::uint64_t key = FileFieldState::key_of(record.process_id, record.file_id);
  auto state_it = file_states_.find(key);
  FileFieldState* state = state_it != file_states_.end() ? &state_it->second : nullptr;

  if (op_field) {
    record.operation_id = *op_field;
  } else {
    if (state == nullptr || !state->has_operation) {
      throw TraceFormatError("TRACE_NO_OPERATIONID with no prior record for file " +
                             std::to_string(record.file_id));
    }
    record.operation_id = state->last_operation_id;
  }

  if (offset_field) {
    record.offset = *offset_field;
  } else {
    if (state == nullptr) {
      throw TraceFormatError("TRACE_NO_BLOCK with no prior access to file " +
                             std::to_string(record.file_id));
    }
    record.offset = state->next_sequential_offset;
  }

  if (length_field) {
    record.length = *length_field;
  } else {
    if (state == nullptr || state->last_length < 0) {
      throw TraceFormatError("TRACE_NO_LENGTH with no prior access to file " +
                             std::to_string(record.file_id));
    }
    record.length = state->last_length;
  }

  record.start_time = has_previous_ ? previous_start_ + start_delta : start_delta;
  if (start_delta < Ticks::zero()) throw TraceFormatError("negative start-time delta");
  // With per-field deltas capped at 2^50 this bound keeps the running sum
  // below 2^60, so the next addition cannot overflow either.
  if (record.start_time > Ticks(std::int64_t{1} << 60)) {
    throw TraceFormatError("accumulated start time out of range");
  }

  validate(record);

  has_previous_ = true;
  previous_start_ = record.start_time;
  has_last_process_ = true;
  last_process_id_ = record.process_id;
  last_file_by_process_[record.process_id] = record.file_id;
  file_states_[key].advance(record);
  return record;
}

void AsciiTraceDecoder::reset() {
  has_previous_ = false;
  previous_start_ = Ticks::zero();
  last_process_id_ = 0;
  has_last_process_ = false;
  last_file_by_process_.clear();
  file_states_.clear();
  last_comment_.clear();
  comment_count_ = 0;
}

}  // namespace craysim::trace
