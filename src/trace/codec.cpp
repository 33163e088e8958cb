#include "trace/codec.hpp"

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

/// Magnitude bound on every value field: 2^50 bytes (1 PiB) / ticks (~350
/// years). Far beyond any real trace, but small enough that the block-size
/// rescale and running start-time sum in decode_line can never overflow
/// int64 on hostile input.
constexpr std::int64_t kFieldLimit = std::int64_t{1} << 50;

/// Longest digit run TokenCursor::next_plain takes: every such value lies
/// within kFieldLimit, so the fast path needs no range check.
constexpr std::size_t kMaxPlainDigits = 15;
static_assert(999'999'999'999'999 < kFieldLimit);

/// Walks the space-delimited tokens of a line in place. Runs of spaces count
/// as one delimiter.
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view text) : text_(text) {}

  /// Returns the next token, or nullopt when the line is exhausted.
  std::optional<std::string_view> next() {
    skip_spaces();
    if (pos_ >= text_.size()) return std::nullopt;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ' ') ++pos_;
    return text_.substr(start, pos_ - start);
  }

  /// The fast path for the common token: a plain [0-9]{1,15} (with a
  /// leading '-' when `allow_minus`) that ends at a space or at the end of
  /// the line. Consumes it and returns its value, accumulated in the same
  /// pass that delimits it. Any other token is left for next() and the
  /// general parser, which alone decide what tabs, CRs, '+', hex, longer
  /// digit runs and junk mean; on such a token, or none, this returns
  /// nullopt.
  std::optional<std::int64_t> next_plain(bool allow_minus) {
    skip_spaces();
    std::size_t i = pos_;
    const bool negative = allow_minus && i < text_.size() && text_[i] == '-';
    if (negative) ++i;
    const std::size_t digits = i;
    std::int64_t value = 0;
    for (; i < text_.size() && i - digits < kMaxPlainDigits; ++i) {
      const auto digit = static_cast<unsigned>(text_[i] - '0');
      if (digit > 9) break;
      value = value * 10 + digit;
    }
    if (i == digits || (i < text_.size() && text_[i] != ' ')) return std::nullopt;
    pos_ = i;
    return negative ? -value : value;
  }

  /// The unconsumed rest of the line, from the delimiter after the last
  /// token taken.
  [[nodiscard]] std::string_view rest() const { return text_.substr(pos_); }

 private:
  void skip_spaces() {
    while (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// The general parse of a value field, for every token next_plain declines.
/// Throws TraceFormatError for a missing, unparseable or out-of-range field.
std::int64_t parse_field(TokenCursor& cursor, const char* field, std::string_view line) {
  const auto token = cursor.next();
  if (!token) {
    throw TraceFormatError(std::string("missing field '") + field + "' in: " + std::string(line));
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
}

}  // namespace

CompressedFields RelativeFieldTable::compress(const TraceRecord& record) {
  CompressedFields out;
  if (has_previous_ && record.process_id == previous_process_) out.compression |= kNoProcessId;

  out.last_file = last_file(record.process_id);
  if (out.last_file != nullptr && *out.last_file == record.file_id) {
    out.compression |= kNoFileId;
  }

  out.state = file_state(record.process_id, record.file_id);
  const FileFieldState* state = out.state;
  if (state != nullptr && state->has_operation &&
      state->last_operation_id == record.operation_id) {
    out.compression |= kNoOperationId;
  }
  if (state != nullptr && record.offset == state->next_sequential_offset) {
    out.compression |= kNoOffset;
  }
  if (state != nullptr && record.length == state->last_length) out.compression |= kNoLength;

  out.offset = record.offset;
  if (!(out.compression & kNoOffset) && out.offset != 0 && out.offset % kTraceBlockSize == 0) {
    out.compression |= kOffsetInBlocks;
    out.offset /= kTraceBlockSize;
  }
  out.length = record.length;
  if (!(out.compression & kNoLength) && out.length != 0 && out.length % kTraceBlockSize == 0) {
    out.compression |= kLengthInBlocks;
    out.length /= kTraceBlockSize;
  }

  out.start_delta = has_previous_ ? record.start_time - previous_start_ : record.start_time;
  return out;
}

std::string AsciiTraceEncoder::encode(const TraceRecord& record) {
  validate(record);
  if (record.is_comment()) {
    throw TraceFormatError("use encode_comment for comment records");
  }
  if (table_.has_previous() && record.start_time < table_.previous_start()) {
    throw TraceFormatError("records must be encoded in start-time order");
  }

  const CompressedFields f = table_.compress(record);
  std::string line;
  append_int(line, record.record_type);
  append_int(line, f.compression);
  if (!(f.compression & kNoOffset)) append_int(line, f.offset);
  if (!(f.compression & kNoLength)) append_int(line, f.length);
  append_int(line, f.start_delta.count());
  append_int(line, record.completion_time.count());
  if (!(f.compression & kNoOperationId)) append_int(line, record.operation_id);
  if (!(f.compression & kNoFileId)) append_int(line, record.file_id);
  if (!(f.compression & kNoProcessId)) append_int(line, record.process_id);
  append_int(line, record.process_time.count());

  table_.commit(record, f.last_file, f.state);
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

std::optional<TraceRecord> AsciiTraceDecoder::decode_line(std::string_view line) {
  const std::string_view trimmed = trim(line);
  if (trimmed.empty()) return std::nullopt;

  TokenCursor cursor(trimmed);
  std::uint64_t type_value = 0;
  if (const auto plain = cursor.next_plain(false)) {
    type_value = static_cast<std::uint64_t>(*plain);
  } else {
    // The line is trimmed, so its first token is there: it may be hex.
    const std::string_view first_tok = *cursor.next();
    const auto parsed = parse_uint(first_tok);
    if (!parsed) {
      throw TraceFormatError("unparseable record type: '" + std::string(first_tok) + "'");
    }
    type_value = *parsed;
  }
  if (type_value > 0xffff) throw TraceFormatError("record type out of range");
  if (type_value == kTraceComment) {
    // Free text: the rest of the line is not tokenized.
    last_comment_ = std::string(trim(cursor.rest()));
    ++comment_count_;
    return std::nullopt;
  }

  auto next_int = [&](const char* field) -> std::int64_t {
    if (const auto plain = cursor.next_plain(true)) return *plain;
    return parse_field(cursor, field, trimmed);
  };

  TraceRecord record;
  record.record_type = static_cast<std::uint16_t>(type_value);

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
    if (!table_.has_previous()) throw TraceFormatError("TRACE_NO_PROCESSID on first record");
    record.process_id = table_.previous_process();
  }

  std::uint32_t* last_file = nullptr;
  if (file_field) {
    record.file_id = *file_field;
  } else {
    last_file = table_.last_file(record.process_id);
    if (last_file == nullptr) {
      throw TraceFormatError("TRACE_NO_FILEID with no prior record for process " +
                             std::to_string(record.process_id));
    }
    record.file_id = *last_file;
  }

  FileFieldState* state = table_.file_state(record.process_id, record.file_id);

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

  record.start_time =
      table_.has_previous() ? table_.previous_start() + start_delta : start_delta;
  if (start_delta < Ticks::zero()) throw TraceFormatError("negative start-time delta");
  // With per-field deltas capped at 2^50 this bound keeps the running sum
  // below 2^60, so the next addition cannot overflow either.
  if (record.start_time > Ticks(std::int64_t{1} << 60)) {
    throw TraceFormatError("accumulated start time out of range");
  }

  validate(record);

  table_.commit(record, last_file, state);
  return record;
}

void AsciiTraceDecoder::reset() {
  table_.clear();
  last_comment_.clear();
  comment_count_ = 0;
}

}  // namespace craysim::trace
