// ASCII encoding/decoding of trace records with the appendix's relative-field
// compression.
//
// Wire format: one record per line, space-separated variable-length decimal
// integers, fields in declaration order (recordType, compression, [offset],
// [length], startTime, completionTime, [operationId], [fileId], [processId],
// processTime). Compression flags in the second field say which bracketed
// fields are omitted and how to reconstruct them:
//   - processId:  previous record in the trace
//   - fileId:     previous record by this process
//   - operationId previous record of this file
//   - offset:     sequential with previous access to this file
//   - length:     previous record of this file
// Time fields are always present and always deltas: startTime is relative to
// the previous record's start, completionTime is the duration of this I/O,
// processTime is process CPU time since the process's previous I/O. All in
// 10 us ticks. Comment records are encoded as "255 <free text>".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "trace/record.hpp"

namespace craysim::trace {

/// Per-file relative-field state every compressing codec keeps (ASCII and
/// binary, encoder and decoder alike): what the file's next record may omit,
/// or must be reconstructed from.
struct FileFieldState {
  Bytes next_sequential_offset = 0;
  Bytes last_length = -1;
  std::uint32_t last_operation_id = 0;
  bool has_operation = false;

  /// Map key of a (process, file) pair: pid<<32 | fileId.
  static std::uint64_t key_of(std::uint32_t pid, std::uint32_t file_id) {
    return (static_cast<std::uint64_t>(pid) << 32) | file_id;
  }

  /// Records `record` as the file's latest access.
  void advance(const TraceRecord& record) {
    next_sequential_offset = record.end();
    last_length = record.length;
    last_operation_id = record.operation_id;
    has_operation = true;
  }
};

/// Stateful encoder: feed records carrying ABSOLUTE start times; emits
/// compressed wire lines. The same instance must encode an entire trace in
/// order, since compression is relative to earlier records.
class AsciiTraceEncoder {
 public:
  /// Encodes one record to a wire line (no trailing newline). Chooses the
  /// tightest compression the decoder state permits. Throws TraceFormatError
  /// on invalid records or non-monotonic start times.
  [[nodiscard]] std::string encode(const TraceRecord& record);

  /// Encodes a TRACE_COMMENT record carrying free text (newlines stripped).
  [[nodiscard]] std::string encode_comment(std::string_view text) const;

  /// Forgets all relative-field state (e.g. between independent traces).
  void reset();

 private:
  bool has_previous_ = false;
  Ticks previous_start_;
  std::uint32_t last_process_id_ = 0;
  std::unordered_map<std::uint32_t, std::uint32_t> last_file_by_process_;
  std::unordered_map<std::uint64_t, FileFieldState> file_states_;  // key: FileFieldState::key_of
};

/// Stateful decoder: feed wire lines in order; produces records with
/// ABSOLUTE start times reconstructed. Mirrors the encoder's state machine.
class AsciiTraceDecoder {
 public:
  /// Decodes one line. Returns nullopt for comments and blank lines (the
  /// comment text is retrievable via last_comment()). Throws
  /// TraceFormatError when a compression flag references missing state or
  /// the line is malformed.
  [[nodiscard]] std::optional<TraceRecord> decode_line(std::string_view line);

  /// Text of the most recent comment record (empty if none seen yet).
  [[nodiscard]] const std::string& last_comment() const { return last_comment_; }

  /// Count of comment records seen.
  [[nodiscard]] std::int64_t comment_count() const { return comment_count_; }

  void reset();

 private:
  bool has_previous_ = false;
  Ticks previous_start_;
  std::uint32_t last_process_id_ = 0;
  bool has_last_process_ = false;
  std::unordered_map<std::uint32_t, std::uint32_t> last_file_by_process_;
  std::unordered_map<std::uint64_t, FileFieldState> file_states_;  // key: FileFieldState::key_of
  std::string last_comment_;
  std::int64_t comment_count_ = 0;
};

}  // namespace craysim::trace
