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

#include "trace/record.hpp"
#include "util/flat_map.hpp"

namespace craysim::trace {

/// Per-file relative-field state: what the file's next record may omit, or
/// must be reconstructed from.
struct FileFieldState {
  Bytes next_sequential_offset = 0;
  Bytes last_length = -1;
  std::uint32_t last_operation_id = 0;
  bool has_operation = false;

  /// Records `record` as the file's latest access.
  void advance(const TraceRecord& record) {
    next_sequential_offset = record.end();
    last_length = record.length;
    last_operation_id = record.operation_id;
    has_operation = true;
  }
};

/// The fields an encoder writes for one record: the compression flags the
/// relative-field state permits, the kept offset and length (in blocks when
/// the flags say so) and the start-time delta. `last_file` and `state` are
/// the table lookups made on the way, for RelativeFieldTable::commit.
struct CompressedFields {
  std::uint16_t compression = 0;
  Bytes offset = 0;
  Bytes length = 0;
  Ticks start_delta;
  std::uint32_t* last_file = nullptr;
  FileFieldState* state = nullptr;
};

/// The relative-field state every compressing codec keeps (ASCII and binary,
/// encoder and decoder alike): the previous record's start time and process,
/// each process's latest file, and each (process, file) pair's
/// FileFieldState. Lookups return pointers that commit() writes through, so
/// a record of a known process and file probes each map once. A pointer
/// from a lookup is valid until the next commit() or clear(), which may
/// insert and so move entries.
class RelativeFieldTable {
 public:
  [[nodiscard]] bool has_previous() const { return has_previous_; }
  [[nodiscard]] Ticks previous_start() const { return previous_start_; }
  [[nodiscard]] std::uint32_t previous_process() const { return previous_process_; }

  /// The file of `pid`'s latest record, or nullptr before its first.
  [[nodiscard]] std::uint32_t* last_file(std::uint32_t pid) { return last_file_.find(pid); }

  /// The state of `pid`'s file `file_id`, or nullptr before its first record.
  [[nodiscard]] FileFieldState* file_state(std::uint32_t pid, std::uint32_t file_id) {
    return files_.find(key_of(pid, file_id));
  }

  /// Chooses the tightest compression the table permits for `record`, a
  /// non-comment record starting no earlier than the previous one. Changes
  /// no state: commit() the record once its bytes are written.
  [[nodiscard]] CompressedFields compress(const TraceRecord& record);

  /// Makes `record` the latest of the trace, of its process and of its file.
  /// `last_file` and `state` are this record's own lookups, or nullptr when
  /// absent or not made; a hit is updated in place, a miss is inserted.
  void commit(const TraceRecord& record, std::uint32_t* last_file, FileFieldState* state) {
    has_previous_ = true;
    previous_start_ = record.start_time;
    previous_process_ = record.process_id;
    if (last_file == nullptr) last_file = &last_file_.emplace(record.process_id);
    *last_file = record.file_id;
    if (state == nullptr) state = &files_.emplace(key_of(record.process_id, record.file_id));
    state->advance(record);
  }

  void clear() { *this = RelativeFieldTable(); }

 private:
  static std::uint64_t key_of(std::uint32_t pid, std::uint32_t file_id) {
    return (static_cast<std::uint64_t>(pid) << 32) | file_id;
  }

  bool has_previous_ = false;
  Ticks previous_start_;
  std::uint32_t previous_process_ = 0;
  util::FlatMap64<std::uint32_t> last_file_;  // key: pid
  util::FlatMap64<FileFieldState> files_;     // key: key_of(pid, file_id)
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
  void reset() { table_.clear(); }

 private:
  RelativeFieldTable table_;
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
  RelativeFieldTable table_;
  std::string last_comment_;
  std::int64_t comment_count_ = 0;
};

}  // namespace craysim::trace
