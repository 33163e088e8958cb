// Stream-level trace I/O: whole traces to/from iostreams or files, plus the
// record-at-a-time RecordSource interface streaming readers share.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/codec.hpp"
#include "trace/record.hpp"

namespace craysim::obs {
class MetricsRegistry;
}

namespace craysim::trace {

/// An in-memory trace: records in start-time order with absolute times.
using Trace = std::vector<TraceRecord>;

/// A pull-based stream of trace records: the common next() interface of
/// InMemorySource, TraceReader, TraceTextReader, and BinaryTraceReader
/// (binary_stream.hpp).
/// Consumers that only need one record at a time (sim::StreamingReplaySource,
/// trace statistics over traces larger than RAM) take this instead of a
/// materialized Trace.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  /// Next record, or nullopt at end of stream.
  [[nodiscard]] virtual std::optional<TraceRecord> next() = 0;
};

/// The records of an in-memory trace, in order. Holds the trace by shared
/// pointer, so many sources (one per sweep point, on any thread) can replay
/// one parsed trace with no copies.
class InMemorySource final : public RecordSource {
 public:
  explicit InMemorySource(std::shared_ptr<const Trace> trace) : trace_(std::move(trace)) {}
  explicit InMemorySource(Trace trace)
      : trace_(std::make_shared<const Trace>(std::move(trace))) {}

  [[nodiscard]] std::optional<TraceRecord> next() override;

 private:
  std::shared_ptr<const Trace> trace_;
  std::size_t pos_ = 0;
};

/// Writes records (and comments) to a text stream in the wire format.
class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& out) : out_(&out) {}

  void write(const TraceRecord& record);
  void comment(std::string_view text);

  [[nodiscard]] std::int64_t records_written() const { return records_written_; }

 private:
  std::ostream* out_;
  AsciiTraceEncoder encoder_;
  std::int64_t records_written_ = 0;
};

/// One malformed line tolerated by recoverable parsing.
struct ParseDefect {
  std::int64_t line = 0;  ///< 1-based line number in the input
  std::string message;    ///< the TraceFormatError text
};

/// Accumulated by a TraceReader running in recoverable mode.
struct ParseReport {
  static constexpr std::int64_t kMaxRecordedDefects = 64;

  std::int64_t records_parsed = 0;
  std::int64_t lines_skipped = 0;        ///< malformed lines tolerated
  std::vector<ParseDefect> defects;      ///< first kMaxRecordedDefects, in order

  [[nodiscard]] bool clean() const { return lines_skipped == 0; }

  /// One human-readable line for run summaries, e.g.
  /// "parse: 1200 records, 3 malformed lines skipped (first: line 17)".
  [[nodiscard]] std::string summary() const;

  /// Publishes `<prefix>.records_parsed` / `.lines_skipped` /
  /// `.defects_recorded` counters (schema pinned by tests/obs_golden_test).
  void publish_metrics(obs::MetricsRegistry& registry,
                       std::string_view prefix = "trace.parse") const;
};

/// Knobs for recoverable parsing.
struct RecoveryOptions {
  /// Malformed lines tolerated before the reader gives up with FaultError.
  /// Negative = unlimited.
  std::int64_t error_budget = 100;
};

/// Reads records from a text stream, skipping comments.
///
/// The default (strict) mode throws TraceFormatError, with the line number
/// in the message, on the first malformed line. Recoverable mode — enabled
/// by constructing with RecoveryOptions — skips malformed lines instead,
/// accumulating a ParseReport, until the error budget is exhausted (then
/// FaultError). A skipped line can strand later compression references; such
/// lines are themselves skipped and counted, so recovery resynchronizes on
/// the first line that decodes against the surviving state.
class TraceReader final : public RecordSource {
 public:
  explicit TraceReader(std::istream& in) : in_(&in) {}
  TraceReader(std::istream& in, const RecoveryOptions& recovery)
      : in_(&in), recovery_(recovery) {}

  /// Next record, or nullopt at end of stream.
  [[nodiscard]] std::optional<TraceRecord> next() override;

  [[nodiscard]] std::int64_t line_number() const { return line_number_; }
  [[nodiscard]] const AsciiTraceDecoder& decoder() const { return decoder_; }
  [[nodiscard]] bool recovering() const { return recovery_.has_value(); }
  /// Defect log so far (meaningful in recoverable mode only).
  [[nodiscard]] const ParseReport& report() const { return report_; }

 private:
  std::istream* in_;
  AsciiTraceDecoder decoder_;
  std::int64_t line_number_ = 0;
  std::optional<RecoveryOptions> recovery_;
  ParseReport report_;
};

/// Reads records straight out of in-memory trace text: lines are walked as
/// string_views into the caller's buffer, with no istream and no per-line
/// copy. Strict/recoverable semantics are identical to TraceReader. The text
/// must outlive the reader.
class TraceTextReader final : public RecordSource {
 public:
  explicit TraceTextReader(std::string_view text) : text_(text) {}
  TraceTextReader(std::string_view text, const RecoveryOptions& recovery)
      : text_(text), recovery_(recovery) {}

  /// Next record, or nullopt at end of text.
  [[nodiscard]] std::optional<TraceRecord> next() override;

  [[nodiscard]] std::int64_t line_number() const { return line_number_; }
  [[nodiscard]] const AsciiTraceDecoder& decoder() const { return decoder_; }
  [[nodiscard]] bool recovering() const { return recovery_.has_value(); }
  /// Defect log so far (meaningful in recoverable mode only).
  [[nodiscard]] const ParseReport& report() const { return report_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  AsciiTraceDecoder decoder_;
  std::int64_t line_number_ = 0;
  std::optional<RecoveryOptions> recovery_;
  ParseReport report_;
};

/// Serializes a whole trace (optionally with a leading identification
/// comment, as the paper recommends) and returns the text.
[[nodiscard]] std::string serialize_trace(const Trace& trace, std::string_view header_comment = {});

/// Parses a whole trace from text.
[[nodiscard]] Trace parse_trace(std::string_view text);

/// A recovered trace plus the defect log describing what was skipped.
struct RecoveredTrace {
  Trace trace;
  ParseReport report;
};

/// Parses a whole trace in recoverable mode: malformed lines are skipped and
/// reported rather than fatal, until the error budget runs out (FaultError).
[[nodiscard]] RecoveredTrace parse_trace_lossy(std::string_view text,
                                               const RecoveryOptions& recovery = {});

/// File variant of parse_trace_lossy. Throws craysim::Error on I/O failure.
[[nodiscard]] RecoveredTrace load_trace_lossy(const std::string& path,
                                              const RecoveryOptions& recovery = {});

/// File variants. Throw craysim::Error on I/O failure.
///
/// Every file reader here (load_trace, load_trace_lossy, load_trace_binary,
/// open_record_stream) gets its bytes the same way: a read-only mmap of the
/// file when possible — cold start on a multi-GB trace costs one mmap(2) and
/// the parse walks string_views over shared page-cache pages — else a
/// bounded stream over a seekable file, else (FIFOs, /dev/stdin, size-0
/// /proc inputs) one chunked read of the already-open input.
void save_trace(const Trace& trace, const std::string& path,
                std::string_view header_comment = {});
[[nodiscard]] Trace load_trace(const std::string& path);

/// Reads a whole file into memory without mapping it, coping with
/// non-seekable inputs (FIFOs, /dev/stdin) and special files that report
/// size 0 (/proc). For callers that need the raw text. Throws
/// craysim::Error on I/O failure.
[[nodiscard]] std::string read_file(const std::string& path);

/// How open_record_stream should interpret the file.
enum class TraceFormat {
  kAuto,    ///< sniff: framed binary magic (binary_stream.hpp) vs text
  kText,    ///< the ASCII wire format
  kBinary,  ///< the framed streaming binary format
};

/// Streaming knobs for open_record_stream.
struct StreamOptions {
  TraceFormat format = TraceFormat::kAuto;

  /// Map regular files read-only and walk the mapping zero-copy (fastest;
  /// resident set can grow toward the file size as pages are touched). Set
  /// false to force bounded-buffer streamed reads — peak RSS independent of
  /// trace size — for replaying traces larger than memory.
  bool prefer_mmap = true;
};

/// Opens `path` as a record-at-a-time stream: a TraceTextReader or
/// BinaryTraceReader (per `options.format`, sniffed by default) that owns
/// whatever it needs (mapping or file handle). Non-seekable inputs that
/// cannot be mapped (FIFOs) are buffered in full. Throws craysim::Error on
/// I/O failure, TraceFormatError on a binary/text mismatch.
[[nodiscard]] std::unique_ptr<RecordSource> open_record_stream(const std::string& path,
                                                               const StreamOptions& options = {});

}  // namespace craysim::trace
