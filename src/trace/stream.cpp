#include "trace/stream.hpp"

#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/metrics.hpp"
#include "trace/binary_stream.hpp"
#include "trace/mapped_file.hpp"
#include "util/error.hpp"

namespace craysim::trace {

std::string ParseReport::summary() const {
  char buf[160];
  if (clean()) {
    std::snprintf(buf, sizeof buf, "parse: %lld records, no malformed lines",
                  static_cast<long long>(records_parsed));
  } else {
    std::snprintf(buf, sizeof buf,
                  "parse: %lld records, %lld malformed lines skipped (first: line %lld)",
                  static_cast<long long>(records_parsed), static_cast<long long>(lines_skipped),
                  static_cast<long long>(defects.empty() ? 0 : defects.front().line));
  }
  return buf;
}

void ParseReport::publish_metrics(obs::MetricsRegistry& registry,
                                  std::string_view prefix) const {
  const std::string p(prefix);
  registry.counter(p + ".records_parsed").add(records_parsed);
  registry.counter(p + ".lines_skipped").add(lines_skipped);
  registry.counter(p + ".defects_recorded").add(static_cast<std::int64_t>(defects.size()));
}

namespace {

/// One line under the shared strict/recoverable decode policy (both readers
/// funnel through here so their semantics cannot drift apart). Returns the
/// record, or nullopt for comments/blank/skipped lines.
std::optional<TraceRecord> decode_with_policy(AsciiTraceDecoder& decoder, std::string_view line,
                                              std::int64_t line_number,
                                              const std::optional<RecoveryOptions>& recovery,
                                              ParseReport& report) {
  try {
    if (auto record = decoder.decode_line(line)) {
      ++report.records_parsed;
      return record;
    }
  } catch (const TraceFormatError& e) {
    if (!recovery) {
      throw TraceFormatError("line " + std::to_string(line_number) + ": " + e.what());
    }
    // decode_line only commits decoder state after a full successful decode,
    // so a thrown line leaves the relative-field state at the last good
    // record and the next well-formed line resynchronizes.
    ++report.lines_skipped;
    if (static_cast<std::int64_t>(report.defects.size()) < ParseReport::kMaxRecordedDefects) {
      report.defects.push_back({line_number, e.what()});
    }
    if (recovery->error_budget >= 0 && report.lines_skipped > recovery->error_budget) {
      throw FaultError("parse error budget of " + std::to_string(recovery->error_budget) +
                       " exhausted at line " + std::to_string(line_number) + " (" + e.what() +
                       ")");
    }
  }
  return std::nullopt;
}

}  // namespace

void TraceWriter::write(const TraceRecord& record) {
  *out_ << encoder_.encode(record) << '\n';
  ++records_written_;
}

void TraceWriter::comment(std::string_view text) {
  *out_ << encoder_.encode_comment(text) << '\n';
}

std::optional<TraceRecord> TraceReader::next() {
  std::string line;
  while (std::getline(*in_, line)) {
    ++line_number_;
    if (auto record = decode_with_policy(decoder_, line, line_number_, recovery_, report_)) {
      return record;
    }
  }
  return std::nullopt;
}

std::optional<TraceRecord> TraceTextReader::next() {
  while (pos_ < text_.size()) {
    const std::size_t newline = text_.find('\n', pos_);
    const std::string_view line = newline == std::string_view::npos
                                      ? text_.substr(pos_)
                                      : text_.substr(pos_, newline - pos_);
    pos_ = newline == std::string_view::npos ? text_.size() : newline + 1;
    ++line_number_;
    if (auto record = decode_with_policy(decoder_, line, line_number_, recovery_, report_)) {
      return record;
    }
  }
  return std::nullopt;
}

std::optional<TraceRecord> InMemorySource::next() {
  if (pos_ == trace_->size()) return std::nullopt;
  return (*trace_)[pos_++];
}

namespace {

/// A trace file's bytes, held the one way they reach a reader: a read-only
/// mapping, a bounded-buffer stream over a seekable file, or the whole input
/// read once in chunks.
using TraceBytes = std::variant<MappedFile, std::ifstream, std::string>;

/// The one byte path under every file loader and open_record_stream. Maps
/// `path` when `prefer_mmap` allows and the file is mappable (zero-copy parse
/// over shared page-cache pages). Otherwise opens a stream, which a seekable
/// file with a real size keeps, rewound — peak memory stays independent of
/// trace size. Non-seekable inputs (FIFO, /dev/stdin) and special files that
/// report size 0 (/proc) are read in chunks from that same open stream:
/// a second open of a FIFO could block forever once the writer is gone.
TraceBytes open_trace_bytes(const std::string& path, bool prefer_mmap) {
  if (prefer_mmap) {
    if (auto mapped = MappedFile::open(path)) {
      mapped->advise_sequential();
      return std::move(*mapped);
    }
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open for reading: " + path);
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  // On a pipe the end-seek fails (tellg() == -1) without consuming input, so
  // the rewind is a harmless failed no-op there.
  in.clear();
  in.seekg(0);
  if (size > 0) return in;
  in.clear();
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) throw Error("read failed: " + path);
  return text;
}

/// What `Reader` borrows from each kind of storage: text as a string_view,
/// binary as a byte span, and the stream itself for stream storage.
template <class Reader>
auto borrow(const MappedFile& mapped) {
  if constexpr (std::is_same_v<Reader, BinaryTraceReader>) {
    return mapped.bytes();
  } else {
    return mapped.view();
  }
}

template <class Reader>
auto borrow(const std::string& buffered) {
  if constexpr (std::is_same_v<Reader, BinaryTraceReader>) {
    return std::as_bytes(std::span(buffered));
  } else {
    return std::string_view(buffered);
  }
}

template <class Reader>
std::istream& borrow(std::ifstream& in) {
  return in;
}

/// The text reader for a storage: string_view walking over in-memory bytes,
/// getline over a stream.
template <class Storage>
using TextReaderFor =
    std::conditional_t<std::is_same_v<Storage, std::ifstream>, TraceReader, TraceTextReader>;

/// True when the bytes start like a framed binary trace.
bool looks_binary(const MappedFile& mapped) { return starts_with_binary_magic(mapped.bytes()); }
bool looks_binary(const std::string& buffered) { return starts_with_binary_magic(buffered); }
bool looks_binary(std::ifstream& in) {
  // The magic's lead byte is non-ASCII, so no text trace collides with it:
  // one peeked byte decides without consuming anything.
  return in.peek() == std::to_integer<int>(kBinaryTraceMagic[0]);
}

/// A record stream that owns its bytes. Member order is the lifetime
/// contract: the storage is constructed before, and destroyed after, the
/// reader that borrows from it.
template <class Storage, class Reader>
class OwningSource final : public RecordSource {
 public:
  explicit OwningSource(Storage storage)
      : storage_(std::move(storage)), reader_(borrow<Reader>(storage_)) {}

  [[nodiscard]] std::optional<TraceRecord> next() override { return reader_.next(); }

 private:
  Storage storage_;
  Reader reader_;
};

template <class Reader>
Trace drain(Reader& reader) {
  Trace trace;
  while (auto record = reader.next()) trace.push_back(*record);
  return trace;
}

}  // namespace

std::string read_file(const std::string& path) {
  TraceBytes bytes = open_trace_bytes(path, /*prefer_mmap=*/false);
  if (auto* buffered = std::get_if<std::string>(&bytes)) return std::move(*buffered);
  std::ostringstream out;
  out << std::get<std::ifstream>(bytes).rdbuf();
  return std::move(out).str();
}

std::string serialize_trace(const Trace& trace, std::string_view header_comment) {
  std::ostringstream out;
  TraceWriter writer(out);
  if (!header_comment.empty()) writer.comment(header_comment);
  for (const auto& record : trace) writer.write(record);
  return out.str();
}

Trace parse_trace(std::string_view text) {
  TraceTextReader reader(text);
  return drain(reader);
}

RecoveredTrace parse_trace_lossy(std::string_view text, const RecoveryOptions& recovery) {
  TraceTextReader reader(text, recovery);
  RecoveredTrace result{drain(reader), {}};
  result.report = reader.report();
  return result;
}

RecoveredTrace load_trace_lossy(const std::string& path, const RecoveryOptions& recovery) {
  TraceBytes bytes = open_trace_bytes(path, /*prefer_mmap=*/true);
  return std::visit(
      [&recovery](auto& storage) {
        using Reader = TextReaderFor<std::decay_t<decltype(storage)>>;
        Reader reader(borrow<Reader>(storage), recovery);
        RecoveredTrace result{drain(reader), {}};
        result.report = reader.report();
        return result;
      },
      bytes);
}

void save_trace(const Trace& trace, const std::string& path, std::string_view header_comment) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open for writing: " + path);
  TraceWriter writer(out);
  if (!header_comment.empty()) writer.comment(header_comment);
  for (const auto& record : trace) writer.write(record);
  if (!out) throw Error("write failed: " + path);
}

Trace load_trace(const std::string& path) {
  return drain(*open_record_stream(path, {.format = TraceFormat::kText}));
}

std::unique_ptr<RecordSource> open_record_stream(const std::string& path,
                                                 const StreamOptions& options) {
  return std::visit(
      [&options](auto&& storage) -> std::unique_ptr<RecordSource> {
        using Storage = std::decay_t<decltype(storage)>;
        if (options.format == TraceFormat::kBinary ||
            (options.format == TraceFormat::kAuto && looks_binary(storage))) {
          return std::make_unique<OwningSource<Storage, BinaryTraceReader>>(std::move(storage));
        }
        return std::make_unique<OwningSource<Storage, TextReaderFor<Storage>>>(
            std::move(storage));
      },
      open_trace_bytes(path, options.prefer_mmap));
}

}  // namespace craysim::trace
