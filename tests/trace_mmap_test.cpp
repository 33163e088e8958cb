// Trace ingestion: MappedFile semantics, byte-identity of the mapped view
// with read_file, and one table over every route a trace's bytes take to a
// reader (mmap vs bounded stream vs chunked read, sniffed vs forced format),
// including the FIFO/size-0 fallback regressions.
#include "trace/mapped_file.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
#include <tuple>

#include "trace/binary_stream.hpp"
#include "trace/stream.hpp"
#include "util/error.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace craysim::trace {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

const Trace& venus() {
  static const Trace t =
      workload::synthesize_trace(workload::make_profile(workload::AppId::kVenus));
  return t;
}

Trace drain(RecordSource& source) {
  Trace out;
  while (auto record = source.next()) out.push_back(*record);
  return out;
}

TEST(MappedFile, ViewIsByteIdenticalToReadFile) {
  const std::string path = temp_path("craysim_mmap_test.trace");
  save_trace(venus(), path, "mmap identity");
  auto mapped = MappedFile::open(path);
  ASSERT_TRUE(mapped.has_value());
  mapped->advise_sequential();
  EXPECT_EQ(mapped->view(), read_file(path));
  EXPECT_EQ(mapped->size(), std::filesystem::file_size(path));
  std::remove(path.c_str());
}

TEST(MappedFile, MoveTransfersTheMapping) {
  const std::string path = temp_path("craysim_mmap_move.trace");
  save_trace(venus(), path);
  auto mapped = MappedFile::open(path);
  ASSERT_TRUE(mapped.has_value());
  const std::string_view before = mapped->view();
  MappedFile moved = std::move(*mapped);
  EXPECT_EQ(moved.view(), before);
  std::remove(path.c_str());
}

TEST(MappedFile, RefusesMissingAndEmptyFiles) {
  EXPECT_FALSE(MappedFile::open("/nonexistent/dir/x.trace").has_value());
  const std::string path = temp_path("craysim_mmap_empty.trace");
  { std::ofstream touch(path); }
  EXPECT_FALSE(MappedFile::open(path).has_value());
  std::remove(path.c_str());
}

// The ingestion table: {text, binary} x {regular file, FIFO, size-0 file} x
// prefer_mmap. However the bytes arrive, open_record_stream (sniffed and
// forced), the whole-trace loader, and the reference parse of read_file()
// must agree. FIFO rows have exactly one writer, so a reader that opened the
// FIFO twice would block forever.
enum class Input { kRegular, kFifo, kEmpty };

using IngestRow = std::tuple<bool /*binary*/, Input, bool /*prefer_mmap*/>;

std::string row_name(const IngestRow& row) {
  const auto [binary, input, prefer_mmap] = row;
  const char* inputs[] = {"regular", "fifo", "empty"};
  return std::string(binary ? "binary_" : "text_") + inputs[static_cast<int>(input)] +
         (prefer_mmap ? "_mmap" : "_stream");
}

/// A reader's outcome: its records, or nullopt when it rejects the bytes
/// with TraceFormatError.
using Outcome = std::optional<Trace>;

template <class Read>
Outcome outcome(Read&& read) {
  try {
    return read();
  } catch (const TraceFormatError&) {
    return std::nullopt;
  }
}

std::string encode(const Trace& t, bool binary) {
  if (!binary) return serialize_trace(t, "ingestion table");
  std::ostringstream out;
  BinaryTraceWriter writer(out);
  for (const auto& record : t) writer.write(record);
  return out.str();
}

Trace parse(const std::string& bytes, bool binary) {
  if (!binary) return parse_trace(bytes);
  BinaryTraceReader reader(std::as_bytes(std::span(bytes)));
  return drain(reader);
}

/// Presents `bytes` at `path` as `input` and runs `read` on it.
template <class Read>
Outcome read_through(const std::string& path, Input input, const std::string& bytes,
                     Read&& read) {
  std::remove(path.c_str());
  std::thread writer;
  if (input == Input::kFifo) {
    EXPECT_EQ(mkfifo(path.c_str(), 0600), 0);
    EXPECT_FALSE(MappedFile::open(path).has_value());  // stat only: never opens the FIFO
    writer = std::thread([&] { std::ofstream(path, std::ios::binary) << bytes; });
  } else {
    std::ofstream(path, std::ios::binary) << bytes;
  }
  Outcome result = outcome([&] { return read(path); });
  if (writer.joinable()) writer.join();
  std::remove(path.c_str());
  return result;
}

class Ingestion : public ::testing::TestWithParam<IngestRow> {};

TEST_P(Ingestion, EveryReaderAgrees) {
  const auto [binary, input, prefer_mmap] = GetParam();
  const std::string path = temp_path("craysim_ingest_" + row_name(GetParam()));
  Trace written;
  if (input == Input::kRegular) written = venus();
  if (input == Input::kFifo) written.assign(venus().begin(), venus().begin() + 32);
  const std::string bytes = input == Input::kEmpty ? std::string() : encode(written, binary);

  // Each reader gets its own fresh copy of the input.
  const auto via = [&](auto&& reader) { return read_through(path, input, bytes, reader); };
  const auto stream = [](const StreamOptions& options) {
    return [options](const std::string& p) { return drain(*open_record_stream(p, options)); };
  };

  const Outcome reference = via([&](const std::string& p) { return parse(read_file(p), binary); });
  // An empty file holds no frame header, so it is no binary trace at all.
  EXPECT_EQ(reference, input == Input::kEmpty && binary ? Outcome() : Outcome(written));

  StreamOptions forced;
  forced.format = binary ? TraceFormat::kBinary : TraceFormat::kText;
  forced.prefer_mmap = prefer_mmap;
  EXPECT_EQ(via(stream(forced)), reference);
  StreamOptions sniffed;
  sniffed.prefer_mmap = prefer_mmap;
  EXPECT_EQ(via(stream(sniffed)), written);
  const auto load = [&](const std::string& p) {
    return binary ? load_trace_binary(p) : load_trace(p);
  };
  EXPECT_EQ(via(load), reference);
}

INSTANTIATE_TEST_SUITE_P(
    Table, Ingestion,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(Input::kRegular, Input::kFifo, Input::kEmpty),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<IngestRow>& row) { return row_name(row.param); });

TEST(OpenRecordStream, ForcedBinaryOnTextThrows) {
  const std::string path = temp_path("craysim_open_forced.trace");
  save_trace(venus(), path);
  StreamOptions options;
  options.format = TraceFormat::kBinary;
  EXPECT_THROW((void)open_record_stream(path, options), TraceFormatError);
  options.prefer_mmap = false;
  EXPECT_THROW((void)open_record_stream(path, options), TraceFormatError);
  std::remove(path.c_str());
}

TEST(OpenRecordStream, MissingFileThrows) {
  EXPECT_THROW((void)open_record_stream("/nonexistent/dir/x.trace"), Error);
}

}  // namespace
}  // namespace craysim::trace
