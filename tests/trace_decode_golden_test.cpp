// Pins the language the text decoder accepts. The mutation corpora of
// trace_fuzz_test (single mutated lines after a clean prefix, and whole
// mutated streams read strictly and recoverably) go through the decoder, and
// every outcome is folded into one FNV-1a digest per corpus: the fields of a
// decoded record, a comment/blank nullopt, or a TraceFormatError with its
// line number and message. A decoder rewrite that accepts one more or one
// fewer line, reconstructs one field differently, or words one error
// differently changes a digest. A table of hand-picked lines then checks the
// edge cases of the token grammar one by one: tab- and CR-padded tokens,
// signs, leading zeros, long values, the 2^50 field bound, a hex record type
// and runs of spaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "trace/codec.hpp"
#include "trace/record.hpp"
#include "trace/stream.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace craysim::trace {
namespace {

std::string valid_wire() {
  const auto trace =
      workload::synthesize_trace(workload::make_profile(workload::AppId::kVenus));
  return serialize_trace(trace, "fuzz corpus");
}

/// The same mutator, seeds and draw order as trace_fuzz_test, so these are
/// the corpora that test runs: `count` random single-byte replacements,
/// insertions and deletions.
std::string mutate(std::string text, Rng& rng, int count) {
  for (int i = 0; i < count && !text.empty(); ++i) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        text[pos] = static_cast<char>(rng.uniform_int(1, 255));
        break;
      case 1:
        text.insert(pos, 1, static_cast<char>(rng.uniform_int(1, 255)));
        break;
      default:
        text.erase(pos, 1);
        break;
    }
  }
  return text;
}

void add_record(util::Fnv1a& h, const TraceRecord& r) {
  h.add(std::uint8_t{'R'});
  h.add(r.record_type);
  h.add(r.compression);
  h.add(r.offset);
  h.add(r.length);
  h.add(r.start_time.count());
  h.add(r.completion_time.count());
  h.add(r.operation_id);
  h.add(r.file_id);
  h.add(r.process_id);
  h.add(r.process_time.count());
}

void add_error(util::Fnv1a& h, std::int64_t line, const TraceFormatError& e) {
  h.add(std::uint8_t{'E'});
  h.add(line);
  h.add_text(e.what());
}

std::vector<std::string> split_lines(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// trace_fuzz_test's MutatedSingleLinesAgainstBareDecoder corpus: 2000
// mutated lines, each decoded after a clean prefix of the trace. The prefix
// states are taken from one pass over the clean lines (a copied decoder is
// the state a fresh decoder reaches after the same prefix), so the corpus
// costs one decode of the trace rather than 2000 partial ones.
TEST(TraceDecodeGolden, MutatedSingleLines) {
  const std::vector<std::string> lines = split_lines(valid_wire());
  ASSERT_GT(lines.size(), 10u);

  struct Case {
    std::size_t prefix;
    std::string mutated;
  };
  std::vector<Case> cases;
  Rng rng(0xF0220);
  for (int round = 0; round < 2000; ++round) {
    const auto prefix = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(lines.size()) - 2));
    const int count = 1 + static_cast<int>(rng.uniform_int(0, 3));
    cases.push_back({prefix, mutate(lines[prefix], rng, count)});
  }
  std::vector<std::size_t> by_prefix(cases.size());
  for (std::size_t i = 0; i < by_prefix.size(); ++i) by_prefix[i] = i;
  std::stable_sort(by_prefix.begin(), by_prefix.end(),
                   [&](std::size_t a, std::size_t b) { return cases[a].prefix < cases[b].prefix; });

  std::vector<std::uint64_t> outcomes(cases.size());
  AsciiTraceDecoder clean;
  std::size_t fed = 0;
  for (const std::size_t i : by_prefix) {
    for (; fed < cases[i].prefix; ++fed) (void)clean.decode_line(lines[fed]);
    AsciiTraceDecoder decoder = clean;
    util::Fnv1a h;
    try {
      if (auto record = decoder.decode_line(cases[i].mutated)) {
        add_record(h, *record);
      } else {
        h.add(std::uint8_t{'N'});
      }
    } catch (const TraceFormatError& e) {
      add_error(h, static_cast<std::int64_t>(cases[i].prefix) + 1, e);
    }
    outcomes[i] = h.value();
  }
  util::Fnv1a digest;
  for (const std::uint64_t outcome : outcomes) digest.add(outcome);
  EXPECT_EQ(digest.value(), 0x9020198a9aae2025ull) << std::hex << "0x" << digest.value();
}

// trace_fuzz_test's MutatedLinesParseOrThrowCleanly corpus: 400 streams with
// 1-8 mutations each, read strictly to the first error.
TEST(TraceDecodeGolden, MutatedStreamsStrict) {
  const std::string wire = valid_wire();
  Rng rng(0xF022);
  util::Fnv1a digest;
  for (int round = 0; round < 400; ++round) {
    const std::string text = mutate(wire, rng, 1 + static_cast<int>(rng.uniform_int(0, 7)));
    std::istringstream in(text);
    TraceReader reader(in);
    try {
      while (auto record = reader.next()) add_record(digest, *record);
      digest.add(std::uint8_t{'$'});
    } catch (const TraceFormatError& e) {
      add_error(digest, reader.line_number(), e);
    }
  }
  EXPECT_EQ(digest.value(), 0xa681824f1eb9bcbaull) << std::hex << "0x" << digest.value();
}

// trace_fuzz_test's RecoverableReaderSurvivesHeavyMutation corpus: 20
// streams with 200 mutations each, read with an unlimited error budget.
TEST(TraceDecodeGolden, MutatedStreamsRecoverable) {
  const std::string wire = valid_wire();
  Rng rng(0xF0222);
  util::Fnv1a digest;
  for (int round = 0; round < 20; ++round) {
    const std::string text = mutate(wire, rng, 200);
    std::istringstream in(text);
    RecoveryOptions unlimited;
    unlimited.error_budget = -1;
    TraceReader reader(in, unlimited);
    while (auto record = reader.next()) add_record(digest, *record);
    const ParseReport& report = reader.report();
    digest.add(report.records_parsed);
    digest.add(report.lines_skipped);
    for (const ParseDefect& defect : report.defects) {
      digest.add(defect.line);
      digest.add_text(defect.message);
    }
  }
  EXPECT_EQ(digest.value(), 0x5b8807e996f08ca7ull) << std::hex << "0x" << digest.value();
}

/// Expected outcome of one hand-picked line: the decoded offset and length
/// (every line below carries both explicitly), or a fragment of the error.
struct LineCase {
  const char* line;
  std::optional<Bytes> offset;
  std::optional<Bytes> length;
  const char* error = nullptr;
};

TEST(TraceDecodeGolden, HandPickedLines) {
  // Fields: type compression offset length start completion op file pid ptime.
  const std::vector<LineCase> cases = {
      {"128 0 0 1000 100 10 1 1 7 5", 0, 1000},
      {"128 0\t 0 1000 100 10 1 1 7 5", 0, 1000},        // tab ends a token
      {"128 0 \t0 1000 100 10 1 1 7 5", 0, 1000},        // tab starts a token
      {"128 0 0 1000\r 100 10 1 1 7 5", 0, 1000},        // CR ends a token
      {"128 0 0 1000 100 10 1 1 7 5\r", 0, 1000},        // CRLF line end
      {"\t128 0 0 1000 100 10 1 1 7 5 \t", 0, 1000},     // padded line
      {"128\t0 0 1000 100 10 1 1 7 5", {}, {}, "unparseable record type"},
      {"128 0 0 10\t00 100 10 1 1 7 5", {}, {}, "unparseable field 'length'"},
      {"128 0 +5 1000 100 10 1 1 7 5", {}, {}, "unparseable field 'offset'"},
      {"128 0 -0 1000 100 10 1 1 7 5", 0, 1000},
      {"128 0 - 1000 100 10 1 1 7 5", {}, {}, "unparseable field 'offset'"},
      {"128 0 -5 1000 100 10 1 1 7 5", {}, {}, "negative offset"},
      {"128 0 0005 01000 100 10 1 1 7 5", 5, 1000},      // leading zeros
      {"128 0 000000000000000000007 1000 100 10 1 1 7 5", 7, 1000},
      {"128 0 999999999999999 1000 100 10 1 1 7 5", 999999999999999, 1000},     // 15 digits
      {"128 0 1000000000000000 1000 100 10 1 1 7 5", 1000000000000000, 1000},   // 16 digits
      {"128 0 10000000000000000 1000 100 10 1 1 7 5", {}, {}, "out of range"},  // 17 digits
      {"128 0 1125899906842624 1000 100 10 1 1 7 5", 1125899906842624, 1000},   // 2^50
      {"128 0 1125899906842625 1000 100 10 1 1 7 5", {}, {}, "out of range"},   // 2^50+1
      {"128 0 0 -1125899906842625 100 10 1 1 7 5", {}, {}, "out of range"},
      {"128 0 99999999999999999999 1000 100 10 1 1 7 5", {}, {}, "unparseable field"},
      {"128 0 1e3 1000 100 10 1 1 7 5", {}, {}, "unparseable field 'offset'"},
      {"0x80 0 0 1000 100 10 1 1 7 5", 0, 1000},         // hex record type
      {"0X80 0 0 1000 100 10 1 1 7 5", 0, 1000},
      {"00128 0 0 1000 100 10 1 1 7 5", 0, 1000},
      {"-128 0 0 1000 100 10 1 1 7 5", {}, {}, "unparseable record type"},
      {"65536 0 0 1000 100 10 1 1 7 5", {}, {}, "record type out of range"},
      {"128   0  0 1000    100 10 1 1 7 5", 0, 1000},    // runs of spaces
      {"128 0 0 1000 100 10 1 1 7 5 ", 0, 1000},          // trailing space
      {"128 0 0 1000 100 10 1 1 7", {}, {}, "missing field 'processTime'"},
      {"128 0 0 1000 100 10 1 1 7 5 6", {}, {}, "trailing fields"},
      {"128 65536 0 1000 100 10 1 1 7 5", {}, {}, "compression flags out of range"},
      {"128 3 2 4 100 10 1 1 7 5", 1024, 2048},            // both fields in blocks
      {"128 0 0 1000 100 10 4294967296 1 7 5", {}, {}, "operationId out of range"},
      {"128 0 0 1000 -1 10 1 1 7 5", {}, {}, "negative start-time delta"},
      {"128 0 0 1000 100 -1 1 1 7 5", {}, {}, "negative completion time"},
      {"128 8 0 1000 100 10 1 1 5", {}, {}, "TRACE_NO_PROCESSID on first record"},
      {"255 a comment", {}, {}, nullptr},
      {"   ", {}, {}, nullptr},
  };
  for (const LineCase& c : cases) {
    SCOPED_TRACE(c.line);
    AsciiTraceDecoder decoder;
    if (c.error != nullptr) {
      try {
        (void)decoder.decode_line(c.line);
        ADD_FAILURE() << "expected an error containing '" << c.error << "'";
      } catch (const TraceFormatError& e) {
        EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos) << e.what();
      }
      continue;
    }
    const auto record = decoder.decode_line(c.line);
    ASSERT_EQ(record.has_value(), c.offset.has_value());
    if (!record) continue;
    EXPECT_EQ(record->record_type, 128);
    EXPECT_EQ(record->offset, *c.offset);
    EXPECT_EQ(record->length, *c.length);
    EXPECT_EQ(record->start_time, Ticks(100));
    EXPECT_EQ(record->completion_time, Ticks(10));
    EXPECT_EQ(record->operation_id, 1u);
    EXPECT_EQ(record->file_id, 1u);
    EXPECT_EQ(record->process_id, 7u);
    EXPECT_EQ(record->process_time, Ticks(5));
  }
}

}  // namespace
}  // namespace craysim::trace
