// Streaming replay: a simulation fed records on demand (StreamingReplaySource
// over open_record_stream) must be bit-identical — the full serialized
// SimResult — to one fed the materialized Trace, for text and binary inputs,
// mmap and bounded-stream paths, and across runner sweep points sharing one
// mapping.
#include "sim/process.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "runner/runner.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/binary_stream.hpp"
#include "trace/mapped_file.hpp"
#include "trace/stream.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace craysim::sim {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

const trace::Trace& venus() {
  static const trace::Trace t =
      workload::synthesize_trace(workload::make_profile(workload::AppId::kVenus));
  return t;
}

/// The whole-trace side of every comparison: the materialized trace,
/// replayed from memory.
std::unique_ptr<StreamingReplaySource> in_memory(trace::Trace t, std::uint32_t pid = 0) {
  return std::make_unique<StreamingReplaySource>(
      std::make_unique<trace::InMemorySource>(std::move(t)), pid);
}

std::string run_replay(std::unique_ptr<workload::RequestSource> source) {
  Simulator s(SimParams::paper_ssd(Bytes{64} * kMB));
  s.add_process("replay", std::move(source));
  return serialize_sim_result(s.run());
}

TEST(StreamingReplay, RequestStreamMatchesVectorReplay) {
  const std::string path = temp_path("craysim_streaming_requests.bin");
  trace::save_trace_binary(venus(), path);
  const auto whole = in_memory(venus());
  StreamingReplaySource streamed(trace::open_record_stream(path));
  while (true) {
    const auto a = whole->next();
    const auto b = streamed.next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    EXPECT_EQ(a->compute, b->compute);
    EXPECT_EQ(a->file, b->file);
    EXPECT_EQ(a->offset, b->offset);
    EXPECT_EQ(a->length, b->length);
    EXPECT_EQ(a->write, b->write);
    EXPECT_EQ(a->async, b->async);
  }
  EXPECT_EQ(streamed.records_consumed(), static_cast<std::int64_t>(venus().size()));
  std::remove(path.c_str());
}

TEST(StreamingReplay, BinaryStreamReplayIsBitIdenticalToWholeTrace) {
  const std::string path = temp_path("craysim_streaming_replay.bin");
  trace::save_trace_binary(venus(), path);
  const std::string whole = run_replay(in_memory(venus()));

  for (const bool prefer_mmap : {true, false}) {
    trace::StreamOptions options;
    options.prefer_mmap = prefer_mmap;
    const std::string streamed = run_replay(
        std::make_unique<StreamingReplaySource>(trace::open_record_stream(path, options)));
    EXPECT_EQ(streamed, whole) << "prefer_mmap=" << prefer_mmap;
  }
  std::remove(path.c_str());
}

TEST(StreamingReplay, TextStreamReplayIsBitIdenticalToWholeTrace) {
  const std::string path = temp_path("craysim_streaming_replay.trace");
  trace::save_trace(venus(), path, "streaming replay");
  const std::string whole = run_replay(in_memory(venus()));
  for (const bool prefer_mmap : {true, false}) {
    trace::StreamOptions options;
    options.prefer_mmap = prefer_mmap;
    const std::string streamed = run_replay(
        std::make_unique<StreamingReplaySource>(trace::open_record_stream(path, options)));
    EXPECT_EQ(streamed, whole) << "prefer_mmap=" << prefer_mmap;
  }
  std::remove(path.c_str());
}

TEST(StreamingReplay, FiltersByProcessIdLikeVectorReplay) {
  trace::Trace t;
  Ticks time(0);
  for (std::uint32_t i = 0; i < 12; ++i) {
    trace::TraceRecord r;
    r.record_type = trace::make_record_type(true, i % 2 == 0, false);
    r.process_id = 1 + i % 3;
    r.file_id = 1;
    r.operation_id = i + 1;
    r.offset = Bytes{i} * 512;
    r.length = 512;
    time += Ticks(10);
    r.start_time = time;
    r.completion_time = Ticks(5);
    r.process_time = Ticks(7);
    t.push_back(r);
  }
  const std::string path = temp_path("craysim_streaming_filter.bin");
  trace::save_trace_binary(t, path);

  const auto whole = in_memory(t, 2);
  StreamingReplaySource streamed(trace::open_record_stream(path), 2);
  while (true) {
    const auto a = whole->next();
    const auto b = streamed.next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    EXPECT_EQ(a->offset, b->offset);
  }
  std::remove(path.c_str());
}

TEST(StreamingReplay, SweepPointsShareOneMappingAndAgree) {
  // The runner fan-out case: map the trace once, give every sweep point its
  // own zero-copy reader over the shared mapping. Every point must produce
  // the whole-trace result.
  const std::string path = temp_path("craysim_streaming_sweep.bin");
  trace::save_trace_binary(venus(), path);
  const std::string whole = run_replay(in_memory(venus()));

  auto mapping = trace::MappedFile::open(path);
  ASSERT_TRUE(mapping.has_value());
  const auto mapped = std::make_shared<const trace::MappedFile>(std::move(*mapping));
  runner::ExperimentRunner pool;
  const std::vector<int> points = {0, 1, 2};
  const auto results = pool.run(points, [&](int) {
    return run_replay(std::make_unique<StreamingReplaySource>(
        std::make_unique<trace::BinaryTraceReader>(mapped->bytes())));
  });
  for (const auto& result : results) EXPECT_EQ(result, whole);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace craysim::sim
