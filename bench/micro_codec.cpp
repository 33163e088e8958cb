// Microbenchmarks: trace-format encode/decode throughput and compression
// effectiveness (google-benchmark).
#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "sim/process.hpp"
#include "trace/binary.hpp"
#include "trace/binary_stream.hpp"
#include "trace/codec.hpp"
#include "trace/stats.hpp"
#include "trace/stream.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace {

using namespace craysim;

const trace::Trace& venus_trace() {
  static const trace::Trace t =
      workload::synthesize_trace(workload::make_profile(workload::AppId::kVenus));
  return t;
}

void BM_Encode(benchmark::State& state) {
  const trace::Trace& t = venus_trace();
  std::int64_t records = 0;
  for (auto _ : state) {
    trace::AsciiTraceEncoder encoder;
    std::size_t bytes = 0;
    for (const auto& r : t) bytes += encoder.encode(r).size();
    benchmark::DoNotOptimize(bytes);
    records += static_cast<std::int64_t>(t.size());
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_Encode);

void BM_Decode(benchmark::State& state) {
  const std::string wire = trace::serialize_trace(venus_trace());
  std::int64_t records = 0;
  for (auto _ : state) {
    const trace::Trace t = trace::parse_trace(wire);
    benchmark::DoNotOptimize(t.data());
    records += static_cast<std::int64_t>(t.size());
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_Decode);

void BM_ComputeStats(benchmark::State& state) {
  const trace::Trace& t = venus_trace();
  std::int64_t records = 0;
  for (auto _ : state) {
    const auto stats = trace::compute_stats(t);
    benchmark::DoNotOptimize(&stats);
    records += static_cast<std::int64_t>(t.size());
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_ComputeStats);

// Decoding the venus trace from the framed binary stream (span mode, as the
// mmap path runs it). The whole-trace text decode above is the number this
// must beat.
void BM_DecodeBinaryStream(benchmark::State& state) {
  const trace::Trace& source = venus_trace();
  std::ostringstream wire;
  {
    trace::BinaryTraceWriter writer(wire);
    for (const auto& r : source) writer.write(r);
  }
  const std::string bytes = wire.str();
  const std::span<const std::byte> payload(reinterpret_cast<const std::byte*>(bytes.data()),
                                           bytes.size());
  std::int64_t records = 0;
  for (auto _ : state) {
    trace::BinaryTraceReader reader(payload);
    std::int64_t n = 0;
    while (auto record = reader.next()) {
      benchmark::DoNotOptimize(&*record);
      ++n;
    }
    records += n;
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_DecodeBinaryStream);

// Cold-ish load of a text trace through the mmap-backed load_trace path
// (file stays in page cache between iterations, so this measures the mapped
// parse rather than disk).
void BM_LoadTraceMmap(benchmark::State& state) {
  const std::string path = "/tmp/craysim_bench_mmap_trace.txt";
  trace::save_trace(venus_trace(), path);
  std::int64_t records = 0;
  for (auto _ : state) {
    const trace::Trace t = trace::load_trace(path);
    benchmark::DoNotOptimize(t.data());
    records += static_cast<std::int64_t>(t.size());
  }
  state.SetItemsProcessed(records);
  std::remove(path.c_str());
}
BENCHMARK(BM_LoadTraceMmap);

// The text-replay path of sweepbench's replay_mix: five apps merged into one
// text trace, replayed by one StreamingReplaySource per pid. Each source
// decodes the whole file through open_record_stream (mmap) and keeps its
// own pid's records, so an iteration decodes every record five times. Each
// app is cut to its first 20k records to keep an iteration near 0.1 s.
void BM_DecodeFilteredReplay(benchmark::State& state) {
  constexpr workload::AppId kApps[] = {workload::AppId::kVenus, workload::AppId::kLes,
                                       workload::AppId::kCcm, workload::AppId::kForma,
                                       workload::AppId::kBvi};
  constexpr std::size_t kRecordsPerApp = 20000;
  std::vector<trace::Trace> traces;
  std::uint32_t next_op = 1;
  for (std::uint32_t k = 0; k < std::size(kApps); ++k) {
    workload::TraceGenOptions options;
    options.process_id = k + 1;
    options.file_id_base = 100 * k;
    options.first_operation_id = next_op;
    trace::Trace t =
        workload::synthesize_trace(workload::make_profile(kApps[k], 11 * (k + 1)), options);
    t.resize(std::min(t.size(), kRecordsPerApp));
    next_op += static_cast<std::uint32_t>(t.size());
    traces.push_back(std::move(t));
  }
  const std::string path = "/tmp/craysim_bench_replay_mix.trace";
  trace::save_trace(workload::merge_traces(traces), path);
  std::int64_t records = 0;
  for (auto _ : state) {
    for (std::uint32_t pid = 1; pid <= std::size(kApps); ++pid) {
      sim::StreamingReplaySource source(trace::open_record_stream(path), pid);
      while (auto request = source.next()) benchmark::DoNotOptimize(&*request);
      records += source.records_consumed();
    }
  }
  state.SetItemsProcessed(records);
  std::remove(path.c_str());
}
BENCHMARK(BM_DecodeFilteredReplay);

void BM_SynthesizeTrace(benchmark::State& state) {
  const auto profile = workload::make_profile(workload::AppId::kVenus);
  std::int64_t records = 0;
  for (auto _ : state) {
    const auto t = workload::synthesize_trace(profile);
    benchmark::DoNotOptimize(t.data());
    records += static_cast<std::int64_t>(t.size());
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_SynthesizeTrace);

}  // namespace

int main(int argc, char** argv) {
  return craysim::bench::run_micro_main(argc, argv, "codec");
}
