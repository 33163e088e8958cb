// Microbenchmarks: trace-format encode/decode throughput and compression
// effectiveness (google-benchmark).
#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include <cstdio>
#include <span>
#include <sstream>
#include <string>

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
