// Simulator engine tests on small deterministic workloads.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "sim/process.hpp"
#include "trace/stats.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace craysim::sim {
namespace {

/// A scripted request source for precise scenarios.
class ScriptedSource final : public workload::RequestSource {
 public:
  explicit ScriptedSource(std::vector<workload::Request> requests, Ticks tail = Ticks::zero())
      : requests_(std::move(requests)), tail_(tail) {}

  std::optional<workload::Request> next() override {
    if (pos_ >= requests_.size()) return std::nullopt;
    return requests_[pos_++];
  }
  Ticks final_compute() const override { return tail_; }

 private:
  std::vector<workload::Request> requests_;
  std::size_t pos_ = 0;
  Ticks tail_;
};

workload::Request req(double compute_s, std::uint32_t file, Bytes offset, Bytes length,
                      bool write, bool async = false) {
  workload::Request r;
  r.compute = Ticks::from_seconds(compute_s);
  r.file = file;
  r.offset = offset;
  r.length = length;
  r.write = write;
  r.async = async;
  return r;
}

SimParams fast_params() {
  SimParams p = SimParams::paper_main_memory(Bytes{1} * kMB);
  return p;
}

TEST(Simulator, RequiresProcesses) {
  Simulator s(fast_params());
  EXPECT_THROW((void)s.run(), ConfigError);
}

TEST(Simulator, ComputeOnlyProcessFinishesAtCpuTime) {
  Simulator s(fast_params());
  s.add_process("compute", std::make_unique<ScriptedSource>(std::vector<workload::Request>{},
                                                            Ticks::from_seconds(5)));
  const auto result = s.run();
  ASSERT_EQ(result.processes.size(), 1u);
  // Wall = context switch + 5 s of compute.
  EXPECT_NEAR(result.total_wall.seconds(), 5.0, 0.01);
  EXPECT_EQ(result.processes[0].cpu_time, Ticks::from_seconds(5));
  EXPECT_EQ(result.processes[0].io_count, 0);
  EXPECT_GT(result.cpu_utilization(), 0.99);
}

TEST(Simulator, SyncReadMissBlocksProcess) {
  SimParams params = fast_params();
  Simulator s(params);
  s.add_process("reader", std::make_unique<ScriptedSource>(std::vector<workload::Request>{
                    req(1.0, 1, 0, 64 * kKiB, false)}));
  const auto result = s.run();
  // Wall >= compute + a disk access (controller + seek + transfer).
  EXPECT_GT(result.total_wall.seconds(), 1.002);
  EXPECT_GT(result.processes[0].blocked_time, Ticks::zero());
  EXPECT_EQ(result.cache.read_misses, 1);
  EXPECT_EQ(result.disk.read_ops, 1);
  EXPECT_GT(result.cpu_idle, Ticks::zero());
}

TEST(Simulator, CachedRereadDoesNotTouchDisk) {
  Simulator s(fast_params());
  s.add_process("reader", std::make_unique<ScriptedSource>(std::vector<workload::Request>{
                    req(0.1, 1, 0, 64 * kKiB, false), req(0.1, 1, 0, 64 * kKiB, false)}));
  const auto result = s.run();
  EXPECT_EQ(result.cache.read_full_hits, 1);
  EXPECT_EQ(result.disk.read_ops, 1);
}

TEST(Simulator, WriteBehindAbsorbsWrites) {
  Simulator s(fast_params());
  s.add_process("writer", std::make_unique<ScriptedSource>(std::vector<workload::Request>{
                    req(0.1, 1, 0, 64 * kKiB, true), req(0.1, 1, 64 * kKiB, 64 * kKiB, true)}));
  const auto result = s.run();
  EXPECT_EQ(result.cache.write_absorbed, 2);
  EXPECT_EQ(result.processes[0].blocked_time, Ticks::zero());
  // The background flusher still pushed the data to disk.
  EXPECT_EQ(result.disk.bytes_written, 128 * kKiB);
}

TEST(Simulator, WriteThroughBlocks) {
  SimParams params = fast_params();
  params.cache.write_behind = false;
  Simulator s(params);
  s.add_process("writer", std::make_unique<ScriptedSource>(std::vector<workload::Request>{
                    req(0.1, 1, 0, 64 * kKiB, true)}));
  const auto result = s.run();
  EXPECT_GT(result.processes[0].blocked_time, Ticks::zero());
  EXPECT_EQ(result.disk.write_ops, 1);
}

TEST(Simulator, AsyncRequestsNeverBlock) {
  Simulator s(fast_params());
  s.add_process("async", std::make_unique<ScriptedSource>(std::vector<workload::Request>{
                    req(0.1, 1, 0, 64 * kKiB, false, true),
                    req(0.1, 1, 64 * kKiB, 64 * kKiB, true, true),
                    req(0.1, 2, 0, 64 * kKiB, false, true)}));
  const auto result = s.run();
  EXPECT_EQ(result.processes[0].blocked_time, Ticks::zero());
  EXPECT_GT(result.disk.read_ops, 0);
}

TEST(Simulator, NoCacheModeGoesStraightToDisk) {
  Simulator s(SimParams::no_cache());
  s.add_process("direct", std::make_unique<ScriptedSource>(std::vector<workload::Request>{
                    req(0.1, 1, 0, 64 * kKiB, false), req(0.1, 1, 0, 64 * kKiB, false)}));
  const auto result = s.run();
  EXPECT_EQ(result.disk.read_ops, 2);  // no caching: re-read hits disk again
  EXPECT_EQ(result.cache.read_requests, 0);
}

TEST(Simulator, OversizedRequestBypassesCache) {
  SimParams params = fast_params();  // 1 MB cache
  Simulator s(params);
  s.add_process("big", std::make_unique<ScriptedSource>(std::vector<workload::Request>{
                    req(0.1, 1, 0, Bytes{2} * kMB, false)}));
  const auto result = s.run();
  EXPECT_EQ(result.disk.bytes_read, Bytes{2} * kMB);
  EXPECT_EQ(result.cache.read_full_hits, 0);
}

TEST(Simulator, ReadAheadTurnsSequentialReadsIntoHits) {
  SimParams with = fast_params();
  SimParams without = fast_params();
  without.cache.read_ahead = false;
  auto script = [] {
    std::vector<workload::Request> requests;
    for (int i = 0; i < 20; ++i) {
      requests.push_back(req(0.05, 1, Bytes{i} * 16 * kKiB, 16 * kKiB, false));
    }
    return requests;
  };
  Simulator sa(with);
  sa.add_process("ra", std::make_unique<ScriptedSource>(script()));
  const auto ra = sa.run();
  Simulator sb(without);
  sb.add_process("nora", std::make_unique<ScriptedSource>(script()));
  const auto nora = sb.run();
  EXPECT_GT(ra.cache.readahead_issued, 0);
  EXPECT_GT(ra.cache.read_full_hits, nora.cache.read_full_hits);
  EXPECT_LT(ra.total_wall, nora.total_wall);
  EXPECT_GT(ra.cache.readahead_accuracy(), 0.5);
}

TEST(Simulator, RoundRobinSharesCpuBetweenComputeBoundProcesses) {
  SimParams params = fast_params();
  Simulator s(params);
  s.add_process("a", std::make_unique<ScriptedSource>(std::vector<workload::Request>{},
                                                      Ticks::from_seconds(2)));
  s.add_process("b", std::make_unique<ScriptedSource>(std::vector<workload::Request>{},
                                                      Ticks::from_seconds(2)));
  const auto result = s.run();
  // Both must finish around 4 s (sharing one CPU), not 2 s.
  EXPECT_NEAR(result.total_wall.seconds(), 4.0, 0.1);
  const double a = result.processes[0].finish_time.seconds();
  const double b = result.processes[1].finish_time.seconds();
  // Round-robin: the two finishes are within a quantum-ish of each other.
  EXPECT_NEAR(a, b, 0.1);
}

TEST(Simulator, BlockedProcessYieldsCpuToOther) {
  SimParams params = fast_params();
  Simulator s(params);
  // One I/O-bound process, one compute-bound: the compute-bound one should
  // absorb the CPU while the other waits for disk.
  std::vector<workload::Request> io_script;
  for (int i = 0; i < 10; ++i) {
    io_script.push_back(req(0.01, 1, Bytes{i} * 256 * kKiB, 16 * kKiB, false));
  }
  s.add_process("io", std::make_unique<ScriptedSource>(io_script));
  s.add_process("cpu", std::make_unique<ScriptedSource>(std::vector<workload::Request>{},
                                                        Ticks::from_seconds(1)));
  const auto result = s.run();
  EXPECT_GT(result.cpu_utilization(), 0.85);
}

TEST(Simulator, AccountingIsConsistent) {
  Simulator s(fast_params());
  s.add_process("mix", std::make_unique<ScriptedSource>(std::vector<workload::Request>{
                    req(0.5, 1, 0, 64 * kKiB, false), req(0.5, 1, 0, 32 * kKiB, true)}));
  const auto result = s.run();
  // busy + idle ~= wall; overhead <= busy.
  EXPECT_NEAR((result.cpu_busy + result.cpu_idle).seconds(), result.total_wall.seconds(), 0.05);
  EXPECT_LE(result.overhead_time, result.cpu_busy);
  EXPECT_EQ(result.processes[0].bytes_read, 64 * kKiB);
  EXPECT_EQ(result.processes[0].bytes_written, 32 * kKiB);
  EXPECT_EQ(result.processes[0].io_count, 2);
}

TEST(Simulator, SeriesRecordTraffic) {
  Simulator s(fast_params());
  s.add_process("reader", std::make_unique<ScriptedSource>(std::vector<workload::Request>{
                    req(0.1, 1, 0, 64 * kKiB, false)}));
  const auto result = s.run();
  EXPECT_NEAR(result.logical_rate.total(), 64.0 * 1024, 1.0);
  EXPECT_NEAR(result.disk_rate.total(), 64.0 * 1024, 1.0);
  EXPECT_NEAR(result.disk_read_rate.total(), 64.0 * 1024, 1.0);
  EXPECT_EQ(result.disk_write_rate.total(), 0.0);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator s(SimParams::paper_ssd(Bytes{64} * kMB));
    s.add_app(workload::make_profile(workload::AppId::kCcm, 5));
    return s.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.total_wall, b.total_wall);
  EXPECT_EQ(a.cpu_idle, b.cpu_idle);
  EXPECT_EQ(a.disk.read_ops, b.disk.read_ops);
}

TEST(Simulator, TraceReplayMatchesGeneratorBehaviour) {
  // Replaying a synthesized trace must reproduce the same I/O demand as
  // running the generator online.
  const auto profile = workload::make_profile(workload::AppId::kUpw, 3);
  const auto trace = workload::synthesize_trace(profile);

  Simulator replay_sim(SimParams::paper_ssd(Bytes{64} * kMB));
  replay_sim.add_process("replay", std::make_unique<StreamingReplaySource>(
                                       std::make_unique<trace::InMemorySource>(trace)));
  const auto replayed = replay_sim.run();

  EXPECT_EQ(replayed.processes[0].io_count, static_cast<std::int64_t>(trace.size()));
  const auto stats = trace::compute_stats(trace);
  EXPECT_EQ(replayed.processes[0].bytes_read + replayed.processes[0].bytes_written,
            stats.total_bytes());
  EXPECT_NEAR(replayed.processes[0].cpu_time.seconds(), stats.cpu_time.seconds(), 1.0);
}

TEST(StreamingReplaySource, FiltersByProcessId) {
  trace::Trace t;
  for (std::uint32_t pid : {1u, 2u, 1u}) {
    trace::TraceRecord r;
    r.record_type = trace::make_record_type(true, false, false);
    r.process_id = pid;
    r.file_id = 1;
    r.length = 100;
    r.process_time = Ticks(10);
    t.push_back(r);
  }
  StreamingReplaySource source(std::make_unique<trace::InMemorySource>(t), 1);
  int count = 0;
  while (source.next()) ++count;
  EXPECT_EQ(count, 2);
}

TEST(StreamingReplaySource, SkipsNonLogicalRecords) {
  trace::Trace t;
  trace::TraceRecord phys;
  phys.record_type = trace::make_record_type(false, false, false);
  phys.length = 100;
  t.push_back(phys);
  trace::TraceRecord meta;
  meta.record_type = trace::make_record_type(true, true, false, trace::DataClass::kMetaData);
  meta.length = 100;
  t.push_back(meta);
  StreamingReplaySource source(std::make_unique<trace::InMemorySource>(t));
  EXPECT_FALSE(source.next().has_value());
}

}  // namespace
}  // namespace craysim::sim
