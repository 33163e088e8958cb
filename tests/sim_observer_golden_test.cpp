// Byte pins for everything the simulator's observation views emit: the
// Chrome trace JSON (spans, async I/O ops, disk slices, counter samples,
// eviction and space-wait instants), the attribution JSONL, and the
// annotated trace (TRACE_CACHE_HIT/MISS, TRACE_RA_HIT). Each scenario runs
// two scripted processes with every view on and hashes each artifact with
// FNV-1a, so any change to what the observers see, or to the order they
// emit it in, fails here. The serialized SimResult is pinned alongside to
// show the simulation itself did not move.
//
// Every request is smaller than the cache, so no request takes the
// larger-than-cache bypass path.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/attr.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"
#include "trace/stream.hpp"
#include "util/digest.hpp"
#include "workload/request.hpp"

namespace craysim {
namespace {

class ScriptedSource final : public workload::RequestSource {
 public:
  explicit ScriptedSource(std::vector<workload::Request> requests)
      : requests_(std::move(requests)) {}

  std::optional<workload::Request> next() override {
    if (pos_ >= requests_.size()) return std::nullopt;
    return requests_[pos_++];
  }
  Ticks final_compute() const override { return Ticks::from_ms(3); }

 private:
  std::vector<workload::Request> requests_;
  std::size_t pos_ = 0;
};

workload::Request req(double compute_ms, std::uint32_t file, Bytes offset, Bytes length,
                      bool write, bool async) {
  workload::Request r;
  r.compute = Ticks::from_ms(compute_ms);
  r.file = file;
  r.offset = offset;
  r.length = length;
  r.write = write;
  r.async = async;
  return r;
}

/// Sequential 48 KiB reads of file 1 (every third one async), a re-read of
/// the start, and a long compute gap that opens a second attribution phase.
std::vector<workload::Request> reader_script() {
  std::vector<workload::Request> script;
  for (std::int64_t i = 0; i < 24; ++i) {
    script.push_back(req(i == 12 ? 80.0 : 1.5, 1, Bytes{i} * 48 * kKiB, 48 * kKiB,
                         /*write=*/false, /*async=*/i % 3 == 2));
  }
  script.push_back(req(2.0, 1, 0, 32 * kKiB, false, false));
  script.push_back(req(2.0, 1, 40 * kKiB, 24 * kKiB, false, true));
  return script;
}

/// Back-to-back 96 KiB writes of two files (some async) that fill the cache
/// with dirty data faster than it drains, then reads of what it wrote.
std::vector<workload::Request> writer_script() {
  std::vector<workload::Request> script;
  for (std::int64_t i = 0; i < 20; ++i) {
    script.push_back(req(0.2, 2 + static_cast<std::uint32_t>(i % 2), Bytes{i / 2} * 96 * kKiB,
                         96 * kKiB, /*write=*/true, /*async=*/i % 4 == 3));
  }
  for (std::int64_t i = 0; i < 6; ++i) {
    script.push_back(req(1.0, 2, Bytes{i} * 64 * kKiB, 64 * kKiB, false, i % 2 == 1));
  }
  return script;
}

struct Digests {
  std::uint64_t chrome_json;
  std::uint64_t attribution_jsonl;
  std::uint64_t annotated_trace;
  std::uint64_t result;
};

std::uint64_t fnv(const std::string& text) {
  util::Fnv1a hash;
  hash.add_text(text);
  return hash.value();
}

struct ObservedRun {
  sim::SimResult result;
  Digests digests;
};

ObservedRun run_observed(sim::SimParams params) {
  obs::SpanRecorder spans;
  obs::AttributionLedger ledger;
  params.spans = &spans;
  params.attribution = &ledger;
  params.record_trace = true;
  params.counter_interval = Ticks::from_ms(20);
  params.disk_count = 2;
  params.disk_queueing = true;
  sim::Simulator simulator(params);
  simulator.add_process("reader", std::make_unique<ScriptedSource>(reader_script()));
  simulator.add_process("writer", std::make_unique<ScriptedSource>(writer_script()));
  ObservedRun run{simulator.run(), {}};
  EXPECT_EQ(obs::check_consistency(spans), "");
  std::ostringstream attr;
  obs::write_attr_jsonl(attr, run.result.attr, "golden");
  run.digests = {fnv(spans.chrome_json()), fnv(attr.str()),
                 fnv(trace::serialize_trace(run.result.annotated_trace, "golden")),
                 fnv(sim::serialize_sim_result(run.result))};
  return run;
}

void expect_digests(const Digests& got, const Digests& want) {
  EXPECT_EQ(got.chrome_json, want.chrome_json) << std::hex << "0x" << got.chrome_json;
  EXPECT_EQ(got.attribution_jsonl, want.attribution_jsonl)
      << std::hex << "0x" << got.attribution_jsonl;
  EXPECT_EQ(got.annotated_trace, want.annotated_trace) << std::hex << "0x" << got.annotated_trace;
  EXPECT_EQ(got.result, want.result) << std::hex << "0x" << got.result;
}

std::int64_t requests_of(const sim::SimResult& result) {
  std::int64_t n = 0;
  for (const auto& proc : result.processes) n += proc.io_count;
  return n;
}

TEST(ObserverGolden, WriteBehindCacheWithSpaceWaitsAndEvictions) {
  sim::SimParams params = sim::SimParams::paper_ssd(Bytes{512} * kKiB);
  const ObservedRun run = run_observed(params);
  // The scenario must keep exercising what it is meant to pin.
  ASSERT_GT(run.result.cache.space_waits, 0);
  ASSERT_GT(run.result.cache.evictions, 0);
  ASSERT_GT(run.result.cache.readahead_used_blocks, 0);
  ASSERT_GT(run.result.disk.queue_wait_time, Ticks::zero());
  EXPECT_EQ(run.result.attr.total.ops, requests_of(run.result));
  expect_digests(run.digests,
                 {0xdf99338aadcceb06, 0x6415425e41182f4d, 0xb76c509e966f655b, 0x453ed571f2af7cc1});
}

TEST(ObserverGolden, WriteThroughCacheWithoutReadAhead) {
  sim::SimParams params = sim::SimParams::paper_ssd(Bytes{512} * kKiB);
  params.cache.write_behind = false;
  params.cache.read_ahead = false;
  const ObservedRun run = run_observed(params);
  ASSERT_GT(run.result.cache.evictions, 0);
  EXPECT_EQ(run.result.attr.total.ops, requests_of(run.result));
  expect_digests(run.digests,
                 {0xff61eecf30cecf3d, 0x3ec24e8917a43b7c, 0xf3b5238f17df8834, 0x216d6f750ed88866});
}

TEST(ObserverGolden, NoCache) {
  const ObservedRun run = run_observed(sim::SimParams::no_cache());
  ASSERT_GT(run.result.disk.queue_wait_time, Ticks::zero());
  EXPECT_EQ(run.result.attr.total.ops, requests_of(run.result));
  expect_digests(run.digests,
                 {0x93194add0dfaead, 0xe4da56aa0735ec3a, 0xf3b5238f17df8834, 0x445ca797f9cf895a});
}

}  // namespace
}  // namespace craysim
