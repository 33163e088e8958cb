// Microbenchmark for the parallel experiment runner: wall-clock for a
// policy-style sweep executed serially vs across all cores, plus the
// determinism check that both orderings produce bit-identical results.
//
// Exits nonzero only if the parallel results diverge from the serial ones;
// the measured speedup is reported (and written to the "runner" JSON
// section) but not gated, since it depends on the host's core count.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "runner/runner.hpp"
#include "sim/simulator.hpp"
#include "util/digest.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace craysim;

struct SweepPoint {
  Bytes cache_size = 0;
  bool read_ahead = false;
  bool write_behind = false;
};

std::uint64_t run_point(const SweepPoint& point) {
  sim::SimParams params = sim::SimParams::paper_main_memory(point.cache_size);
  params.cache.read_ahead = point.read_ahead;
  params.cache.write_behind = point.write_behind;
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kVenus, 11));
  const sim::SimResult result = simulator.run();
  util::Fnv1a digest;
  digest.add(result.total_wall.count());
  digest.add(result.cpu_busy.count());
  digest.add(result.cpu_idle.count());
  digest.add(result.cache.read_requests);
  digest.add(result.cache.read_misses);
  digest.add(result.cache.write_requests);
  digest.add(result.cache.evictions);
  digest.add(result.disk.read_ops);
  digest.add(result.disk.write_ops);
  return digest.value();
}

double sweep_seconds(runner::ExperimentRunner& pool, const std::vector<SweepPoint>& points,
                     std::vector<std::uint64_t>& digests) {
  const auto begin = std::chrono::steady_clock::now();
  digests = pool.run(points, run_point);
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - begin).count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::take_json_arg(argc, argv);
  bench::heading("Experiment-runner microbenchmark: serial vs parallel sweep");

  std::vector<SweepPoint> points;
  for (const Bytes mb : {8, 16, 32}) {
    for (const bool ra : {true, false}) {
      for (const bool wb : {true, false}) {
        points.push_back({mb * kMB, ra, wb});
      }
    }
  }

  runner::ExperimentRunner serial(runner::RunnerOptions{.threads = 1});
  runner::ExperimentRunner parallel{};  // CRAYSIM_RUNNER_THREADS or all cores
  std::vector<std::uint64_t> serial_digests;
  std::vector<std::uint64_t> parallel_digests;
  // Parallel first so the serial pass cannot win from a warm page cache.
  const double parallel_s = sweep_seconds(parallel, points, parallel_digests);
  const double serial_s = sweep_seconds(serial, points, serial_digests);
  const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;

  const bool identical = serial_digests == parallel_digests;
  std::printf("sweep points:      %zu\n", points.size());
  std::printf("threads (parallel): %u\n", parallel.thread_count());
  std::printf("serial:            %.3f s\n", serial_s);
  std::printf("parallel:          %.3f s\n", parallel_s);
  std::printf("speedup:           %.2fx\n", speedup);
  bench::check(identical, "parallel sweep results are bit-identical to the serial sweep");

  if (!json_path.empty()) {
    bench::write_json_section(json_path, "runner",
                              {{"sweep_points", static_cast<double>(points.size())},
                               {"threads", static_cast<double>(parallel.thread_count())},
                               {"serial_s", serial_s},
                               {"parallel_s", parallel_s},
                               {"speedup", speedup}});
  }
  return bench::exit_status();
}
