// Tests the Section 2.1 / 6.2 delayed-write argument from both sides.
//
// Sprite delays writes 30-60 s so that short-lived temporary files (compiler
// intermediates) die in the cache and never reach disk. The paper argues
// this buys little on a supercomputer: "most data written to a
// supercomputer's main memory file cache must go to disk because iterations
// take hundreds of seconds and files are hundreds of megabytes long."
//
// Part 1 recreates the workstation case with a compiler-like temp-file
// workload driven straight at the buffer cache. Part 2 runs venus in a
// small main-memory cache under increasing delayed-write ages, one sweep
// point per age (flags: see bench::PaperSweep in sweep_obs.hpp).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/cache.hpp"
#include "sweep_obs.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace craysim;

/// Workstation-style workload: `files` temporary files of `size` each are
/// written and then deleted `lifetime` later. Returns the fraction of dirty
/// blocks that never reached disk under the given delay threshold.
double temp_file_absorption(Ticks delay, Ticks lifetime, int sync_every_steps) {
  sim::CacheParams params;
  params.capacity = Bytes{64} * kMB;
  params.block_size = 4 * kKiB;
  sim::CacheMetrics metrics;
  sim::BufferCache cache(params, metrics);
  const Bytes size = 256 * kKiB;
  const int files = 200;
  const Ticks spacing = Ticks::from_seconds(1);

  Ticks clock;
  std::int64_t flushed_blocks = 0;
  std::int64_t written_blocks = 0;
  std::uint64_t op = 1;
  std::int64_t deleted = 0;
  for (int step = 0; step < files * 3; ++step) {
    clock += spacing;
    // Periodic sync: flush blocks older than `delay`. Prompt write-behind
    // syncs every second; Sprite syncs every 30 s.
    if (step % sync_every_steps == sync_every_steps - 1) {
      for (const auto& run : cache.collect_flush_batch(1 << 20, 0, clock, delay)) {
        flushed_blocks += run.count;
        cache.flush_complete(run);
      }
    }
    if (step < files) {
      const auto file = static_cast<std::uint32_t>(step + 1);
      const auto plan = cache.plan_write(1, file, 0, size, op++, /*write_behind=*/true, clock);
      (void)plan;
      written_blocks += size / params.block_size;
    }
    // Delete each file `lifetime` after it was written.
    const std::int64_t due = step - lifetime / spacing;
    if (due >= 0 && due < files) {
      (void)cache.invalidate_file(static_cast<std::uint32_t>(due + 1));
      ++deleted;
    }
  }
  // Final sync of whatever survived.
  for (const auto& run : cache.collect_flush_batch(1 << 20, 0, clock, Ticks::zero())) {
    flushed_blocks += run.count;
    cache.flush_complete(run);
  }
  return 1.0 - static_cast<double>(flushed_blocks) / static_cast<double>(written_blocks);
}

sim::SimParams venus_params(std::int64_t delay_s) {
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{16} * kMB);
  params.cache.delayed_write_age = Ticks::from_seconds(static_cast<double>(delay_s));
  return params;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PaperSweep sweep(argc, argv);
  bench::heading("Sections 2.1/6.2: what delayed writes buy — workstations vs supercomputers");

  std::printf("Part 1: compiler-style temp files (256 KB each, deleted 10 s after creation),\n"
              "        periodic 30 s sync, varying delayed-write age:\n\n");
  TextTable t1({"delay s", "writes absorbed %"});
  const double absorbed_0 =
      temp_file_absorption(Ticks::zero(), Ticks::from_seconds(10), /*sync_every_steps=*/1);
  const double absorbed_30 = temp_file_absorption(Ticks::from_seconds(30),
                                                  Ticks::from_seconds(10), /*sync=*/30);
  t1.row().integer(0).num(100.0 * absorbed_0, 1);
  t1.row().integer(30).num(100.0 * absorbed_30, 1);
  std::printf("%s\n", t1.render().c_str());

  std::printf("Part 2: venus in a 16 MB main-memory cache — disk write traffic vs delay:\n\n");
  TextTable t2({"delay s", "bytes written to disk MB"});
  const std::vector<std::int64_t> delays_s = {0, 5, 30};
  const auto results = sweep.run(
      delays_s, [](std::int64_t s) { return "venus, delay " + std::to_string(s) + " s"; },
      venus_params,
      [](const sim::SimParams& p) { return bench::run_apps(p, {workload::AppId::kVenus}); });
  for (std::size_t i = 0; i < delays_s.size(); ++i) {
    const auto mb = static_cast<double>(results[i].disk.bytes_written) / 1e6;
    t2.row().integer(delays_s[i]).num(mb, 0);
  }
  std::printf("%s\n", t2.render().c_str());
  const Bytes w0 = results[0].disk.bytes_written;
  const Bytes w30 = results[2].disk.bytes_written;

  bench::check(absorbed_30 > 0.90,
               "workstation case: a 30 s delay absorbs nearly all temp-file writes");
  bench::check(absorbed_0 < 0.40, "without the delay most temp-file data reaches disk");
  const double change = std::abs(static_cast<double>(w30 - w0)) / static_cast<double>(w0);
  std::printf("venus disk-write change with 30 s delay: %.1f%%\n", 100.0 * change);
  bench::check(change < 0.25,
               "supercomputer case: delaying writes barely changes disk traffic (data "
               "must go to disk anyway)");
  return bench::exit_status(sweep.finish(results));
}
