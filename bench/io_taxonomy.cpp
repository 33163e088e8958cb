// Reproduces the Section 5.1 taxonomy arithmetic and the Section 1 Amdahl
// balance discussion:
//  * required I/O example: 50 MB in + 100 MB out over 200 s -> 0.75 MB/s;
//  * checkpoint example: 40 MB of state every 20 CPU-seconds -> 2 MB/s;
//  * data-swapping example: 3 words (24 B) per 200 FLOPs on a 200 MFLOPS
//    processor -> ~24-25 MB/s, essentially Amdahl's 1 Mbit/s per MIPS;
// then classifies each traced application and reports its Amdahl ratio.
#include <cmath>
#include <cstdio>

#include "analysis/taxonomy.hpp"
#include "bench_common.hpp"
#include "trace/stats.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

int main() {
  using namespace craysim;
  bench::heading("Section 5.1 / Section 1: I/O classes and the Amdahl balance metric");

  const double required = analysis::required_io_mb_s(Bytes{50} * kMB, Bytes{100} * kMB,
                                                     Ticks::from_seconds(200));
  const double checkpoint =
      analysis::checkpoint_mb_s(Bytes{40} * kMB, Ticks::from_seconds(20));
  const double swap = analysis::swap_mb_s(24.0, 200.0, 200.0);
  std::printf("worked examples (paper / computed):\n");
  std::printf("  required I/O    0.75 / %.2f MB/s\n", required);
  std::printf("  checkpointing   2    / %.2f MB/s\n", checkpoint);
  std::printf("  data swapping   ~25  / %.2f MB/s\n", swap);
  std::printf("  Amdahl check: 24 B per 200 FLOP = %.0f bits per 200 FLOP (metric wants 200)\n\n",
              24.0 * 8);

  // Per-application classification and balance on a 167 MIPS Y-MP CPU.
  const double mips = 167.0;
  TextTable table({"app", "MB/s", "class", "Amdahl Mbit/s per MIPS"});
  int swapping = 0;
  int required_only = 0;
  for (const workload::AppId app : workload::all_apps()) {
    const auto trace = workload::synthesize_trace(workload::make_profile(app));
    const auto stats = trace::compute_stats(trace);
    const auto io_class = analysis::classify_io(stats);
    table.row()
        .cell(std::string(workload::app_name(app)))
        .num(stats.mb_per_cpu_second(), 2)
        .cell(analysis::to_string(io_class))
        .num(analysis::amdahl_ratio(stats.mb_per_cpu_second(), mips), 3);
    if (io_class == analysis::IoClass3::kDataSwapping) ++swapping;
    if (io_class == analysis::IoClass3::kRequiredOnly) ++required_only;
  }
  std::printf("%s", table.render().c_str());

  bench::check(std::abs(required - 0.75) < 1e-9, "required-I/O example computes to 0.75 MB/s");
  bench::check(std::abs(checkpoint - 2.0) < 1e-9, "checkpoint example computes to 2 MB/s");
  bench::check(swap > 23.0 && swap < 26.0, "data-swapping example computes to ~24-25 MB/s");
  bench::check(swapping == 5 && required_only == 2,
               "five applications swap data each iteration; gcm and upw do only required I/O");
  return bench::exit_status();
}
