// Reproduces Table 1: characteristics of the traced applications.
//
// The paper gathered these numbers from library-level traces of seven
// production codes on Cray Y-MPs; we regenerate them from the calibrated
// synthetic models. Cells read "paper / measured (delta%)".
#include <cstdio>

#include "analysis/tables.hpp"
#include "bench_common.hpp"
#include "trace/stats.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

int main() {
  using namespace craysim;
  bench::heading("Table 1: Characteristics of the traced applications");

  std::vector<analysis::AppMeasurement> measurements;
  for (const workload::AppId app : workload::all_apps()) {
    const auto profile = workload::make_profile(app);
    const auto trace = workload::synthesize_trace(profile);
    measurements.push_back({app, trace::compute_stats(trace)});
  }
  const TextTable table = analysis::build_table1(measurements);
  std::printf("%s", table.render().c_str());

  // Headline sanity: every application's aggregate data rate within 15% of
  // the published value (gcm/upw have sub-MB/s rates where the scan's
  // precision is the limit; they get an absolute tolerance instead).
  bool all_ok = true;
  for (const auto& m : measurements) {
    const auto& paper = workload::paper_stats(m.app);
    const double measured = m.stats.mb_per_cpu_second();
    const bool ok = paper.mb_per_s > 1.0
                        ? std::abs(measured - paper.mb_per_s) / paper.mb_per_s < 0.15
                        : std::abs(measured - paper.mb_per_s) < 0.05;
    if (!ok) {
      std::printf("  !! %s: MB/s paper %.3f vs measured %.3f\n", paper.name.data(),
                  paper.mb_per_s, measured);
      all_ok = false;
    }
  }
  bench::check(all_ok, "per-application aggregate data rates match Table 1");
  return bench::exit_status();
}
