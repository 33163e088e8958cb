// Reproduces Table 2: I/O request rates and data rates of the traced
// applications, split by direction, with the read/write data ratio.
#include <cmath>
#include <cstdio>

#include "analysis/tables.hpp"
#include "bench_common.hpp"
#include "trace/stats.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

int main() {
  using namespace craysim;
  bench::heading("Table 2: I/O request rates and data rates");

  std::vector<analysis::AppMeasurement> measurements;
  for (const workload::AppId app : workload::all_apps()) {
    const auto profile = workload::make_profile(app);
    const auto trace = workload::synthesize_trace(profile);
    measurements.push_back({app, trace::compute_stats(trace)});
  }
  const TextTable table = analysis::build_table2(measurements);
  std::printf("%s", table.render().c_str());

  // Section 5.2's qualitative claims on top of the raw numbers.
  auto stats_of = [&](workload::AppId id) -> const trace::TraceStats& {
    for (const auto& m : measurements) {
      if (m.app == id) return m.stats;
    }
    std::abort();
  };
  const auto& gcm = stats_of(workload::AppId::kGcm);
  const auto& upw = stats_of(workload::AppId::kUpw);
  const auto& forma = stats_of(workload::AppId::kForma);

  bench::check(gcm.read_write_ratio() < 1.0 && upw.read_write_ratio() < 1.0,
               "only gcm and upw (the low-I/O programs) have R/W ratios well under one");
  bool heavy_ok = true;
  for (const auto& m : measurements) {
    if (m.app == workload::AppId::kGcm || m.app == workload::AppId::kUpw) continue;
    if (m.app == workload::AppId::kLes) continue;  // les is ~0.95, the paper's borderline case
    heavy_ok &= m.stats.read_write_ratio() >= 1.0;
  }
  bench::check(heavy_ok, "I/O-heavy programs re-read data: R/W ratio >= 1");
  bench::check(forma.read_write_ratio() > 8.0,
               "forma re-reads its sparse blocks many times (R/W ~ 11)");
  return bench::exit_status();
}
