// Reproduces the Section 5.2/5.3 access-pattern analysis: high
// sequentiality, constant per-stream request sizes, traffic concentrated in
// a few large files, and cyclic bursts matching the algorithms' iterations.
#include <cstdio>

#include "analysis/patterns.hpp"
#include "bench_common.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

int main() {
  using namespace craysim;
  bench::heading("Sections 5.2/5.3: access-pattern characteristics per application");

  TextTable table({"app", "sequential %", "constant-size %", "top-6-file byte share %",
                   "burst spacing s", "regularity"});
  bool seq_ok = true;
  bool size_ok = true;
  bool conc_ok = true;
  for (const workload::AppId app : workload::all_apps()) {
    const auto profile = workload::make_profile(app);
    const auto trace = workload::synthesize_trace(profile);
    const auto report = analysis::analyze_patterns(trace);
    const auto stats = trace::compute_stats(trace);
    table.row()
        .cell(std::string(workload::app_name(app)))
        .num(100.0 * report.sequential_fraction, 1)
        .num(100.0 * report.constant_size_share, 1)
        .num(100.0 * stats.top_file_byte_share(6), 1)
        .num(report.cycle_seconds, 2)
        .num(report.cycle_strength, 2);
    seq_ok &= report.sequential_fraction > 0.80;
    size_ok &= report.constant_size_share > 0.90;
    conc_ok &= stats.top_file_byte_share(6) > 0.90;
  }
  std::printf("%s", table.render().c_str());

  bench::check(seq_ok, "file accesses are highly sequential (>80% in every application)");
  bench::check(size_ok, "request sizes are essentially constant within each stream");
  bench::check(conc_ok, "a small number of files carries the vast majority of bytes");
  return bench::exit_status();
}
