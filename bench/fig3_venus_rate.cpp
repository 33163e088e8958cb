// Reproduces Figure 3: data rate over process CPU time for venus.
//
// The paper's plot shows regular bursts reaching ~100 MB per CPU second,
// evenly spaced over the 379 s run, around a ~44 MB/s mean (the figure's
// dashed line sits at 41.1 for the window shown).
#include <algorithm>
#include <cstdio>

#include "analysis/series.hpp"
#include "bench_common.hpp"
#include "util/stats.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

int main() {
  using namespace craysim;
  bench::heading("Figure 3: Data rate over time for venus (MB per CPU second)");

  const auto profile = workload::make_profile(workload::AppId::kVenus);
  const auto trace = workload::synthesize_trace(profile);
  const BinnedSeries series = analysis::cpu_time_rate_series(trace);
  const auto rates = series.rates();
  bench::print_rate_figure(rates, "MB/s", "process CPU seconds", series.bin_width().seconds());

  std::vector<double> mb(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) mb[i] = rates[i] / 1e6;
  const double mean = mean_of(mb);
  const double peak = *std::max_element(mb.begin(), mb.end());
  std::printf("mean %.1f MB/s (paper ~44.1), peak %.1f MB/s (paper ~100), peak/mean %.2f\n",
              mean, peak, analysis::peak_to_mean(mb));

  bench::check(mean > 35 && mean < 55, "mean data rate ~44 MB per CPU second");
  bench::check(peak > 70 && peak < 140, "bursts reach ~100 MB per CPU second");
  bench::check(analysis::peak_to_mean(mb) > 1.5, "demand is bursty, not smooth");
  return bench::exit_status();
}
