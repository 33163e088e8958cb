// Reproduces Figure 4: data rate over process CPU time for les.
//
// The paper's plot runs over les's 146 CPU seconds with a mean near
// 49.8 MB/s and tall per-cycle bursts.
#include <algorithm>
#include <cstdio>

#include "analysis/series.hpp"
#include "bench_common.hpp"
#include "util/stats.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

int main() {
  using namespace craysim;
  bench::heading("Figure 4: Data rate over time for les (MB per CPU second)");

  const auto profile = workload::make_profile(workload::AppId::kLes);
  const auto trace = workload::synthesize_trace(profile);
  const BinnedSeries series = analysis::cpu_time_rate_series(trace);
  const auto rates = series.rates();
  bench::print_rate_figure(rates, "MB/s", "process CPU seconds", series.bin_width().seconds());

  std::vector<double> mb(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) mb[i] = rates[i] / 1e6;
  const double mean = mean_of(mb);
  const double peak = *std::max_element(mb.begin(), mb.end());
  std::printf("mean %.1f MB/s (paper ~49.8), peak %.1f MB/s, span %.0f s (paper 146 s)\n", mean,
              peak, static_cast<double>(mb.size()) * series.bin_width().seconds());

  bench::check(mean > 40 && mean < 60, "mean data rate ~49.8 MB per CPU second");
  bench::check(analysis::peak_to_mean(mb) > 1.4, "per-cycle bursts stand well above the mean");
  bench::check(mb.size() >= 140 && mb.size() <= 155, "run spans ~146 CPU seconds");
  return bench::exit_status();
}
