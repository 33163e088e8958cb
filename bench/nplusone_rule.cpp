// Reproduces the Section 2.2 scheduling rule of thumb:
//
//   "Since there are eight processors, there must be at least eight jobs in
//    memory and ready to run to keep all of the processors busy. In
//    practice, n+1 jobs resident in main memory will keep n processors
//    busy, given a typical supercomputer workload."
//
// "Given a typical supercomputer workload" means mostly-compute jobs with
// modest synchronous I/O (the rule explicitly assumes programs whose data
// arrays fit in memory). We run k such batch jobs on n CPUs sharing one
// cache and disk farm, sweeping k around n. Section 6.2 explains why the
// rule FAILS for identical I/O-intensive jobs — their bursts bunch up — so
// that case is shown too.
//
// Flags (telemetry, resilience, live plane): see bench::PaperSweep in
// sweep_obs.hpp.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/simulator.hpp"
#include "sweep_obs.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace craysim;

struct JobMix {
  std::int32_t cpus;
  int jobs;
  bool typical;  ///< typical batch jobs, or identical I/O-intensive ccm copies
};

sim::SimParams mix_params(const JobMix& mix) {
  // Per-CPU cache share as on the NASA machine (Section 6.2's sizing logic).
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{8} * mix.cpus * kMB);
  params.cpu_count = mix.cpus;
  return params;
}

sim::SimResult run_mix(const JobMix& mix, const sim::SimParams& params) {
  sim::Simulator simulator(params);
  for (int j = 0; j < mix.jobs; ++j) {
    if (mix.typical) {
      simulator.add_app(workload::make_typical_batch_job(j));
    } else {
      simulator.add_app(workload::make_profile(workload::AppId::kCcm,
                                               17 + static_cast<std::uint64_t>(j) * 13));
    }
  }
  return simulator.run();
}

std::string mix_label(const JobMix& mix) {
  return std::to_string(mix.jobs) + (mix.typical ? " typical" : " ccm") + " jobs on " +
         std::to_string(mix.cpus) + " CPUs";
}

}  // namespace

int main(int argc, char** argv) {
  bench::PaperSweep sweep(argc, argv);
  bench::heading("Section 2.2: n+1 jobs keep n processors busy (typical batch jobs)");

  // n, n+1 and n+2 typical jobs per CPU count, then the counterexample last.
  const std::int32_t cpu_counts[] = {1, 2, 4, 8};
  std::vector<JobMix> mixes;
  for (const std::int32_t n : cpu_counts) {
    for (int extra = 0; extra <= 2; ++extra) mixes.push_back({n, n + extra, true});
  }
  mixes.push_back({2, 3, false});
  const auto results = sweep.run(mixes, mix_label, mix_params, run_mix);
  const auto util = [&](std::size_t i) { return 100.0 * results[i].cpu_utilization(); };

  TextTable table({"CPUs (n)", "util % with n jobs", "with n+1 jobs", "with n+2 jobs"});
  bool rule_holds = true;
  for (std::size_t i = 0; i + 1 < mixes.size(); i += 3) {
    const double u_n = util(i);
    const double u_n1 = util(i + 1);
    const double u_n2 = util(i + 2);
    table.row().integer(mixes[i].cpus).num(u_n, 1).num(u_n1, 1).num(u_n2, 1);
    // The paper states a rule of thumb, not a number: one spare job should
    // recover most of the idle time the n-job configuration leaves.
    rule_holds &= (u_n1 >= u_n) && (u_n1 > 90.0);
  }
  std::printf("%s", table.render().c_str());
  bench::check(rule_holds,
               "one spare job recovers most idle time (n+1 jobs keep n processors busy)");

  // The counterexample that motivates the whole buffering study: identical
  // I/O-intensive jobs bunch up and break the rule (Sections 2.2 and 6.2).
  const double ccm_n1 = util(mixes.size() - 1);
  std::printf("\ncounterexample: 3 x ccm (I/O-intensive, identical) on 2 CPUs: %.1f%%"
              " utilization\n", ccm_n1);
  bench::check(ccm_n1 < 95.0,
               "the rule fails for identical I/O-intensive jobs, motivating Section 6");
  return bench::exit_status(sweep.finish(results));
}
