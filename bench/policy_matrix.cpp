// Completes the Section 6.2 policy discussion with a full product table:
// every traced application under the four read-ahead x write-behind policy
// combinations in a per-CPU main-memory cache. The paper reports the venus
// and les cases; this sweep shows the pattern holds across the suite —
// write-behind is decisive for write-heavy staging codes, read-ahead for
// sequential readers, and the compulsory-I/O programs don't care.
//
// The 28 independent simulations fan out across the sweep driver (set
// CRAYSIM_RUNNER_THREADS=1 for a serial, byte-identical run). Flags
// (telemetry, resilience, live plane): see bench::PaperSweep in
// sweep_obs.hpp; --perfetto and --metrics describe the venus RA+WB point.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sweep_obs.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace craysim;

struct PolicyPoint {
  workload::AppId app;
  bool read_ahead = false;
  bool write_behind = false;
};

sim::SimParams point_params(const PolicyPoint& point) {
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{16} * kMB);
  params.cache.read_ahead = point.read_ahead;
  params.cache.write_behind = point.write_behind;
  return params;
}

std::string point_label(const PolicyPoint& point) {
  std::string label{workload::app_name(point.app)};
  if (point.read_ahead && point.write_behind) return label + " RA+WB";
  if (point.read_ahead) return label + " RA only";
  if (point.write_behind) return label + " WB only";
  return label + " neither";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace craysim;
  bench::PaperSweep sweep(argc, argv);
  bench::heading("Section 6.2 policy matrix: utilization %, each app alone in a 16 MB cache");

  // Policy order per app: RA+WB, RA only, WB only, neither.
  const bool policies[4][2] = {{true, true}, {true, false}, {false, true}, {false, false}};
  const auto apps = workload::all_apps();
  std::vector<PolicyPoint> points;
  for (const workload::AppId app : apps) {
    for (const auto& policy : policies) points.push_back({app, policy[0], policy[1]});
  }

  const auto results = sweep.run(points, point_label, point_params,
                                 [](const PolicyPoint& point, const sim::SimParams& p) {
                                   return bench::run_apps(p, {point.app});
                                 });
  const auto util = [&](std::size_t i) { return 100.0 * results[i].cpu_utilization(); };
  const auto util_of = [&](workload::AppId app, std::size_t policy) {
    for (std::size_t a = 0; a < apps.size(); ++a) {
      if (apps[a] == app) return util(a * 4 + policy);
    }
    return 0.0;
  };

  TextTable table({"app", "RA+WB", "RA only", "WB only", "neither"});
  bool policies_help = true;
  bool les_always_fine = true;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const double both = util(a * 4 + 0);
    const double ra = util(a * 4 + 1);
    const double wb = util(a * 4 + 2);
    const double neither = util(a * 4 + 3);
    table.row()
        .cell(std::string(workload::app_name(apps[a])))
        .num(both, 1)
        .num(ra, 1)
        .num(wb, 1)
        .num(neither, 1);
    policies_help &= both + 1e-9 >= neither - 5.0;  // policies never hurt much
    if (apps[a] == workload::AppId::kLes) les_always_fine = both > 95.0;
  }
  std::printf("%s", table.render().c_str());
  std::printf("\npaper: venus benefited chiefly from write-behind; les ran with little idle\n"
              "under any policy thanks to its explicit asynchronous I/O; gcm and upw do so\n"
              "little I/O that the policies are irrelevant to them.\n");

  const double venus_both = util_of(workload::AppId::kVenus, 0);
  const double venus_ra = util_of(workload::AppId::kVenus, 1);
  const double venus_none = util_of(workload::AppId::kVenus, 3);
  bench::check(venus_both > 2.0 * venus_ra && venus_both > 3.0 * venus_none,
               "venus benefits strongly from write-behind on top of read-ahead");
  bench::check(les_always_fine, "les stays near fully utilized (explicit async I/O)");
  const double gcm_worst = util_of(workload::AppId::kGcm, 3);
  const double upw_worst = util_of(workload::AppId::kUpw, 3);
  bench::check(gcm_worst > 94.0 && upw_worst > 94.0,
               "the compulsory-I/O programs are least sensitive to the cache policies");
  bench::check(policies_help, "enabling both policies never costs meaningful utilization");

  // --perfetto and --metrics describe venus RA+WB (point 24).
  return bench::exit_status(
      sweep.finish(results, {.trace_point = 24, .metrics_point = 24,
                             .metrics_prefix = "sim.venus", .phases = true}));
}
