// Fault-injection sweep: how well does lossy-pipeline recovery preserve the
// paper's summary statistics as the collection channel degrades, and what do
// injected disk failures cost the Section 6 simulator?
//
// Sweeps packet-drop rates through the tracer and reports recovered-trace
// fidelity against the lossless stream, then sweeps disk transient-error
// rates through the simulator and reports the retry/backoff bill. Exits
// nonzero if recovery accounting ever disagrees with the injected schedule.
//
// Both sweeps fan out across the experiment runner; the drop-rate points all
// read one shared, immutable copy of the synthesized venus trace.
//
// Telemetry ("--metrics", "--perfetto", "--perfetto-sweep", "--timeseries",
// "--counter-interval <ms>") instruments the disk-fault *simulator* sweep;
// the tracer drop-rate sweep has no simulator and stays untelemetered. The
// resilience flags ("--journal", "--deadline", "--max-attempts",
// "--chaos-fail", "--chaos-seed"; docs/RESILIENCE.md) likewise apply to the
// simulator sweep only — it is the one whose points are slow enough to be
// worth checkpointing — and route it through its own resilient runner.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "faults/fault.hpp"
#include "obs/metrics.hpp"
#include "runner/runner.hpp"
#include "sim/simulator.hpp"
#include "sweep_obs.hpp"
#include "trace/stats.hpp"
#include "tracer/pipeline.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace {

double pct_error(double measured, double truth) {
  if (truth == 0.0) return measured == 0.0 ? 0.0 : 100.0;
  return 100.0 * std::abs(measured - truth) / std::abs(truth);
}

struct DropResult {
  std::int64_t packets_missing = 0;
  std::int64_t packets_dropped = 0;
  std::int64_t gap_count = 0;
  std::int64_t entries_recovered = 0;
  std::int64_t entries_sent = 0;
  craysim::trace::TraceStats stats;
};

craysim::sim::SimParams disk_point_params(double rate) {
  using namespace craysim;
  sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{32} * kMB);
  params.disk_count = 4;
  params.faults.disk.transient_error_rate = rate;
  params.faults.disk.permanent_error_rate = rate / 20.0;
  return params;
}

craysim::sim::SimResult run_disk_with(const craysim::sim::SimParams& params) {
  using namespace craysim;
  sim::Simulator sim(params);
  sim.add_app(workload::make_profile(workload::AppId::kVenus, 11));
  sim.add_app(workload::make_profile(workload::AppId::kLes, 22));
  return sim.run();
}

std::string disk_point_label(double rate) {
  char label[48];
  std::snprintf(label, sizeof label, "disk err %g%%", 100.0 * rate);
  return label;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace craysim;
  const bench::ObsArgs obs_args = bench::ObsArgs::take(argc, argv);
  const bench::ResilienceArgs res_args = bench::ResilienceArgs::take(argc, argv);
  bench::heading("Fault sweep: lossy trace recovery fidelity");

  const trace::Trace original =
      workload::synthesize_trace(workload::make_profile(workload::AppId::kVenus));
  const auto full = trace::compute_stats(original);
  tracer::TracerOptions options;
  options.entries_per_packet = 16;  // small packets so drops bite at low rates

  const std::vector<double> drop_rates = {0.0, 0.01, 0.02, 0.05, 0.10, 0.20};
  // The observer watches the simulator sweep further down, but it has to
  // exist before whichever runner serves the live plane (its /attribution
  // handler is registered at runner construction).
  const std::vector<double> error_rates = {0.0, 0.01, 0.05, 0.10};
  bench::SweepObserver sweep_obs(obs_args, error_rates.size());
  sweep_obs.arm_flight(res_args);
  runner::RunnerOptions runner_options = runner::RunnerOptions::from_env();
  runner_options.collect_telemetry = !obs_args.metrics_path.empty();
  // With resilience flags the simulator sweep below gets its own pool, and
  // the live plane (one port) belongs to it; otherwise this shared pool
  // serves both sweeps.
  if (!res_args.any()) bench::apply_telemetry(obs_args, runner_options, nullptr, sweep_obs);
  runner::ExperimentRunner pool(runner_options);
  const std::vector<DropResult> drops = pool.run(drop_rates, [&](double rate) {
    faults::FaultPlan plan;
    plan.packet.drop_rate = rate;
    const auto collector = tracer::instrument_trace(original, plan, options);
    const auto recovered =
        tracer::reconstruct_lossy(collector.log(), collector.sequences_issued());
    DropResult out;
    out.packets_missing = recovered.report.packets_missing;
    out.packets_dropped = collector.stats().packets_dropped;
    out.gap_count = recovered.report.gap_count;
    out.entries_recovered = recovered.report.entries_recovered;
    out.entries_sent = collector.stats().entries;
    out.stats = trace::compute_stats(recovered.trace);
    return out;
  });

  TextTable table({"drop rate %", "packets lost", "gaps", "entries kept %", "I/O count err %",
                   "bytes err %", "seq frac err %", "accounting"});
  bool accounting_ok = true;
  bool fidelity_ok = true;
  std::vector<double> kept_pct;
  for (std::size_t i = 0; i < drop_rates.size(); ++i) {
    const double rate = drop_rates[i];
    const DropResult& r = drops[i];
    const bool exact = r.packets_missing == r.packets_dropped;
    accounting_ok &= exact;
    const double kept = 100.0 * static_cast<double>(r.entries_recovered) /
                        static_cast<double>(r.entries_sent);
    const double io_err =
        pct_error(static_cast<double>(r.stats.io_count), static_cast<double>(full.io_count));
    const double bytes_err = pct_error(static_cast<double>(r.stats.total_bytes()),
                                       static_cast<double>(full.total_bytes()));
    const double seq_err = pct_error(r.stats.sequential_fraction(), full.sequential_fraction());
    if (rate <= 0.05) fidelity_ok &= io_err <= 10.0 && bytes_err <= 10.0 && seq_err <= 10.0;
    kept_pct.push_back(kept);

    table.row()
        .num(100.0 * rate, 0)
        .integer(r.packets_missing)
        .integer(r.gap_count)
        .num(kept, 1)
        .num(io_err, 2)
        .num(bytes_err, 2)
        .num(seq_err, 2)
        .cell(exact ? "exact" : "MISMATCH");
  }
  std::printf("%s", table.render().c_str());

  PlotOptions plot;
  plot.y_label = "entries kept %";
  plot.x_label = "sweep point (see table)";
  plot.height = 12;
  std::printf("%s", ascii_plot(kept_pct, plot).c_str());

  bench::heading("Fault sweep: simulator under injected disk failures");
  std::vector<std::size_t> indices(error_rates.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  // The simulator sweep gets its own resilient runner only when a flag asks
  // for one; otherwise it reuses `pool` and the whole bench is byte-identical
  // to the pre-resilience behavior.
  std::optional<runner::ExperimentRunner> resilient_pool;
  if (res_args.any()) {
    runner::RunnerOptions sim_options = runner_options;
    bench::apply_resilience(res_args, sim_options);
    bench::apply_telemetry(obs_args, sim_options, nullptr, sweep_obs);
    resilient_pool.emplace(sim_options);
  }
  runner::ExperimentRunner& sim_pool = resilient_pool ? *resilient_pool : pool;
  const bench::SimResultCodec codec(
      [&](std::size_t i) { return disk_point_label(error_rates[i]); });
  const std::vector<sim::SimResult> disk_results =
      bench::run_sweep(sim_pool, res_args, indices, [&](std::size_t i) {
        sim::SimParams params = disk_point_params(error_rates[i]);
        sweep_obs.instrument(i, disk_point_label(error_rates[i]), params);
        return run_disk_with(params);
      }, codec, &sweep_obs);
  TextTable disks({"transient rate %", "wall s", "slowdown %", "transients", "retries",
                   "backoff s", "disks lost"});
  const double base_wall = disk_results[0].total_wall.seconds();
  bool survived_ok = true;
  for (std::size_t i = 0; i < error_rates.size(); ++i) {
    const sim::SimResult& result = disk_results[i];
    const double wall = result.total_wall.seconds();
    survived_ok &= result.total_wall > Ticks::zero();
    disks.row()
        .num(100.0 * error_rates[i], 0)
        .num(wall, 2)
        .num(base_wall > 0.0 ? 100.0 * (wall - base_wall) / base_wall : 0.0, 2)
        .integer(result.disk.transient_errors)
        .integer(result.disk.retries)
        .num(result.disk.retry_backoff_time.seconds(), 3)
        .integer(result.disk.permanent_failures);
  }
  std::printf("%s", disks.render().c_str());

  bench::check(accounting_ok, "reported missing packets always equal the injected drops");
  bench::check(fidelity_ok, "summary statistics stay within 10% of lossless up to 5% drop");
  bench::check(survived_ok, "the simulator completes every run, even degraded");

  if (!sweep_obs.finish()) return 1;
  if (!bench::write_point_trace(obs_args, disk_point_params(0.05),
                                [](const sim::SimParams& p) { (void)run_disk_with(p); })) {
    return 1;
  }
  if (!obs_args.metrics_path.empty()) {
    obs::MetricsRegistry registry;
    disk_results.back().publish_metrics(registry, "sim");
    // With resilience engaged the simulator sweep ran on its own pool, and
    // its tallies (including the runner.* resilience counters) are the
    // interesting ones; without it sim_pool IS pool, covering both sweeps.
    sim_pool.publish_metrics(registry);
    registry.save_jsonl(obs_args.metrics_path);
    std::printf("wrote %zu metrics to %s\n", registry.size(), obs_args.metrics_path.c_str());
  }
  return accounting_ok && fidelity_ok && survived_ok ? 0 : 1;
}
