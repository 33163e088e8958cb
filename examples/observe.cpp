// observe: the telemetry layer end to end. Runs the venus workload through
// the whole pipeline — synthesize, trace over a lossy channel, reconstruct,
// parse under an error budget, simulate — with every layer publishing into
// one MetricsRegistry, the simulation recording sim-time spans (plus
// periodic counter samples) and a latency-attribution ledger whose blame
// report — with its conservation self-check — answers where the replay's
// I/O time went, and a wall-clock phase profiler timing the
// stages. Then drives a small multi-point cache-size sweep through the
// experiment runner with a per-point SpanRecorderPool, merging all points
// into one Perfetto timeline and exporting the counter samples as a JSONL
// time series. Writes all four artifacts and self-validates before exiting.
//
//   observe [--metrics <path>] [--perfetto <path>]
//           [--sweep-perfetto <path>] [--timeseries <path>]
//           [--listen <host:port>]
//
// With --listen, the cache-size sweep runs with the live telemetry plane on
// and the example scrapes its own /healthz, /metrics, and /status endpoints
// afterward, validating the live plane end to end (pass "--listen
// 127.0.0.1:0" for an ephemeral port).
//
// Exits nonzero if any span recording fails its consistency check or an
// artifact cannot be written — CI runs this as the telemetry smoke test.
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/attribution.hpp"
#include "faults/fault.hpp"
#include "obs/attr.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/span.hpp"
#include "obs/span_pool.hpp"
#include "runner/runner.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "trace/stream.hpp"
#include "tracer/pipeline.hpp"
#include "util/error.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

int main(int argc, char** argv) {
  using namespace craysim;

  // Flush stdio and re-raise on SIGINT/SIGTERM so an interrupted run's
  // partial console output survives; the artifact saves themselves are
  // crash-atomic (util::write_file_atomic), so no artifact cleanup needed.
  static const auto on_signal = +[](int sig) {
    std::fflush(nullptr);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
  };
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::string metrics_path = "observe_metrics.jsonl";
  std::string perfetto_path = "observe_trace.json";
  std::string sweep_perfetto_path = "observe_sweep.json";
  std::string timeseries_path = "observe_timeseries.jsonl";
  std::string listen_addr;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (flag == "--metrics" && i + 1 < argc) {
      metrics_path = argv[i + 1];
    } else if (flag == "--perfetto" && i + 1 < argc) {
      perfetto_path = argv[i + 1];
    } else if (flag == "--sweep-perfetto" && i + 1 < argc) {
      sweep_perfetto_path = argv[i + 1];
    } else if (flag == "--timeseries" && i + 1 < argc) {
      timeseries_path = argv[i + 1];
    } else if (flag == "--listen" && i + 1 < argc) {
      listen_addr = argv[i + 1];
    } else {
      std::fprintf(stderr,
                   "usage: observe [--metrics <path>] [--perfetto <path>]\n"
                   "               [--sweep-perfetto <path>] [--timeseries <path>]\n"
                   "               [--listen <host:port>]\n");
      return 2;
    }
  }

  obs::MetricsRegistry registry;
  obs::PhaseProfiler phases;
  obs::SpanRecorder spans;

  // 1. Synthesize the venus logical trace (the paper's heaviest writer).
  std::printf("1. synthesizing the venus trace...\n");
  trace::Trace original;
  {
    const auto scope = phases.scope("synthesize");
    original = workload::synthesize_trace(workload::make_profile(workload::AppId::kVenus));
  }
  std::printf("   %zu records\n", original.size());

  // 2. Collect it through the instrumented library over a lossy channel,
  //    then reconstruct; both ends publish their tallies.
  std::printf("\n2. collecting over a lossy procstat channel...\n");
  tracer::ReconstructionResult recovered;
  {
    const auto scope = phases.scope("collect");
    faults::FaultPlan channel;
    channel.seed = 0x0B5E;
    channel.packet.drop_rate = 0.01;
    channel.packet.duplicate_rate = 0.01;
    channel.packet.reorder_rate = 0.01;
    tracer::TracerOptions options;
    options.entries_per_packet = 64;
    const auto collector = tracer::instrument_trace(original, channel, options);
    recovered = tracer::reconstruct_lossy(collector.log(), collector.sequences_issued());
    collector.stats().publish_metrics(registry);
  }
  recovered.report.publish_metrics(registry);
  std::printf("   %s\n", recovered.report.summary().c_str());

  // 3. Serialize, scuff a few bytes, and parse back under an error budget.
  std::printf("\n3. parsing the wire format under an error budget...\n");
  trace::RecoveredTrace parsed;
  {
    const auto scope = phases.scope("parse");
    std::string wire = trace::serialize_trace(recovered.trace, "observe demo");
    for (std::size_t i = 0; i < 8; ++i) {
      wire[500 + i * ((wire.size() - 1000) / 8)] = '#';
    }
    parsed = trace::parse_trace_lossy(wire);
  }
  parsed.report.publish_metrics(registry);
  std::printf("   %s\n", parsed.report.summary().c_str());

  // 4. Replay what survived through the simulator with the span recorder on:
  //    every run/blocked interval, I/O op lifetime, disk access, and cache
  //    eviction lands in the recording at its simulated timestamp, and the
  //    counter sampler adds occupancy/queue-depth tracks every 100 ms of
  //    simulated time.
  std::printf("\n4. simulating the replay with sim-time span tracing...\n");
  sim::SimResult result;
  obs::AttributionLedger ledger;
  {
    const auto scope = phases.scope("simulate");
    sim::SimParams params = sim::SimParams::paper_main_memory(Bytes{16} * kMB);
    params.spans = &spans;
    params.counter_interval = Ticks::from_ms(100);
    params.attribution = &ledger;
    sim::Simulator simulator(params);
    simulator.add_process("venus", std::make_unique<sim::StreamingReplaySource>(
                                       std::make_unique<trace::InMemorySource>(
                                           std::move(parsed.trace))));
    result = simulator.run();
  }
  result.publish_metrics(registry);
  std::printf("%s", result.summary().c_str());

  // 4b. Blame the replay's I/O time: the attribution ledger decomposed every
  //     op's latency into additive components, so the report's percentages
  //     answer "where did the time go" exactly. Self-check the conservation
  //     contract before trusting it: the components sum to the measured I/O
  //     time, and every scope's rows close over the same grand total.
  std::printf("\n4b. attributing the replay's I/O time...\n%s",
              analysis::attribution_report(result.attr, /*top_n=*/5).c_str());
  {
    std::int64_t comp_sum = 0;
    for (const std::int64_t ticks : result.attr.total.comp) comp_sum += ticks;
    std::int64_t file_sum = 0;
    std::int64_t proc_sum = 0;
    for (const auto& entry : result.attr.files) file_sum += entry.total_ticks;
    for (const auto& entry : result.attr.procs) proc_sum += entry.total_ticks;
    const std::int64_t total = result.attr.total.total_ticks;
    const bool conserved = result.attr.enabled && result.attr.total.ops > 0 &&
                           comp_sum == total && file_sum == total && proc_sum == total;
    std::printf("   conservation: components %s, file rows %s, process rows %s -> %s\n",
                comp_sum == total ? "exact" : "LEAK", file_sum == total ? "exact" : "LEAK",
                proc_sum == total ? "exact" : "LEAK", conserved ? "ok" : "FAILED");
    if (!conserved) return 1;
  }

  // 5. Sweep three cache sizes through the experiment runner, each point
  //    recording into its own slot of a SpanRecorderPool. The merged export
  //    shows all points side by side as labeled Perfetto process groups.
  std::printf("\n5. sweeping cache sizes with a per-point recorder pool...\n");
  const std::vector<Bytes> cache_mbs = {4, 16, 64};
  obs::SpanRecorderPool sweep_pool(cache_mbs.size(), /*enabled=*/true);
  runner::RunnerOptions sweep_options = runner::RunnerOptions::from_env();
  sweep_options.collect_telemetry = true;
  if (!listen_addr.empty()) {
    sweep_options.listen_addr = listen_addr;
    sweep_options.metrics = &registry;
  }
  runner::ExperimentRunner sweep_runner(sweep_options);
  if (const obs::TelemetryServer* server = sweep_runner.telemetry_server()) {
    std::printf("   live telemetry plane on http://%s (/metrics /status /healthz)\n",
                server->address().c_str());
  }
  std::vector<double> sweep_utils;
  {
    const auto scope = phases.scope("sweep");
    const std::vector<std::size_t> indices = {0, 1, 2};
    sweep_utils = sweep_runner.run(indices, [&](std::size_t i) {
      sim::SimParams params = sim::SimParams::paper_main_memory(cache_mbs[i] * kMB);
      params.spans = sweep_pool.claim(i, "venus, " + std::to_string(cache_mbs[i]) + " MB cache");
      params.counter_interval = Ticks::from_ms(100);
      sim::Simulator simulator(params);
      simulator.add_app(workload::make_profile(workload::AppId::kVenus, 11));
      return simulator.run().cpu_utilization();
    });
  }
  sweep_runner.publish_metrics(registry);
  for (std::size_t i = 0; i < cache_mbs.size(); ++i) {
    std::printf("   %s: %.1f%% utilization, %zu span events\n", sweep_pool.label(i).c_str(),
                100.0 * sweep_utils[i], sweep_pool.recorder(i)->size());
  }

  // 5b. Self-scrape the live plane: all three endpoints must answer, the
  //     exposition must carry the runner's families, and /status must report
  //     the sweep fully settled.
  if (const obs::TelemetryServer* server = sweep_runner.telemetry_server()) {
    std::printf("\n5b. scraping the live telemetry plane...\n");
    try {
      const auto health = obs::http_get("127.0.0.1", server->port(), "/healthz");
      const auto metrics = obs::http_get("127.0.0.1", server->port(), "/metrics");
      const auto status = obs::http_get("127.0.0.1", server->port(), "/status");
      const bool live_ok = health.status == 200 && health.body == "ok\n" &&
                           metrics.status == 200 &&
                           metrics.body.find("# TYPE runner_points counter") !=
                               std::string::npos &&
                           status.status == 200 &&
                           status.body.find("\"total\":3,\"settled\":3") != std::string::npos;
      std::printf("   /healthz %d, /metrics %d (%zu bytes), /status %d (%zu bytes): %s\n",
                  health.status, metrics.status, metrics.body.size(), status.status,
                  status.body.size(), live_ok ? "ok" : "FAILED");
      if (!live_ok) return 1;
    } catch (const Error& e) {
      std::fprintf(stderr, "live plane scrape FAILED: %s\n", e.what());
      return 1;
    }
  }

  // 6. Validate and write all artifacts.
  std::printf("\n6. writing telemetry artifacts...\n");
  const std::string problem = obs::check_consistency(spans);
  if (!problem.empty()) {
    std::fprintf(stderr, "span consistency check FAILED: %s\n", problem.c_str());
    return 1;
  }
  const std::string sweep_problem = obs::check_consistency(sweep_pool);
  if (!sweep_problem.empty()) {
    std::fprintf(stderr, "sweep span consistency check FAILED: %s\n", sweep_problem.c_str());
    return 1;
  }
  phases.publish_metrics(registry);
  try {
    spans.save(perfetto_path);
    registry.save_jsonl(metrics_path);
    sweep_pool.save_merged(sweep_perfetto_path);
    sweep_pool.save_counter_series(timeseries_path);
  } catch (const Error& e) {
    std::fprintf(stderr, "write failed: %s\n", e.what());
    return 1;
  }
  std::printf("   %zu span events -> %s (open in ui.perfetto.dev)\n", spans.size(),
              perfetto_path.c_str());
  std::printf("   %zu metrics     -> %s\n", registry.size(), metrics_path.c_str());
  std::printf("   %zu-point merged sweep -> %s\n", sweep_pool.size(),
              sweep_perfetto_path.c_str());
  std::printf("   counter time series   -> %s\n", timeseries_path.c_str());
  std::printf("\nwall-clock phases:\n%s", phases.report().c_str());

  bool sweep_recorded = true;
  for (std::size_t i = 0; i < sweep_pool.size(); ++i) {
    sweep_recorded &= sweep_pool.recorder(i) != nullptr && !sweep_pool.recorder(i)->empty();
  }
  const bool ok = !spans.empty() && registry.size() > 30 && result.total_wall > Ticks::zero() &&
                  sweep_recorded;
  std::printf("\nobserve %s: spans consistent, metrics published, artifacts written\n",
              ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}
