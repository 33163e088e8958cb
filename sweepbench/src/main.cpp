// sweepbench: the host cost of craysim's sweep path, end to end and per layer.
//
//   sweepbench --workload <idle_sweep|owner_cap|replay_mix> --seed <n>
//              --seconds <s> --trace <0|1> [--commit <id>] [--out-dir <dir>]
//   sweepbench --self-test [--out-dir <dir>]
//
// --trace 0 sets the workload up several times (setup_s is the median), then
// runs whole sweeps through runner::ExperimentRunner until --seconds would be
// exceeded (at least one) and reports the median sweep. --trace 1 repeats the
// untraced sweeps for reference, then runs one traced sweep with timing
// decorators on every request source, isolated cache and disk replays of each
// point's request stream, and a telemetry-overhead probe, and reports the
// per-layer split. Every point's output is checked in both modes. The last
// line of standard output is the JSON result; see README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "obs/attr.hpp"
#include "obs/flight.hpp"
#include "obs/sanitize.hpp"
#include "obs/span.hpp"
#include "runner/runner.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "workload/profiles.hpp"
#include "workloads.hpp"

namespace sweepbench {
namespace {

using namespace craysim;
namespace fs = std::filesystem;

// Runner threads: fixed, so runs on hosts with different core counts compare.
constexpr unsigned kThreads = 2;
// Set-up is timed in batches: at least kMinSetups times and until
// kSetupBudget seconds are spent (at most kMaxSetups). A set-up cheaper than
// kCheapSetup gets another batch after every sweep. setup_s is the median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 50;
constexpr double kSetupBudget = 1.0;
constexpr double kCheapSetup = 0.05;
constexpr auto kPointDeadline = std::chrono::seconds(150);

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  fs::path out_dir = ".bench_build/out";
  bool self_test = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) throw ConfigError("missing value after " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw ConfigError("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        throw ConfigError("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      throw ConfigError("bad value '" + value + "' for " + flag);
    }
  }
  if (!args.self_test && !have_workload) throw ConfigError("--workload is required");
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// User + system CPU seconds of this process so far.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

runner::RunnerOptions runner_options() {
  runner::RunnerOptions options;
  options.threads = kThreads;
  options.point_deadline = kPointDeadline;
  return options;
}

/// A per-process directory for the files a run writes; removed at exit.
struct Scratch {
  explicit Scratch(const fs::path& out_dir)
      : dir(out_dir / ("run-" + std::to_string(::getpid()))) {
    fs::create_directories(dir);
  }
  ~Scratch() {
    std::error_code ignored;
    fs::remove_all(dir, ignored);
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  fs::path dir;
};

/// The output-correctness gate. A point is correct when it settled without
/// an exception or timeout, issued every request of its processes, and its
/// serialize_sim_result digest matches the expected one: pinned at seed 0,
/// otherwise the first digest this process saw for the point.
class OutputCheck {
 public:
  OutputCheck(const Workload& workload, bool use_pins)
      : workload_(workload), expected_(workload.points.size(), 0) {
    for (std::size_t i = 0; use_pins && i < expected_.size(); ++i) {
      expected_[i] = pinned_digest(workload.name, i);
      if (expected_[i] == 0) throw Error("no digest pinned for " + workload.points[i].label);
    }
  }

  /// Empty when point `index`'s result is correct, else why it is not.
  std::string check(std::size_t index, runner::PointResult<sim::SimResult>& result) {
    if (!result.ok()) {
      try {
        std::rethrow_exception(result.error);
      } catch (const std::exception& e) {
        return std::string(runner::point_status_name(result.outcome.status)) + ": " + e.what();
      }
    }
    const sim::SimResult& r = *result.value;
    std::int64_t requests = 0;
    for (const auto& p : r.processes) requests += p.io_count;
    if (r.processes.size() != workload_.processes.size() ||
        requests != workload_.requests_per_point) {
      return "issued " + std::to_string(requests) + " of " +
             std::to_string(workload_.requests_per_point) + " requests";
    }
    const std::uint64_t digest = result_digest(r);
    if (expected_[index] == 0) expected_[index] = digest;
    if (digest != expected_[index]) {
      return "output digest " + hex(digest) + ", expected " + hex(expected_[index]);
    }
    return {};
  }

  [[nodiscard]] const std::vector<std::uint64_t>& digests() const { return expected_; }

  static std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
    return buf;
  }

 private:
  const Workload& workload_;
  std::vector<std::uint64_t> expected_;
};

using PointFn = std::function<sim::SimResult(std::size_t, const util::CancelToken&)>;

struct SweepRun {
  double wall_s = 0;
  double cpu_s = 0;
  std::int64_t requests = 0;  ///< Σ ProcessResult::io_count over correct points
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<sim::SimResult> results;  ///< per point; default for a failed point
};

/// One whole sweep, closed loop: the runner hands a point to a worker only
/// when the worker is free. Wall and CPU time run from the first point
/// submitted to the last point settled.
SweepRun run_sweep(runner::ExperimentRunner& pool, const Workload& workload, const PointFn& fn,
                   OutputCheck& check) {
  std::vector<std::size_t> indices(workload.points.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  SweepRun run;
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  auto settled = pool.run_settled(
      indices, [&](const std::size_t& i, const util::CancelToken& token) { return fn(i, token); });
  run.wall_s = seconds_since(start);
  run.cpu_s = cpu_seconds() - cpu_start;
  for (std::size_t i = 0; i < settled.size(); ++i) {
    ++run.attempted;
    const std::string why = check.check(i, settled[i]);
    if (!why.empty()) {
      ++run.failed;
      std::fprintf(stderr, "point %s failed: %s\n", workload.points[i].label.c_str(), why.c_str());
      run.results.emplace_back();
      continue;
    }
    for (const auto& p : settled[i].value->processes) run.requests += p.io_count;
    run.results.push_back(std::move(*settled[i].value));
  }
  return run;
}

/// Whole sweeps, at least one, until another would end more than half a
/// sweep past `seconds`. `between` runs after each sweep.
std::vector<SweepRun> measure_sweeps(runner::ExperimentRunner& pool, const Workload& workload,
                                     const PointFn& fn, OutputCheck& check, double seconds,
                                     const std::function<void()>& between = {}) {
  std::vector<SweepRun> runs;
  const auto start = Clock::now();
  do {
    runs.push_back(run_sweep(pool, workload, fn, check));
    runs.back().results.clear();
    if (between) between();
  } while (seconds_since(start) + 0.5 * runs.back().wall_s <= seconds);
  return runs;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
};

void tally(Outcome& out, const std::vector<SweepRun>& runs) {
  for (const SweepRun& r : runs) {
    out.attempted += r.attempted;
    out.failed += r.failed;
  }
}

std::string format_value(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const auto colon = line.find(':');
    const auto value = line.find_first_not_of(' ', colon == std::string::npos ? colon : colon + 1);
    if (line.rfind("model name", 0) == 0 && value != std::string::npos) return line.substr(value);
  }
  return "unknown";
}

/// Prints the host/provenance line, every metric by name and unit, the
/// failure ratio, and — last — the one-line JSON result.
void report(const Args& args, const Outcome& out) {
  std::printf("provenance {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"threads\":%u,"
              "\"nproc\":%u,\"cpu\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
              "\"commit\":\"%s\"}\n",
              obs::json_escape(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, kThreads, std::thread::hardware_concurrency(),
              obs::json_escape(cpu_model()).c_str(), obs::json_escape(SWEEPBENCH_COMPILER).c_str(),
              SWEEPBENCH_BUILD_TYPE, obs::json_escape(args.commit).c_str());
  for (const Metric& m : out.metrics) {
    std::printf("metric %-32s %s %s\n", m.name.c_str(), format_value(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("metric %-32s %s ratio (%lld of %lld points)\n", "fail_ratio",
              format_value(ratio(static_cast<double>(out.failed),
                                 static_cast<double>(out.attempted)))
                  .c_str(),
              static_cast<long long>(out.failed), static_cast<long long>(out.attempted));
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + format_value(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

PointFn plain_points(const Workload& workload) {
  return [&workload](std::size_t i, const util::CancelToken& token) {
    return run_point(workload, workload.points[i], token);
  };
}

void print_digests(const Workload& workload, const OutputCheck& check) {
  for (std::size_t i = 0; i < workload.points.size(); ++i) {
    std::printf("point %-12s digest %s\n", workload.points[i].label.c_str(),
                OutputCheck::hex(check.digests()[i]).c_str());
  }
}

// ---------------------------------------------------------------- --trace 0

/// One batch of timed set-ups (workload + runner), appended to `samples`;
/// `workload` and `pool` keep the last one.
void time_set_ups(const Args& args, const Scratch& scratch, std::vector<double>& samples,
                  std::optional<Workload>& workload,
                  std::optional<runner::ExperimentRunner>& pool) {
  double spent = 0;
  for (int k = 0; k < kMinSetups || (k < kMaxSetups && spent < kSetupBudget); ++k) {
    pool.reset();
    workload.reset();
    const auto start = Clock::now();
    workload.emplace(set_up(args.workload, args.seed, scratch.dir));
    pool.emplace(runner_options());
    samples.push_back(seconds_since(start));
    spent += samples.back();
  }
}

Outcome run_untraced(const Args& args, const Scratch& scratch) {
  std::vector<double> setup_s;
  std::optional<Workload> workload;
  std::optional<runner::ExperimentRunner> pool;
  time_set_ups(args, scratch, setup_s, workload, pool);
  // A cheap set-up is timed again after every sweep, so its median spans the
  // run rather than one moment of it.
  const auto between_sweeps = [&] {
    if (median(setup_s) >= kCheapSetup) return;
    std::optional<Workload> w;
    std::optional<runner::ExperimentRunner> r;
    time_set_ups(args, scratch, setup_s, w, r);
  };
  OutputCheck check(*workload, args.seed == 0);
  const std::vector<SweepRun> runs = measure_sweeps(*pool, *workload, plain_points(*workload),
                                                    check, args.seconds, between_sweeps);
  print_digests(*workload, check);

  std::vector<double> wall, cpu, rate;
  for (const SweepRun& r : runs) {
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
    rate.push_back(ratio(static_cast<double>(r.requests), r.wall_s));
  }
  std::printf("sweeps %zu of %zu points; wall_s per sweep:", runs.size(), workload->points.size());
  for (const double w : wall) std::printf(" %.3f", w);
  std::printf("\n");
  Outcome out;
  tally(out, runs);
  out.metrics = {
      {"wall_s", median(wall), "s"},
      {"cpu_s", median(cpu), "s"},
      {"requests_per_s", median(rate), "1/s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"setup_s", median(setup_s), "s"},
  };
  return out;
}

// ---------------------------------------------------------------- --trace 1

void record_interval(HostSpans& spans, const char* name, std::uint64_t parent,
                     const Interval& interval) {
  if (interval.end > interval.start) {
    spans.aggregate(name, parent, interval.start, interval.end,
                    ns_between(interval.start, interval.end), 1);
  }
}

/// What the traced sweep measured per point, from outside the program.
struct TracedPoint {
  PointTally tally;
  double point_s = 0;  ///< the whole point function
  double run_s = 0;    ///< Simulator construction + run
  double cache_s = 0;  ///< isolated cache replay
  double disk_s = 0;   ///< isolated disk replay
  std::int64_t blocks = 0;
  std::int64_t disk_runs = 0;
  std::int64_t unplaced = 0;
};

Outcome run_traced(const Args& args, const Scratch& scratch) {
  HostSpans spans;
  std::optional<Workload> workload;
  std::optional<runner::ExperimentRunner> pool;
  {
    HostSpans::Scope setup(spans, "setup", 0);
    workload.emplace(set_up(args.workload, args.seed, scratch.dir));
    record_interval(spans, "workload.synthesize", setup.id(), workload->times.synthesize);
    record_interval(spans, "trace.encode", setup.id(), workload->times.encode);
    HostSpans::Scope construct(spans, "runner.construct", setup.id());
    pool.emplace(runner_options());
  }
  const Workload& w = *workload;
  const std::size_t n = w.points.size();
  OutputCheck check(w, args.seed == 0);

  std::vector<SweepRun> untraced;
  {
    HostSpans::Scope scope(spans, "untraced", 0);
    untraced = measure_sweeps(*pool, w, plain_points(w), check, args.seconds);
  }

  std::vector<TracedPoint> traced(n);
  SweepRun sweep;
  {
    HostSpans::Scope scope(spans, "runner.sweep", 0);
    const std::uint64_t sweep_id = scope.id();
    auto point_fn = [&](std::size_t i, const util::CancelToken& token) {
      HostSpans::Scope point(spans, "runner.point", sweep_id);
      const auto point_start = Clock::now();
      TracedPoint& t = traced[i];
      sim::SimResult result;
      {
        HostSpans::Scope run(spans, "sim.run", point.id());
        const auto run_start = Clock::now();
        result = run_point(w, w.points[i], token,
                           [&t](std::uint32_t pid, std::unique_ptr<workload::RequestSource> source)
                               -> std::unique_ptr<workload::RequestSource> {
                             return std::make_unique<TimedSource>(std::move(source), pid, t.tally);
                           });
        t.run_s = seconds_since(run_start);
        spans.aggregate("workload.next", run.id(), t.tally.first, t.tally.last, t.tally.next_ns,
                        t.tally.next_calls);
        spans.aggregate("trace.decode", run.id(), t.tally.first, t.tally.last,
                        t.tally.decode_ns, t.tally.decode_calls);
      }
      t.point_s = seconds_since(point_start);
      return result;
    };
    sweep = run_sweep(*pool, w, point_fn, check);
  }

  {
    HostSpans::Scope scope(spans, "isolation", 0);
    const std::uint64_t iso_id = scope.id();
    std::vector<std::size_t> indices(n);
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    (void)pool->run(indices, [&](const std::size_t& i) {
      TracedPoint& t = traced[i];
      CacheReplay cache;
      {
        HostSpans::Scope s(spans, "sim.cache.replay", iso_id);
        const auto start = Clock::now();
        cache = replay_cache(w.points[i].params.cache, t.tally.issued);
        t.cache_s = seconds_since(start);
      }
      {
        HostSpans::Scope s(spans, "sim.storage.replay", iso_id);
        const auto start = Clock::now();
        (void)replay_disk(w.points[i].params, cache.runs);
        t.disk_s = seconds_since(start);
      }
      t.blocks = cache.blocks;
      t.disk_runs = static_cast<std::int64_t>(cache.runs.size());
      t.unplaced = cache.unplaced;
      t.tally.issued = {};
      return 0;
    });
  }

  double probe_plain = 0, probe_attr = 0, probe_spans = 0;
  {
    HostSpans::Scope scope(spans, "obs.probe", 0);
    const Point& base = w.points[w.probe_point];
    auto time_probe = [&](const char* name, const Point& point) {
      HostSpans::Scope s(spans, name, scope.id());
      const auto start = Clock::now();
      (void)run_point(w, point, util::CancelToken::none());
      return seconds_since(start);
    };
    probe_plain = time_probe("obs.probe.plain", base);
    obs::AttributionLedger ledger;
    Point attr = base;
    attr.params.attribution = &ledger;
    probe_attr = time_probe("obs.probe.attr", attr);
    // Constant-memory flight-only mode: every span event is built and teed
    // into a bounded ring, none accumulate.
    obs::FlightRecorder flight;
    obs::SpanRecorder recorder;
    recorder.set_flight(&flight, false);
    Point with_spans = base;
    with_spans.params.spans = &recorder;
    probe_spans = time_probe("obs.probe.spans", with_spans);
  }

  const fs::path trace_file =
      args.out_dir / (args.workload + "-seed" + std::to_string(args.seed) + ".trace.json");
  spans.save(trace_file.string());
  std::printf("spans written to %s\n", trace_file.string().c_str());
  print_digests(w, check);

  // Per-layer figures.
  double next_s = 0, decode_s = 0, run_s = 0, cache_s = 0, disk_s = 0;
  std::int64_t requests = 0, trace_requests = 0, records = 0, blocks = 0, disk_runs = 0,
               unplaced = 0;
  std::vector<double> point_s;
  for (std::size_t i = 0; i < n; ++i) {
    const TracedPoint& t = traced[i];
    next_s += static_cast<double>(t.tally.next_ns) * 1e-9;
    decode_s += static_cast<double>(t.tally.decode_ns) * 1e-9;
    requests += t.tally.requests;
    if (t.tally.decode_calls > 0) trace_requests += t.tally.requests;
    records += t.tally.records;
    run_s += t.run_s;
    cache_s += t.cache_s;
    disk_s += t.disk_s;
    blocks += t.blocks;
    disk_runs += t.disk_runs;
    unplaced += t.unplaced;
    point_s.push_back(t.point_s);
  }
  sim::CacheMetrics cache{};
  double busy_sim_s = 0;
  std::int64_t disk_ops = 0;
  for (const sim::SimResult& r : sweep.results) {
    cache.read_requests += r.cache.read_requests;
    cache.read_full_hits += r.cache.read_full_hits;
    cache.write_requests += r.cache.write_requests;
    cache.evictions += r.cache.evictions;
    cache.space_waits += r.cache.space_waits;
    cache.readahead_used_blocks += r.cache.readahead_used_blocks;
    cache.readahead_fetched_blocks += r.cache.readahead_fetched_blocks;
    disk_ops += r.disk.read_ops + r.disk.write_ops;
    busy_sim_s += r.disk.busy_time.seconds();
  }
  std::vector<double> untraced_wall;
  for (const SweepRun& r : untraced) untraced_wall.push_back(r.wall_s);
  const double sum_point_s = std::accumulate(point_s.begin(), point_s.end(), 0.0);
  const double speedup = ratio(sum_point_s, sweep.wall_s);
  const auto count = [](std::int64_t v) { return static_cast<double>(v); };
  const auto self = spans.self_seconds();
  const auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };

  Outcome out;
  tally(out, untraced);
  tally(out, {sweep});
  if (unplaced != 0) {
    std::fprintf(stderr, "isolated cache replay left %lld requests unplaced\n",
                 static_cast<long long>(unplaced));
    out.correct = false;
  }
  out.metrics = {
      {"workload.requests", count(requests), "count"},
      {"workload.next_s", next_s, "s"},
      {"workload.synthesize_s", w.times.synthesize.seconds(), "s"},
      {"trace.encode_s", w.times.encode.seconds(), "s"},
      {"trace.decode_s", decode_s, "s"},
      {"trace.records_pulled", count(records), "count"},
      {"trace.records_per_s", ratio(count(records), decode_s), "1/s"},
      {"trace.records_used_ratio", ratio(count(trace_requests), count(records)), "ratio"},
      {"sim.cache.replay_s", cache_s, "s"},
      {"sim.cache.replay_blocks", count(blocks), "count"},
      {"sim.cache.ns_per_block", ratio(cache_s * 1e9, count(blocks)), "ns"},
      {"sim.cache.read_requests", count(cache.read_requests), "count"},
      {"sim.cache.write_requests", count(cache.write_requests), "count"},
      {"sim.cache.evictions", count(cache.evictions), "count"},
      {"sim.cache.space_waits", count(cache.space_waits), "count"},
      {"sim.cache.read_hit_ratio", cache.read_hit_fraction(), "ratio"},
      {"sim.cache.readahead_accuracy", cache.readahead_accuracy(), "ratio"},
      {"sim.storage.replay_s", disk_s, "s"},
      {"sim.storage.replay_runs", count(disk_runs), "count"},
      {"sim.storage.ops", count(disk_ops), "count"},
      {"sim.storage.busy_sim_s", busy_sim_s, "s"},
      {"sim.run_s", run_s, "s"},
      {"sim.ns_per_request", ratio(run_s * 1e9, count(requests)), "ns"},
      {"sim.loop_self_s", run_s - next_s - decode_s - cache_s - disk_s, "s"},
      {"runner.point_s.p50", median(point_s), "s"},
      {"runner.point_s.max", *std::max_element(point_s.begin(), point_s.end()), "s"},
      {"runner.speedup", speedup, "ratio"},
      {"runner.efficiency", speedup / static_cast<double>(pool->thread_count()), "ratio"},
      {"obs.attr_overhead_ratio", ratio(probe_attr, probe_plain), "ratio"},
      {"obs.spans_overhead_ratio", ratio(probe_spans, probe_plain), "ratio"},
      {"bench.trace_overhead_ratio", ratio(sweep.wall_s, median(untraced_wall)), "ratio"},
      {"self.setup_s", self_of("setup"), "s"},
      {"self.runner.sweep_s", self_of("runner.sweep"), "s"},
      {"self.runner.point_s", self_of("runner.point"), "s"},
      {"self.sim.run_s", self_of("sim.run"), "s"},
      {"self.workload.next_s", self_of("workload.next"), "s"},
      {"self.trace.decode_s", self_of("trace.decode"), "s"},
      {"self.sim.cache.replay_s", self_of("sim.cache.replay"), "s"},
      {"self.sim.storage.replay_s", self_of("sim.storage.replay"), "s"},
  };
  return out;
}

// ---------------------------------------------------------------- self-test

bool expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  return ok;
}

bool same(const sim::CacheMetrics& a, const sim::CacheMetrics& b) {
  return a.read_requests == b.read_requests && a.read_full_hits == b.read_full_hits &&
         a.read_partial_hits == b.read_partial_hits && a.read_misses == b.read_misses &&
         a.write_requests == b.write_requests && a.write_absorbed == b.write_absorbed &&
         a.readahead_issued == b.readahead_issued &&
         a.readahead_used_blocks == b.readahead_used_blocks &&
         a.readahead_fetched_blocks == b.readahead_fetched_blocks && a.evictions == b.evictions &&
         a.space_waits == b.space_waits && a.writes_cancelled_blocks == b.writes_cancelled_blocks;
}

bool same(const sim::DeviceMetrics& a, const sim::DeviceMetrics& b) {
  return a.read_ops == b.read_ops && a.write_ops == b.write_ops &&
         a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written &&
         a.busy_time == b.busy_time && a.queue_wait_time == b.queue_wait_time;
}

/// The benchmark's own test: the output gate catches a perturbed point, and
/// the isolation drivers' counters repeat exactly.
int self_test(const Scratch& scratch) {
  const Workload w = set_up("idle_sweep", 0, scratch.dir);
  const std::size_t index = w.points.size() - 1;  // 256 MB / 8 K, the quickest point
  bool ok = true;

  OutputCheck check(w, true);
  runner::PointResult<sim::SimResult> good;
  PointTally tally;
  good.value = run_point(w, w.points[index], util::CancelToken::none(),
                         [&tally](std::uint32_t pid, std::unique_ptr<workload::RequestSource> source)
                             -> std::unique_ptr<workload::RequestSource> {
                           return std::make_unique<TimedSource>(std::move(source), pid, tally);
                         });
  ok &= expect(check.check(index, good).empty(), "the pinned point passes the output gate");

  Point perturbed = w.points[index];
  perturbed.params.cache.block_size = 4 * kKiB;
  runner::PointResult<sim::SimResult> bad;
  bad.value = run_point(w, perturbed, util::CancelToken::none());
  ok &= expect(!check.check(index, bad).empty(),
               "a point with its block size changed fails the output gate");

  const CacheReplay first = replay_cache(w.points[index].params.cache, tally.issued);
  const CacheReplay second = replay_cache(w.points[index].params.cache, tally.issued);
  ok &= expect(!first.runs.empty() && first.unplaced == 0,
               "the cache-only replay places every request and emits disk runs");
  ok &= expect(same(first.metrics, second.metrics) && first.blocks == second.blocks &&
                   first.runs.size() == second.runs.size(),
               "the cache-only replay's counters repeat exactly");
  ok &= expect(same(replay_disk(w.points[index].params, first.runs),
                    replay_disk(w.points[index].params, second.runs)),
               "the disk-only replay's counters repeat exactly");
  ok &= expect(tally.requests == w.requests_per_point,
               "the timing decorator saw every request");

  sim::Simulator fig8(w.points[index].params);
  fig8.add_app(workload::make_profile(workload::AppId::kVenus, 11));
  fig8.add_app(workload::make_profile(workload::AppId::kVenus, 22));
  ok &= expect(result_digest(fig8.run()) == pinned_digest("idle_sweep", index),
               "idle_sweep at seed 0 simulates the processes of bench/fig8_idle_sweep");
  std::printf("%s\n", ok ? "self-test passed" : "self-test FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sweepbench

int main(int argc, char** argv) {
  using namespace sweepbench;
  try {
    const Args args = parse_args(argc, argv);
    fs::create_directories(args.out_dir);
    const Scratch scratch(args.out_dir);
    if (args.self_test) return self_test(scratch);
    Outcome out = args.trace ? run_traced(args, scratch) : run_untraced(args, scratch);
    out.correct = out.correct && out.failed == 0;
    report(args, out);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweepbench: %s\n", e.what());
    return 2;
  }
}
