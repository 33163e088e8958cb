// The one sweep driver behind every paper-reproduction sweep bench.
//
// bench::PaperSweep owns a sweep's whole lifecycle: it parses the shared
// flags once (SweepArgs), builds the runner options (RunnerOptions::from_env()
// plus the resilience and live-plane flags), owns the SweepObserver and the
// ExperimentRunner, runs the points in submission order with each point's
// SimParams instrumented, and at the end writes the single-point --perfetto
// trace and the --metrics snapshot for a point the bench names. A bench is
// left with its points, their labels, run_with(params), tables and checks.
//
// Flags (all optional; docs/OBSERVABILITY.md, docs/RESILIENCE.md):
//   --metrics <path>          metrics snapshot JSONL for the named point
//   --perfetto <path>         the named point re-run with spans + counters
//   --perfetto-sweep <path>   every sweep point recorded, merged into one trace
//   --timeseries <path>       every point's sim-time counter samples as JSONL
//   --counter-interval <ms>   counter sampling period (default 100 ms sim time)
//   --listen <host:port>      live /metrics, /status, /healthz, /attribution
//   --attribution <path>      per-point latency-attribution ledgers as JSONL
//   --top <n>                 rows per table in the printed blame report
//   --journal <path>          checkpoint settled points; resume a partial sweep
//   --deadline <s>            per-point deadline, also bounding the --perfetto
//                             re-run (arms the flight recorder together with
//                             --journal)
//   --max-attempts <n>        retry failed/timed-out points
//   --chaos-fail <rate>, --chaos-hang <rate>, --chaos-seed <n>
//                             inject point failures / deadline-length hangs
// A malformed or negative value, or any other argument, prints one line to
// stderr and exits 2. With no flag given every sink stays off, the runner
// takes its legacy path, and the bench's output is byte-identical to an
// uninstrumented serial run.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/attribution.hpp"
#include "bench_common.hpp"
#include "obs/attr.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/sanitize.hpp"
#include "obs/span.hpp"
#include "obs/span_pool.hpp"
#include "runner/runner.hpp"
#include "sim/metrics.hpp"
#include "sim/params.hpp"
#include "sim/simulator.hpp"
#include "util/atomic_file.hpp"
#include "util/cancel.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "workload/profiles.hpp"

namespace craysim::bench {

/// Sampling period used when counters are recorded but --counter-interval
/// was not given: 100 ms of simulated time keeps even hour-long runs under
/// ~40k samples per counter track.
inline constexpr double kDefaultCounterIntervalMs = 100.0;

/// The shared sweep flags (see the file comment). Empty paths and zero
/// numbers mean "off".
struct SweepArgs {
  std::string metrics_path;
  std::string perfetto_path;
  std::string perfetto_sweep_path;
  std::string timeseries_path;
  double counter_interval_ms = 0.0;  ///< 0 = kDefaultCounterIntervalMs
  std::string listen_addr;
  std::string attribution_path;
  std::uint64_t attr_top = 10;
  std::string journal_path;
  double deadline_s = 0.0;
  int max_attempts = 0;  ///< 0 = runner default (no retries)
  double chaos_fail_rate = 0.0;
  double chaos_hang_rate = 0.0;
  std::uint64_t chaos_seed = 0;  ///< 0 = plan default

  /// Did the user ask for any per-sweep-point recording?
  [[nodiscard]] bool sweep_telemetry() const {
    return !perfetto_sweep_path.empty() || !timeseries_path.empty();
  }

  /// Latency attribution: --attribution, or a live server whose
  /// /attribution endpoint should have data.
  [[nodiscard]] bool attribution() const {
    return !attribution_path.empty() || !listen_addr.empty();
  }

  [[nodiscard]] bool resilience() const {
    return !journal_path.empty() || deadline_s > 0.0 || max_attempts > 0 ||
           chaos_fail_rate > 0.0 || chaos_hang_rate > 0.0;
  }

  [[nodiscard]] Ticks counter_interval() const {
    return Ticks::from_ms(counter_interval_ms > 0.0 ? counter_interval_ms
                                                    : kDefaultCounterIntervalMs);
  }

  /// Parses argv[1..argc) as "<flag> <value>" pairs in any order (a repeated
  /// flag keeps its last value). Throws ConfigError on an unknown argument, a
  /// flag without a value, or a numeric value that is malformed, negative,
  /// out of range or not finite.
  [[nodiscard]] static SweepArgs parse(int argc, const char* const* argv) {
    using Field = std::variant<std::string SweepArgs::*, double SweepArgs::*,
                               int SweepArgs::*, std::uint64_t SweepArgs::*>;
    static const std::pair<std::string_view, Field> kFlags[] = {
        {"--metrics", &SweepArgs::metrics_path},
        {"--perfetto", &SweepArgs::perfetto_path},
        {"--perfetto-sweep", &SweepArgs::perfetto_sweep_path},
        {"--timeseries", &SweepArgs::timeseries_path},
        {"--counter-interval", &SweepArgs::counter_interval_ms},
        {"--listen", &SweepArgs::listen_addr},
        {"--attribution", &SweepArgs::attribution_path},
        {"--top", &SweepArgs::attr_top},
        {"--journal", &SweepArgs::journal_path},
        {"--deadline", &SweepArgs::deadline_s},
        {"--max-attempts", &SweepArgs::max_attempts},
        {"--chaos-fail", &SweepArgs::chaos_fail_rate},
        {"--chaos-hang", &SweepArgs::chaos_hang_rate},
        {"--chaos-seed", &SweepArgs::chaos_seed},
    };
    SweepArgs args;
    for (int i = 1; i < argc; i += 2) {
      const std::string_view flag = argv[i];
      const auto known = std::find_if(std::begin(kFlags), std::end(kFlags),
                                      [&](const auto& entry) { return entry.first == flag; });
      if (known == std::end(kFlags)) {
        throw ConfigError("unknown argument '" + std::string(flag) + "'");
      }
      if (i + 1 >= argc) throw ConfigError(std::string(flag) + ": missing value");
      const std::string value = argv[i + 1];
      std::visit(
          [&](auto member) {
            using T = std::remove_reference_t<decltype(args.*member)>;
            if constexpr (std::is_same_v<T, std::string>) {
              args.*member = value;
            } else {
              args.*member = parse_number<T>(flag, value);
            }
          },
          known->second);
    }
    return args;
  }

 private:
  template <typename T>
  [[nodiscard]] static T parse_number(std::string_view flag, const std::string& text) {
    T value{};
    bool ok = false;
    if constexpr (std::is_floating_point_v<T>) {
      char* end = nullptr;
      value = std::strtod(text.c_str(), &end);
      ok = !text.empty() && end == text.c_str() + text.size() && std::isfinite(value) &&
           value >= 0.0;
    } else {
      const char* last = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), last, value);
      ok = ec == std::errc{} && ptr == last;
      if constexpr (std::is_signed_v<T>) ok = ok && value >= 0;
    }
    if (!ok) {
      throw ConfigError(std::string(flag) + ": expected a non-negative " +
                       (std::is_floating_point_v<T> ? "number" : "integer") + ", got '" +
                       text + "'");
    }
    return value;
  }
};

/// Per-point sinks of one sweep: the --perfetto-sweep/--timeseries span
/// pool, the --attribution blame ledgers, and the deadline flight recorder.
/// With none of those flags instrument() leaves SimParams untouched, so the
/// simulation does zero telemetry work.
class SweepObserver {
 public:
  SweepObserver(const SweepArgs& args, std::size_t points)
      : args_(args), pool_(points, args.sweep_telemetry()) {
    if (args.attribution()) {
      ledgers_ = std::make_unique<obs::AttributionLedger[]>(points);
      attr_labels_.assign(points, {});
    }
    // The flight recorder (docs/OBSERVABILITY.md) arms only for journaled
    // sweeps with a deadline — the combination where a timed-out point would
    // otherwise leave no evidence behind. One bounded ring per point, filled
    // by a span tee while the point runs.
    if (!args.journal_path.empty() && args.deadline_s > 0.0) {
      flight_path_ = args.journal_path + ".flight.json";
      flights_ = std::vector<obs::FlightRecorder>(points);
      flight_labels_.resize(points);
      if (!pool_.enabled()) flight_spans_ = std::vector<obs::SpanRecorder>(points);
    }
  }

  [[nodiscard]] bool attribution_enabled() const { return ledgers_ != nullptr; }
  [[nodiscard]] bool flight_armed() const { return !flights_.empty(); }
  [[nodiscard]] const std::string& flight_path() const { return flight_path_; }

  /// Wires point `index`'s sinks into `params`: its blame ledger, and its
  /// span recorder plus the counter sampling interval. With a flight ring
  /// armed but Perfetto export off, the point gets a constant-memory
  /// flight-only recorder (events tee into the ring and are not retained).
  void instrument(std::size_t index, std::string label, sim::SimParams& params) {
    if (ledgers_ != nullptr && index < pool_.size()) {
      {
        // The live /attribution handler reads labels concurrently, so writes
        // go under a mutex (once per point — never on the simulated op path).
        const std::lock_guard<std::mutex> lock(attr_mutex_);
        attr_labels_[index] = label;
      }
      // Accumulate-only: a point retried after a chaos failure folds every
      // attempt's ops into the same ledger, so chaos-run blame reports can
      // count an op more than once. Deterministic runs record each op once.
      params.attribution = &ledgers_[index];
    }
    if (flight_armed() && index < flight_labels_.size()) flight_labels_[index] = label;
    obs::SpanRecorder* recorder = pool_.claim(index, std::move(label));
    if (recorder == nullptr) {
      if (!flight_armed() || index >= flight_spans_.size()) return;
      recorder = &flight_spans_[index];
      recorder->set_flight(&flights_[index], /*keep_events=*/false);
    } else if (flight_armed() && index < flights_.size()) {
      recorder->set_flight(&flights_[index]);
    }
    params.spans = recorder;
    params.counter_interval = args_.counter_interval();
  }

  /// Writes `<journal>.flight.json` (atomically) when the flight ring is
  /// armed and at least one point settled as timed out: one record per
  /// timed-out point with its outcome and the tail of its recording. Points
  /// that never reached their own simulation (a chaos hang cancelled before
  /// the body ran) appear with an empty event tail — the outcome fields
  /// still say what happened. Returns the path written, or "" when nothing
  /// was dumped.
  std::string dump_flight(const std::vector<runner::PointOutcome>& outcomes) {
    if (!flight_armed()) return {};
    std::size_t timed_out = 0;
    for (const auto& outcome : outcomes) {
      if (outcome.status == runner::PointStatus::kTimedOut) ++timed_out;
    }
    if (timed_out == 0) return {};
    std::ostringstream out;
    out << "{\"craysim_flight\":1,\"deadline_s\":" << args_.deadline_s
        << ",\"capacity\":" << obs::FlightRecorder::kDefaultCapacity << ",\"points\":[";
    bool first = true;
    for (std::size_t i = 0; i < outcomes.size() && i < flights_.size(); ++i) {
      if (outcomes[i].status != runner::PointStatus::kTimedOut) continue;
      if (!first) out << ",";
      first = false;
      const std::string& label =
          flight_labels_[i].empty() ? "point " + std::to_string(i) : flight_labels_[i];
      out << "{\"point\":" << i << ",\"label\":\"" << obs::json_escape(label)
          << "\",\"status\":\"" << runner::point_status_name(outcomes[i].status)
          << "\",\"attempts\":" << outcomes[i].attempts
          << ",\"backoff_ns\":" << outcomes[i].backoff_ns << ",\"error\":\""
          << obs::json_escape(outcomes[i].error) << "\",";
      flights_[i].write_json_events(out);
      out << "}";
    }
    out << "]}\n";
    util::write_file_atomic(flight_path_, out.str());
    std::printf("wrote flight recording (%zu timed-out points) to %s\n", timed_out,
                flight_path_.c_str());
    return flight_path_;
  }

  /// Blame totals across every point's ledger, merged by row key. Safe to
  /// call mid-sweep (the ledgers are built for concurrent scrapes); the
  /// result is a monotonic in-progress view, like /metrics counters.
  [[nodiscard]] obs::AttrSummary attribution_summary() const {
    obs::AttrSummary merged;
    if (ledgers_ == nullptr) return merged;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      obs::merge_attr_summary(merged, ledgers_[i].summarize());
    }
    return merged;
  }

  /// The /attribution payload: the merged summary as one JSON object
  /// (top-level marker "craysim_attribution").
  [[nodiscard]] std::string attribution_json() const {
    std::ostringstream out;
    obs::write_attr_json(out, attribution_summary());
    out << "\n";
    return out.str();
  }

  /// Publishes the merged summary into `registry` under "sim.attr" (the
  /// sim_attr_* Prometheus families) on every live /metrics scrape.
  void publish_attribution(obs::MetricsRegistry& registry) const {
    if (ledgers_ == nullptr) return;
    const obs::AttrSummary merged = attribution_summary();
    if (merged.enabled) obs::publish_attr_metrics(merged, registry);
  }

  /// Writes the per-point JSONL blame ledgers and prints the merged blame
  /// report. Also runs before a failure exit, so — like the flight dump — a
  /// sweep that dies of timeouts still leaves its attribution evidence
  /// behind. No-op unless --attribution was given.
  void write_attribution_artifact() const {
    if (ledgers_ == nullptr || args_.attribution_path.empty()) return;
    std::ostringstream out;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      std::string label;
      {
        const std::lock_guard<std::mutex> lock(attr_mutex_);
        label = attr_labels_[i];
      }
      if (label.empty()) label = "point " + std::to_string(i);
      // Journal-restored points never re-ran their simulation, so their
      // ledgers are empty; they still emit a zero total row so the file
      // always carries one "total" line per sweep point.
      obs::write_attr_jsonl(out, ledgers_[i].summarize(), label);
    }
    util::write_file_atomic(args_.attribution_path, out.str());
    std::printf("wrote attribution ledgers (%zu points) to %s\n", pool_.size(),
                args_.attribution_path.c_str());
    std::printf("\n%s", analysis::attribution_report(
                            attribution_summary(), static_cast<std::size_t>(args_.attr_top))
                            .c_str());
  }

  /// Validates every recording and writes the requested artifacts. Returns
  /// false (after printing the violation to stderr) if any point's spans
  /// are inconsistent.
  [[nodiscard]] bool finish() {
    if (pool_.enabled()) {
      const std::string problem = obs::check_consistency(pool_);
      if (!problem.empty()) {
        std::fprintf(stderr, "sweep span consistency check failed: %s\n", problem.c_str());
        return false;
      }
      if (!args_.perfetto_sweep_path.empty()) {
        pool_.save_merged(args_.perfetto_sweep_path);
        std::printf("\nwrote merged sweep trace (%zu points) to %s\n", pool_.size(),
                    args_.perfetto_sweep_path.c_str());
      }
      if (!args_.timeseries_path.empty()) {
        pool_.save_counter_series(args_.timeseries_path);
        std::printf("wrote counter time series to %s\n", args_.timeseries_path.c_str());
      }
    }
    write_attribution_artifact();
    return true;
  }

 private:
  SweepArgs args_;
  obs::SpanRecorderPool pool_;

  // Attribution state; null unless args.attribution(). One ledger per sweep
  // point (heap array — each ledger is several KiB of cache-line-aligned
  // atomics), sized once so workers and the live handler hold stable
  // pointers. The ledgers themselves are scraped lock-free; only the label
  // strings need the mutex.
  std::unique_ptr<obs::AttributionLedger[]> ledgers_;
  mutable std::mutex attr_mutex_;           ///< guards attr_labels_ contents
  std::vector<std::string> attr_labels_;

  // Flight-recorder state; all empty unless armed. The vectors are sized
  // once (never reallocated mid-sweep — workers hold pointers into them)
  // and each slot is touched only by the worker running that point.
  std::string flight_path_;
  std::vector<obs::FlightRecorder> flights_;
  std::vector<obs::SpanRecorder> flight_spans_;  ///< flight-only probes (Perfetto off)
  std::vector<std::string> flight_labels_;
};

/// The paper benches' workload: `apps` side by side under `params`, the k-th
/// seeded 11 * (k + 1) — two venus copies are seeds 11 and 22.
[[nodiscard]] inline sim::SimResult run_apps(const sim::SimParams& params,
                                             const std::vector<workload::AppId>& apps) {
  sim::Simulator simulator(params);
  std::uint64_t seed = 11;
  for (const workload::AppId app : apps) {
    simulator.add_app(workload::make_profile(app, seed));
    seed += 11;
  }
  return simulator.run();
}

/// Which sweep point PaperSweep::finish's single-point artifacts describe.
struct SweepReport {
  std::size_t trace_point = 0;    ///< re-run instrumented for --perfetto
  std::size_t metrics_point = 0;  ///< SimResult published by --metrics
  std::string_view metrics_prefix = "sim";
  bool phases = false;  ///< also publish the sweep/perfetto wall times (phase.*)
};

class PaperSweep {
 public:
  /// Parses the shared flags; on a bad command line prints one line naming
  /// the flag and exits 2. `base` carries the runner settings no flag
  /// controls (thread count, backoff). Arms the interrupted-run stdout
  /// flush hooks.
  PaperSweep(int argc, const char* const* argv,
             runner::RunnerOptions base = runner::RunnerOptions::from_env())
      : program_(argc > 0 ? argv[0] : "bench"), base_(std::move(base)) {
    try {
      args_ = SweepArgs::parse(argc, argv);
    } catch (const ConfigError& e) {
      usage_exit(e.what());
    }
    install_signal_flush_hooks();
  }

  PaperSweep(const PaperSweep&) = delete;
  PaperSweep& operator=(const PaperSweep&) = delete;

  /// Builds the observer and the runner for a sweep of `points` points; the
  /// live plane (--listen) is up from here on. run() calls this; code that
  /// drives the runner itself calls it directly. One sweep per driver.
  runner::ExperimentRunner& start(std::size_t points) {
    if (runner_ != nullptr) throw std::logic_error("PaperSweep drives exactly one sweep");
    observer_ = std::make_unique<SweepObserver>(args_, points);
    runner::RunnerOptions options = base_;
    options.collect_telemetry = !args_.metrics_path.empty();
    if (!args_.journal_path.empty()) options.journal_path = args_.journal_path;
    if (args_.deadline_s > 0.0) options.point_deadline = point_deadline();
    if (args_.max_attempts > 0) options.max_attempts = args_.max_attempts;
    if (args_.chaos_fail_rate > 0.0) options.chaos.fail_rate = args_.chaos_fail_rate;
    if (args_.chaos_hang_rate > 0.0) options.chaos.hang_rate = args_.chaos_hang_rate;
    if (args_.chaos_seed != 0) options.chaos.seed = args_.chaos_seed;
    if (!args_.listen_addr.empty()) {
      options.listen_addr = args_.listen_addr;
      options.metrics = &registry_;
      if (observer_->attribution_enabled()) {
        // The server thread calls back into the observer on every scrape;
        // member order destroys the runner before the observer.
        const SweepObserver* live = observer_.get();
        options.endpoints.push_back({"/attribution", "application/json",
                                     [live] { return live->attribution_json(); }});
        options.scrape_hook = [live](obs::MetricsRegistry& registry) {
          live->publish_attribution(registry);
        };
      }
    }
    runner_ = std::make_unique<runner::ExperimentRunner>(std::move(options));
    return *runner_;
  }

  /// The observer of the started sweep (valid after start()).
  [[nodiscard]] SweepObserver& observer() { return *observer_; }

  /// Runs one simulation per point and returns the results in submission
  /// order. Point i runs `run_with(params)` — or `run_with(point, params)`
  /// when the workload depends on the point — on `params(point)` with the
  /// flag-selected sinks and the runner's cancel token attached, so a
  /// --deadline stops the simulation itself; `label(point)` names the point in traces,
  /// ledgers, the flight dump and the journal. When any resilience flag was
  /// given, prints a one-line outcome summary. A failed point is reported to
  /// stderr and exits the bench with status 1, after the flight dump and the
  /// attribution ledgers are written; a configuration the runner rejects
  /// (e.g. --chaos-hang without --deadline, a foreign journal) exits 2.
  template <typename Point, typename LabelFn, typename ParamsFn, typename RunFn>
  [[nodiscard]] std::vector<sim::SimResult> run(const std::vector<Point>& points,
                                                LabelFn label, ParamsFn params,
                                                RunFn run_with) {
    std::vector<std::string> labels;
    labels.reserve(points.size());
    for (const Point& point : points) labels.emplace_back(label(point));
    simulate_ = [points, params, run_with](std::size_t i, const Instrument& instrument) {
      sim::SimParams p = params(points[i]);
      instrument(p);
      if constexpr (std::is_invocable_v<const RunFn&, const Point&, const sim::SimParams&>) {
        return sim::SimResult(run_with(points[i], p));
      } else {
        return sim::SimResult(run_with(p));
      }
    };
    runner::ExperimentRunner& pool = start(points.size());
    if (observer_->flight_armed()) pool.note_flight_armed(observer_->flight_path());
    std::vector<std::size_t> indices(points.size());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    std::vector<runner::PointResult<sim::SimResult>> settled;
    try {
      const auto scope = phases_.scope("sweep");
      settled = pool.run_settled(
          indices,
          [&](std::size_t i, const util::CancelToken& token) {
            return simulate_(i, [&](sim::SimParams& p) {
              observer_->instrument(i, labels[i], p);
              p.cancel = &token;  // --deadline reaches the simulation
            });
          },
          SimResultCodec{labels});
    } catch (const Error& e) {
      usage_exit(e.what());
    }
    return settle(std::move(settled));
  }

  /// Validates the sweep recordings and writes every requested artifact:
  /// the sweep-wide ones, the --perfetto re-run of `report.trace_point`, and
  /// the --metrics snapshot of `results[report.metrics_point]` plus runner
  /// (and optionally phase) metrics. Returns the bench's exit status: 0, or
  /// 1 on a span consistency failure or when --deadline stops the re-run.
  [[nodiscard]] int finish(const std::vector<sim::SimResult>& results,
                           const SweepReport& report = {}) {
    if (!observer_->finish()) return 1;
    if (!args_.perfetto_path.empty()) {
      const auto scope = phases_.scope("perfetto");
      obs::SpanRecorder spans;
      // --deadline bounds this re-run as it bounds each sweep point.
      const util::CancelToken deadline(std::chrono::steady_clock::now() + point_deadline());
      try {
        (void)simulate_(report.trace_point, [&](sim::SimParams& p) {
          p.spans = &spans;
          p.counter_interval = args_.counter_interval();
          if (args_.deadline_s > 0.0) p.cancel = &deadline;
        });
      } catch (const CancelledError& e) {
        std::fprintf(stderr, "%s: --perfetto re-run of sweep point %zu failed: %s\n",
                     program_.c_str(), report.trace_point, e.what());
        return 1;
      }
      const std::string problem = obs::check_consistency(spans);
      if (!problem.empty()) {
        std::fprintf(stderr, "span consistency check failed: %s\n", problem.c_str());
        return 1;
      }
      spans.save(args_.perfetto_path);
      std::printf("\nwrote %zu span events to %s\n", spans.size(), args_.perfetto_path.c_str());
    }
    if (!args_.metrics_path.empty()) {
      results.at(report.metrics_point).publish_metrics(registry_, report.metrics_prefix);
      runner_->publish_metrics(registry_);
      if (report.phases) phases_.publish_metrics(registry_);
      registry_.save_jsonl(args_.metrics_path);
      std::printf("wrote %zu metrics to %s\n", registry_.size(), args_.metrics_path.c_str());
    }
    return 0;
  }

 private:
  using Instrument = std::function<void(sim::SimParams&)>;

  /// Journal codec for sweep points: the lossless sim::serialize_sim_result
  /// round trip, with each point's label as its input identity, so a journal
  /// written by one bench (or one point layout) is rejected by any other.
  struct SimResultCodec {
    const std::vector<std::string>& labels;

    [[nodiscard]] std::string encode(const sim::SimResult& r) const {
      return sim::serialize_sim_result(r);
    }
    [[nodiscard]] sim::SimResult decode(std::string_view text) const {
      return sim::parse_sim_result(text);
    }
    [[nodiscard]] std::uint64_t digest(std::size_t point) const {
      util::Fnv1a fnv;
      fnv.add_text(labels[point]);
      return fnv.value();
    }
  };

  /// The --deadline budget of one simulation.
  [[nodiscard]] std::chrono::nanoseconds point_deadline() const {
    return std::chrono::nanoseconds(static_cast<std::int64_t>(args_.deadline_s * 1e9));
  }

  [[noreturn]] void usage_exit(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
    std::exit(2);
  }

  std::vector<sim::SimResult> settle(std::vector<runner::PointResult<sim::SimResult>> settled) {
    std::vector<runner::PointOutcome> outcomes;
    outcomes.reserve(settled.size());
    for (const auto& point : settled) outcomes.push_back(point.outcome);
    const std::string dump = observer_->dump_flight(outcomes);
    if (!dump.empty()) runner_->note_flight_dump(dump);
    if (args_.resilience()) {
      long long attempts = 0;
      long long restored = 0;
      long long failed = 0;
      long long timed_out = 0;
      for (const auto& outcome : outcomes) {
        attempts += outcome.attempts;
        restored += outcome.from_journal ? 1 : 0;
        failed += outcome.status == runner::PointStatus::kFailed ? 1 : 0;
        timed_out += outcome.status == runner::PointStatus::kTimedOut ? 1 : 0;
      }
      std::printf("resilience: %zu points, %lld attempts, %lld restored from journal, "
                  "%lld failed, %lld timed out\n",
                  settled.size(), attempts, restored, failed, timed_out);
    }
    bool ok = true;
    for (std::size_t i = 0; i < settled.size(); ++i) {
      if (settled[i].ok()) continue;
      ok = false;
      try {
        std::rethrow_exception(settled[i].error);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sweep point %zu failed (%s, %d attempts): %s\n", i,
                     runner::point_status_name(settled[i].outcome.status),
                     settled[i].outcome.attempts, e.what());
      }
    }
    if (!ok) {
      observer_->write_attribution_artifact();
      std::exit(1);
    }
    std::vector<sim::SimResult> values;
    values.reserve(settled.size());
    for (auto& point : settled) values.push_back(std::move(*point.value));
    return values;
  }

  std::string program_;
  SweepArgs args_;
  runner::RunnerOptions base_;
  obs::MetricsRegistry registry_;
  obs::PhaseProfiler phases_;
  std::function<sim::SimResult(std::size_t, const Instrument&)> simulate_;
  // Declared after everything the runner's server thread reads (registry,
  // observer), so the runner — and with it the live plane — goes first.
  std::unique_ptr<SweepObserver> observer_;
  std::unique_ptr<runner::ExperimentRunner> runner_;
};

}  // namespace craysim::bench
