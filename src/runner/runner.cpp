#include "runner/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/promtext.hpp"
#include "obs/sanitize.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace craysim::runner {

namespace {

/// Splits a (seed, point, attempt) triple into an independent Rng stream.
/// SplitMix64's golden-ratio increment decorrelates adjacent points; the
/// attempt lands in the low bits so consecutive attempts of one point get
/// unrelated streams too.
std::uint64_t mix_stream(std::uint64_t seed, std::size_t point, std::int32_t attempt) {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
  return seed ^ (kGolden * (static_cast<std::uint64_t>(point) + 1) +
                 static_cast<std::uint64_t>(attempt));
}

void validate_resilience(const RunnerOptions& options) {
  const RunnerFaultPlan& chaos = options.chaos;
  if (options.max_attempts < 1) throw ConfigError("runner: max_attempts must be >= 1");
  if (options.journal_flush_every == 0) {
    throw ConfigError("runner: journal_flush_every must be >= 1");
  }
  if (options.retry_jitter < 0.0 || options.retry_jitter >= 1.0) {
    throw ConfigError("runner: retry_jitter must lie in [0, 1)");
  }
  if (options.retry_backoff.count() < 0) throw ConfigError("runner: retry_backoff must be >= 0");
  for (const double rate : {chaos.fail_rate, chaos.delay_rate, chaos.hang_rate}) {
    if (rate < 0.0 || rate > 1.0) throw ConfigError("runner: chaos rates must lie in [0, 1]");
  }
  if (chaos.hang_rate > 0.0 && options.point_deadline.count() <= 0) {
    throw ConfigError(
        "runner: chaos.hang_rate requires point_deadline > 0 (a hang with no deadline "
        "would wedge a worker forever)");
  }
}

}  // namespace

std::chrono::nanoseconds retry_delay(const RunnerOptions& options, std::size_t point,
                                     std::int32_t attempt) {
  // attempt is 2-based: the delay slept before the second execution. Pure
  // function of (retry_seed, point, attempt) — see the determinism contract.
  const double base = static_cast<double>(options.retry_backoff.count()) *
                      std::ldexp(1.0, std::max(0, attempt - 2));
  Rng rng(mix_stream(options.retry_seed, point, attempt));
  const double factor =
      1.0 + options.retry_jitter * (2.0 * rng.next_double() - 1.0);
  return std::chrono::nanoseconds(static_cast<std::int64_t>(std::llround(base * factor)));
}

RunnerOptions RunnerOptions::from_env() {
  RunnerOptions options;
  if (const char* env = std::getenv("CRAYSIM_RUNNER_THREADS")) {
    const auto parsed = parse_int(env);
    if (parsed && *parsed > 0 && *parsed <= 1024) {
      options.threads = static_cast<unsigned>(*parsed);
    }
  }
  return options;
}

ExperimentRunner::ExperimentRunner(RunnerOptions options) : options_(std::move(options)) {
  unsigned threads = options_.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  // The live plane needs the per-worker slots for /status even when JSONL
  // telemetry is off.
  if (options_.collect_telemetry || !options_.listen_addr.empty()) {
    stats_ = std::make_unique<WorkerStats[]>(threads);
  }
  // The caller is worker number zero; only the extras need threads.
  workers_.reserve(threads - 1);
  for (unsigned i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  if (!options_.listen_addr.empty()) start_server();
}

ExperimentRunner::~ExperimentRunner() {
  // Stop serving scrapes before the pool (and everything handlers read)
  // starts tearing down.
  server_.reset();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ExperimentRunner::complete_one() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (++completed_ == count_) done_cv_.notify_all();
}

void ExperimentRunner::note_claim(std::int64_t depth) {
  depth_sum_.fetch_add(depth, std::memory_order_relaxed);
  depth_samples_.fetch_add(1, std::memory_order_relaxed);
  std::int64_t seen = depth_max_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !depth_max_.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
    // On CAS failure, `seen` was refreshed with the current maximum.
  }
}

void ExperimentRunner::run_point(const std::function<void(std::size_t)>& fn, std::size_t index,
                                 unsigned worker, std::int64_t depth) {
  if (!stats_) {
    fn(index);
    return;
  }
  note_claim(depth);
  WorkerStats& slot = stats_[worker];
  slot.busy.store(true, std::memory_order_relaxed);
  const auto started = std::chrono::steady_clock::now();
  fn(index);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  slot.busy.store(false, std::memory_order_relaxed);
  slot.points.fetch_add(1, std::memory_order_relaxed);
  slot.busy_ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count(),
                         std::memory_order_relaxed);
}

void ExperimentRunner::claim_loop(std::size_t base, std::size_t end,
                                  const std::function<void(std::size_t)>& fn, unsigned worker) {
  // CAS rather than fetch_add: the increment only happens when the observed
  // ticket still lies inside this batch's [base, end) window. A straggler
  // from a finished batch therefore cannot consume (and silently drop) a
  // ticket belonging to the next batch — the next batch's base equals this
  // batch's end, so any ticket the straggler observes is already >= its own
  // end and its CAS never fires.
  std::size_t ticket = next_index_.load(std::memory_order_relaxed);
  while (ticket < end) {
    if (next_index_.compare_exchange_weak(ticket, ticket + 1, std::memory_order_relaxed)) {
      run_point(fn, ticket - base, worker, static_cast<std::int64_t>(end - ticket));
      complete_one();
      ticket = next_index_.load(std::memory_order_relaxed);
    }
    // On CAS failure, `ticket` was refreshed with the current value.
  }
}

void ExperimentRunner::worker_loop(unsigned worker) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t base = 0;
    std::size_t end = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      fn = fn_;
      base = base_;
      end = base_ + count_;
    }
    // fn_ is nulled only after its batch fully drained; a worker that slept
    // through the whole batch has nothing to claim.
    if (fn != nullptr) claim_loop(base, end, *fn, worker);
  }
}

void ExperimentRunner::run_indexed(std::size_t count,
                                   const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const auto batch_started =
      stats_ ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
  if (workers_.empty()) {
    // Serial: no pool machinery, no synchronization.
    for (std::size_t i = 0; i < count; ++i) {
      run_point(fn, i, 0, static_cast<std::int64_t>(count - i));
    }
    if (stats_) {
      batches_.fetch_add(1, std::memory_order_relaxed);
      wall_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - batch_started)
                             .count(),
                         std::memory_order_relaxed);
    }
    return;
  }
  std::size_t base = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    count_ = count;
    completed_ = 0;
    // The ticket counter is never rewound; this batch owns [base, base +
    // count). At this point every prior batch fully drained (its caller
    // waited for completed_ == count_, and the CAS in claim_loop caps the
    // counter at each batch's end), so next_index_ equals the previous
    // batch's end exactly.
    base_ = next_index_.load(std::memory_order_relaxed);
    base = base_;
    ++generation_;
  }
  work_cv_.notify_all();
  // The caller claims points alongside the pool.
  claim_loop(base, base + count, fn, 0);
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return completed_ == count_; });
  fn_ = nullptr;
  if (stats_) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    wall_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - batch_started)
                           .count(),
                       std::memory_order_relaxed);
  }
}

void ExperimentRunner::inject_chaos(std::size_t index, std::int32_t attempt,
                                    const util::CancelToken& token) {
  const RunnerFaultPlan& plan = options_.chaos;
  if (!plan.enabled()) return;
  Rng rng(mix_stream(plan.seed, index, attempt));
  // Fixed draw order (hang, fail, delay): one seed pins one schedule. Draws
  // are gated on their rate being nonzero, mirroring faults::FaultInjector —
  // enabling a category shifts later draws, toggling a zero rate does not.
  if (plan.hang_rate > 0.0 && rng.chance(plan.hang_rate)) {
    res_chaos_hangs_.fetch_add(1, std::memory_order_relaxed);
    while (!token.cancelled()) std::this_thread::sleep_for(plan.hang_poll);
    throw CancelledError("chaos: injected hang (point " + std::to_string(index) + ", attempt " +
                         std::to_string(attempt) + ") cancelled by deadline");
  }
  if (plan.fail_rate > 0.0 && rng.chance(plan.fail_rate)) {
    res_chaos_failures_.fetch_add(1, std::memory_order_relaxed);
    throw Error("chaos: injected failure (point " + std::to_string(index) + ", attempt " +
                std::to_string(attempt) + ")");
  }
  if (plan.delay_rate > 0.0 && rng.chance(plan.delay_rate)) {
    res_chaos_delays_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(plan.delay);
  }
}

PointOutcome ExperimentRunner::execute_point(std::size_t index, const ResilientBody& body,
                                             SweepJournal* journal, std::uint64_t digest) {
  PointOutcome outcome;
  std::string payload;
  const std::int32_t max_attempts = options_.max_attempts;
  for (std::int32_t attempt = 1;; ++attempt) {
    outcome.attempts = attempt;
    if (progress_) {
      progress_->mark(index, SweepProgress::State::kRunning);
      progress_->set_attempts(index, attempt);
    }
    res_attempts_.fetch_add(1, std::memory_order_relaxed);
    // Each attempt gets a fresh deadline budget.
    std::optional<util::CancelToken> deadline_token;
    if (options_.point_deadline.count() > 0) {
      deadline_token.emplace(std::chrono::steady_clock::now() + options_.point_deadline);
    }
    const util::CancelToken& token =
        deadline_token ? *deadline_token : util::CancelToken::none();
    bool failed = false;
    try {
      inject_chaos(index, attempt, token);
      payload = body(index, token);
      outcome.status = PointStatus::kOk;
      outcome.error.clear();
    } catch (const CancelledError& e) {
      failed = true;
      outcome.status = PointStatus::kTimedOut;
      outcome.error = e.what();
      res_timeouts_.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      failed = true;
      outcome.status = PointStatus::kFailed;
      outcome.error = e.what();
    } catch (...) {
      failed = true;
      outcome.status = PointStatus::kFailed;
      outcome.error = "unknown error";
    }
    if (!failed || attempt >= max_attempts) break;
    progress_mark(index, SweepProgress::State::kRetrying);
    const std::chrono::nanoseconds delay = retry_delay(options_, index, attempt + 1);
    outcome.backoff_ns += delay.count();
    res_retries_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(delay);
  }
  progress_mark(index, outcome.status == PointStatus::kOk        ? SweepProgress::State::kDone
                       : outcome.status == PointStatus::kTimedOut ? SweepProgress::State::kTimedOut
                                                                  : SweepProgress::State::kFailed);
  if (outcome.status != PointStatus::kOk) res_failures_.fetch_add(1, std::memory_order_relaxed);
  res_backoff_ns_.fetch_add(outcome.backoff_ns, std::memory_order_relaxed);
  if (journal != nullptr) {
    SweepJournal::Record record;
    record.index = index;
    record.input_digest = digest;
    record.outcome = outcome;
    if (outcome.status == PointStatus::kOk) record.payload = std::move(payload);
    journal->append(std::move(record));
  }
  return outcome;
}

std::vector<PointOutcome> ExperimentRunner::run_resilient(std::size_t count,
                                                          const ResilientBody& body,
                                                          const PointDigestFn& point_digest,
                                                          const RestoreFn& on_restored) {
  validate_resilience(options_);
  resilient_used_.store(true, std::memory_order_relaxed);
  progress_begin(count);
  std::vector<PointOutcome> outcomes(count);
  std::vector<std::uint64_t> digests;
  std::unique_ptr<SweepJournal> journal;
  std::vector<bool> done(count, false);
  if (!options_.journal_path.empty()) {
    if (!point_digest) {
      throw ConfigError(
          "runner: journal_path requires a result codec — use the run_settled/run overload "
          "taking one");
    }
    digests.resize(count);
    util::Fnv1a sweep;
    sweep.add(static_cast<std::uint64_t>(count));
    for (std::size_t i = 0; i < count; ++i) {
      digests[i] = point_digest(i);
      sweep.add(digests[i]);
    }
    journal = std::make_unique<SweepJournal>(options_.journal_path, sweep.value(), count,
                                             options_.journal_flush_every);
    for (const SweepJournal::Record& record : journal->records()) {
      if (record.input_digest != digests[record.index]) {
        throw Error("journal: " + options_.journal_path + ": record for point " +
                    std::to_string(record.index) + " carries a different input digest");
      }
      done[record.index] = true;
      outcomes[record.index] = record.outcome;
      outcomes[record.index].from_journal = true;
      if (on_restored) on_restored(record.index, record.payload, outcomes[record.index]);
      progress_mark(record.index, SweepProgress::State::kRestored);
      res_restored_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::vector<std::size_t> todo;
  todo.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!done[i]) todo.push_back(i);
  }
  run_indexed(todo.size(), [&](std::size_t j) {
    const std::size_t i = todo[j];
    outcomes[i] = execute_point(i, body, journal.get(), journal ? digests[i] : 0);
  });
  if (journal) journal->flush();
  return outcomes;
}

void ExperimentRunner::publish_metrics(obs::MetricsRegistry& registry,
                                       std::string_view prefix) const {
  const std::string p(prefix);
  const unsigned threads = thread_count();
  registry.gauge(p + ".threads").set(static_cast<double>(threads));
  registry.counter(p + ".batches").add(batches_.load(std::memory_order_relaxed));
  const double wall_s = static_cast<double>(wall_ns_.load(std::memory_order_relaxed)) * 1e-9;
  registry.gauge(p + ".wall_s").set(wall_s);
  std::int64_t total_points = 0;
  if (stats_) {
    for (unsigned i = 0; i < threads; ++i) {
      const std::int64_t points = stats_[i].points.load(std::memory_order_relaxed);
      const double busy_s =
          static_cast<double>(stats_[i].busy_ns.load(std::memory_order_relaxed)) * 1e-9;
      total_points += points;
      const std::string wp = p + ".worker." + std::to_string(i);
      registry.counter(wp + ".points").add(points);
      registry.gauge(wp + ".busy_s").set(busy_s);
      // Idle = batch wall time the worker did not spend inside a point;
      // clamped because clock skew can push busy a hair past wall.
      registry.gauge(wp + ".idle_s").set(std::max(0.0, wall_s - busy_s));
    }
  }
  registry.counter(p + ".points").add(total_points);
  const std::int64_t samples = depth_samples_.load(std::memory_order_relaxed);
  registry.gauge(p + ".queue_depth.mean")
      .set(samples > 0 ? static_cast<double>(depth_sum_.load(std::memory_order_relaxed)) /
                             static_cast<double>(samples)
                       : 0.0);
  registry.gauge(p + ".queue_depth.max")
      .set(static_cast<double>(depth_max_.load(std::memory_order_relaxed)));
  // Resilience tallies appear only when a resilient run happened, keeping
  // the legacy metric-name schema (pinned by obs_golden_test) unchanged.
  if (resilient_used_.load(std::memory_order_relaxed)) {
    registry.counter(p + ".attempts").add(res_attempts_.load(std::memory_order_relaxed));
    registry.counter(p + ".retries").add(res_retries_.load(std::memory_order_relaxed));
    registry.counter(p + ".timeouts").add(res_timeouts_.load(std::memory_order_relaxed));
    registry.counter(p + ".failures").add(res_failures_.load(std::memory_order_relaxed));
    registry.counter(p + ".points_restored")
        .add(res_restored_.load(std::memory_order_relaxed));
    registry.gauge(p + ".backoff_s")
        .set(static_cast<double>(res_backoff_ns_.load(std::memory_order_relaxed)) * 1e-9);
    if (options_.chaos.enabled()) {
      registry.counter(p + ".chaos.failures")
          .add(res_chaos_failures_.load(std::memory_order_relaxed));
      registry.counter(p + ".chaos.delays")
          .add(res_chaos_delays_.load(std::memory_order_relaxed));
      registry.counter(p + ".chaos.hangs")
          .add(res_chaos_hangs_.load(std::memory_order_relaxed));
    }
  }
}

void ExperimentRunner::progress_begin(std::size_t count) {
  if (progress_) progress_->begin(count);
}

void ExperimentRunner::progress_mark(std::size_t i, SweepProgress::State state) {
  if (progress_) progress_->mark(i, state);
}

void ExperimentRunner::start_server() {
  progress_ = std::make_unique<SweepProgress>();
  server_ = std::make_unique<obs::TelemetryServer>();
  server_->handle("/healthz", "text/plain", [] { return std::string("ok\n"); });
  server_->handle("/metrics", obs::kPromContentType, [this] { return scrape_prometheus(); });
  server_->handle("/status", "application/json", [this] { return status_json(); });
  for (const RunnerOptions::HttpEndpoint& endpoint : options_.endpoints) {
    server_->handle(endpoint.path, endpoint.content_type, endpoint.handler);
  }
  server_->start(options_.listen_addr);
}

void ExperimentRunner::note_flight_armed(const std::string& journal_path) {
  const std::lock_guard<std::mutex> lock(flight_mutex_);
  flight_armed_ = true;
  flight_journal_ = journal_path;
}

void ExperimentRunner::note_flight_dump(const std::string& dump_path) {
  const std::lock_guard<std::mutex> lock(flight_mutex_);
  flight_dump_ = dump_path;
}

std::string ExperimentRunner::scrape_prometheus() const {
  // A fresh scratch registry per scrape: publish_metrics adds the *current*
  // tallies into zeroed counters, so repeated scrapes report totals instead
  // of compounding, and nothing long-lived is mutated from the server
  // thread.
  obs::MetricsRegistry scratch;
  publish_metrics(scratch);
  if (progress_) {
    const auto total = static_cast<double>(progress_->total());
    const auto settled = static_cast<double>(progress_->settled());
    scratch.gauge("runner.progress.total").set(total);
    scratch.gauge("runner.progress.settled").set(settled);
    scratch.gauge("runner.progress.completion").set(total > 0.0 ? settled / total : 1.0);
  }
  // The caller's live families (e.g. sim_attr_* from a sweep's attribution
  // ledgers) land in the same scratch, so they reset per scrape too.
  if (options_.scrape_hook) options_.scrape_hook(scratch);
  std::ostringstream out;
  obs::PromRenderState state;
  obs::write_prometheus(out, scratch, &state);
  // The caller's registry rides along; the shared state suppresses any
  // family the runner already emitted (e.g. after an end-of-run
  // publish_metrics into the same registry).
  if (options_.metrics != nullptr) obs::write_prometheus(out, *options_.metrics, &state);
  return out.str();
}

std::string ExperimentRunner::status_json() const {
  std::ostringstream out;
  out << "{\"craysim_status\":1,\"threads\":" << thread_count() << ",\"resilient\":"
      << (resilient_used_.load(std::memory_order_relaxed) ? "true" : "false") << ",";
  if (progress_) {
    progress_->write_json(out);
    out << ",";
  }
  out << "\"workers\":[";
  if (stats_) {
    for (unsigned i = 0; i < thread_count(); ++i) {
      if (i != 0) out << ",";
      out << "{\"worker\":" << i << ",\"busy\":"
          << (stats_[i].busy.load(std::memory_order_relaxed) ? "true" : "false")
          << ",\"points\":" << stats_[i].points.load(std::memory_order_relaxed) << ",\"busy_s\":"
          << obs::format_metric_double(
                 static_cast<double>(stats_[i].busy_ns.load(std::memory_order_relaxed)) * 1e-9)
          << "}";
    }
  }
  out << "],\"journal\":{\"path\":\"" << obs::json_escape(options_.journal_path)
      << "\",\"restored\":" << res_restored_.load(std::memory_order_relaxed) << "},";
  {
    const std::lock_guard<std::mutex> lock(flight_mutex_);
    out << "\"flight\":{\"armed\":" << (flight_armed_ ? "true" : "false") << ",\"path\":\""
        << obs::json_escape(flight_journal_) << "\",\"dump_path\":\""
        << obs::json_escape(flight_dump_) << "\"}";
  }
  out << "}";
  return out.str();
}

}  // namespace craysim::runner
