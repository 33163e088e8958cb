#include "layers.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <unordered_map>

#include "sim/cache.hpp"
#include "sim/storage.hpp"
#include "util/error.hpp"

namespace sweepbench {

using namespace craysim;

namespace {

/// Small dense id per thread, for the trace's track numbers.
std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

HostSpans::Scope::Scope(HostSpans& spans, std::string name, std::uint64_t parent)
    : spans_(spans),
      name_(std::move(name)),
      id_(spans.next_id_.fetch_add(1)),
      parent_(parent),
      start_(Clock::now()) {}

HostSpans::Scope::~Scope() {
  const auto end = Clock::now();
  Span span;
  span.name = std::move(name_);
  span.id = id_;
  span.parent = parent_;
  span.thread = thread_number();
  span.start_ns = ns_between(spans_.origin_, start_);
  span.end_ns = ns_between(spans_.origin_, end);
  span.busy_ns = span.end_ns - span.start_ns;
  spans_.push(std::move(span));
}

void HostSpans::aggregate(std::string name, std::uint64_t parent, Clock::time_point first,
                          Clock::time_point last, std::int64_t busy_ns, std::int64_t calls) {
  if (calls == 0) return;
  Span span;
  span.name = std::move(name);
  span.id = next_id_.fetch_add(1);
  span.parent = parent;
  span.thread = thread_number();
  span.start_ns = ns_between(origin_, first);
  span.end_ns = ns_between(origin_, last);
  span.busy_ns = busy_ns;
  span.calls = calls;
  span.aggregate = true;
  push(std::move(span));
}

void HostSpans::push(Span span) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<HostSpans::Span> HostSpans::snapshot() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

std::map<std::string, double> HostSpans::self_seconds() const {
  const std::vector<Span> all = snapshot();
  // Per parent: the intervals its timed children cover (parallel children
  // overlap, so they are merged) plus the busy time of its aggregates.
  struct Children {
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    std::int64_t aggregate_ns = 0;
  };
  std::unordered_map<std::uint64_t, Children> children;
  for (const Span& s : all) {
    if (s.parent == 0) continue;
    Children& c = children[s.parent];
    if (s.aggregate) {
      c.aggregate_ns += s.busy_ns;
    } else {
      c.intervals.emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : all) {
    std::int64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      auto& intervals = it->second.intervals;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t reach = std::numeric_limits<std::int64_t>::min();
      for (const auto& [start, end] : intervals) {
        const std::int64_t from = std::max(start, reach);
        if (end > from) covered += end - from;
        reach = std::max(reach, end);
      }
      covered += it->second.aggregate_ns;
    }
    self[s.name] += static_cast<double>(s.busy_ns - std::min(covered, s.busy_ns)) * 1e-9;
  }
  return self;
}

void HostSpans::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : snapshot()) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << s.thread << ",\"ts\":" << s.start_ns / 1000
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000 << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"calls\":" << s.calls
        << ",\"busy_us\":" << s.busy_ns / 1000 << "}}";
    first = false;
  }
  out << "\n]}\n";
  if (!out.flush()) throw Error("cannot write " + path);
}

TimedSource::TimedSource(std::unique_ptr<workload::RequestSource> inner, std::uint32_t pid,
                         PointTally& tally)
    : inner_(std::move(inner)),
      replay_(dynamic_cast<const sim::StreamingReplaySource*>(inner_.get())),
      pid_(pid),
      tally_(&tally) {}

std::optional<workload::Request> TimedSource::next() {
  const auto start = Clock::now();
  std::optional<workload::Request> request = inner_->next();
  const auto end = Clock::now();
  const std::int64_t ns = ns_between(start, end);
  if (replay_ != nullptr) {
    tally_->decode_ns += ns;
    ++tally_->decode_calls;
    tally_->records += replay_->records_consumed() - records_seen_;
    records_seen_ = replay_->records_consumed();
  } else {
    tally_->next_ns += ns;
    ++tally_->next_calls;
  }
  tally_->first = std::min(tally_->first, start);
  tally_->last = std::max(tally_->last, end);
  if (request) {
    ++tally_->requests;
    const std::uint64_t key = (std::uint64_t{pid_} << 32) | request->file;
    const auto [it, added] =
        tally_->files.try_emplace(key, static_cast<std::uint32_t>(tally_->files.size() + 1));
    tally_->issued.push_back(
        {request->offset, request->length, pid_, it->second, request->write});
  }
  return request;
}

namespace {

class CacheDriver {
 public:
  CacheDriver(const sim::CacheParams& params, CacheReplay& out)
      : params_(params), out_(out), cache_(params, out.metrics) {}

  void read(const IssuedRequest& r) {
    sim::BufferCache::ReadPlan plan = cache_.plan_read(r.pid, r.file, r.offset, r.length, op_);
    if (plan.space_wait && flush() > 0) {
      plan = cache_.plan_read(r.pid, r.file, r.offset, r.length, op_);
    }
    if (plan.space_wait) {
      ++out_.unplaced;
      return;
    }
    if (plan.bypass) {
      out_.runs.push_back({r.file, r.offset, r.length, false});
      return;
    }
    op_ += plan.fetch_runs.size();
    for (const sim::BlockRun& run : plan.fetch_runs) {
      emit(run, false);
      cache_.fetch_complete(run);
    }
    if (plan.readahead) {
      if (const auto run = cache_.try_issue_readahead(r.pid, *plan.readahead, op_)) {
        ++op_;
        emit(*run, false);
        cache_.fetch_complete(*run);
      }
    }
  }

  void write(const IssuedRequest& r) {
    sim::BufferCache::WritePlan plan =
        cache_.plan_write(r.pid, r.file, r.offset, r.length, op_, params_.write_behind);
    if (plan.space_wait && flush() > 0) {
      plan = cache_.plan_write(r.pid, r.file, r.offset, r.length, op_, params_.write_behind);
    }
    if (plan.space_wait) {
      ++out_.unplaced;
      return;
    }
    ++op_;
    if (plan.bypass) {
      out_.runs.push_back({r.file, r.offset, r.length, true});
      return;
    }
    for (const sim::BlockRun& run : plan.writethrough_runs) {
      emit(run, true);
      cache_.flush_complete(run);
    }
    if (plan.absorbed && cache_.over_watermark()) flush();
  }

  /// One flush batch, completed at once; returns the runs it wrote.
  std::size_t flush() {
    const auto runs =
        cache_.collect_flush_batch(params_.max_flush_batch_blocks, params_.max_flush_run_blocks);
    for (const sim::BlockRun& run : runs) {
      emit(run, true);
      cache_.flush_complete(run);
    }
    return runs.size();
  }

 private:
  void emit(const sim::BlockRun& run, bool write) {
    out_.runs.push_back({run.file, run.first_block * params_.block_size,
                         run.bytes(params_.block_size), write});
  }

  const sim::CacheParams& params_;
  CacheReplay& out_;
  sim::BufferCache cache_;
  std::uint64_t op_ = 1;
};

}  // namespace

CacheReplay replay_cache(const sim::CacheParams& params,
                         const std::vector<IssuedRequest>& requests) {
  CacheReplay out;
  CacheDriver driver(params, out);
  const Bytes bs = params.block_size;
  for (const IssuedRequest& r : requests) {
    if (r.length > 0) out.blocks += (r.offset + r.length - 1) / bs - r.offset / bs + 1;
    if (r.write) {
      driver.write(r);
    } else {
      driver.read(r);
    }
  }
  while (driver.flush() > 0) {
  }
  return out;
}

sim::DeviceMetrics replay_disk(const sim::SimParams& params, const std::vector<DiskRun>& runs) {
  sim::DiskModel disk(params.disk, params.position, params.disk_count, params.disk_queueing,
                      params.seed);
  Ticks now;
  for (const DiskRun& run : runs) now = disk.submit(now, run.file, run.offset, run.length, run.write);
  return disk.metrics();
}

}  // namespace sweepbench
