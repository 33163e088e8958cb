// The traced run's instruments, all outside the program: host-time spans
// kept in memory, a timing RequestSource decorator, and isolated replays of
// a point's request stream through the buffer cache and the disk model.
#pragma once
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/params.hpp"
#include "sim/process.hpp"
#include "workload/request.hpp"
#include "workloads.hpp"

namespace sweepbench {

[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Host-time spans, each with a name, start, end and parent, kept in memory
/// and written out once at exit. Calls too fine to record one by one (every
/// RequestSource::next) are folded into one aggregate span per point: its
/// interval runs from the first call's start to the last call's end, and
/// `busy_ns` is the summed duration of its `calls` calls. Thread-safe.
class HostSpans {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint32_t thread = 0;
    std::int64_t start_ns = 0;  ///< since the recorder was made
    std::int64_t end_ns = 0;
    std::int64_t busy_ns = 0;  ///< end - start, or the calls' sum for an aggregate
    std::int64_t calls = 1;
    bool aggregate = false;
  };

  /// Times one call into a layer: the span ends when the scope does.
  class Scope {
   public:
    Scope(HostSpans& spans, std::string name, std::uint64_t parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return id_; }

   private:
    HostSpans& spans_;
    std::string name_;
    std::uint64_t id_;
    std::uint64_t parent_;
    Clock::time_point start_;
  };

  /// Records an aggregate span (see the class comment).
  void aggregate(std::string name, std::uint64_t parent, Clock::time_point first,
                 Clock::time_point last, std::int64_t busy_ns, std::int64_t calls);

  /// Self time per span name, in seconds: each span's busy time minus the
  /// part of it its direct children cover (the union of their intervals,
  /// plus the busy time of aggregates), summed over the spans of a name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Chrome trace-event JSON ("X" slices, one track per thread), loadable
  /// in Perfetto; args carry id, parent, calls and busy_us.
  void save(const std::string& path) const;

 private:
  void push(Span span);
  [[nodiscard]] std::vector<Span> snapshot() const;

  Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// One logical request as the simulator pulled it, with the simulator's
/// file made global: the input of the isolated cache replay.
struct IssuedRequest {
  std::int64_t offset = 0;
  std::int64_t length = 0;
  std::uint32_t pid = 0;
  std::uint32_t file = 0;  ///< unique per (pid, request file)
  bool write = false;
};

/// Per-point tallies the timing decorators of one simulation fill in. One
/// simulation runs on one thread, so no synchronization is needed.
struct PointTally {
  std::int64_t next_ns = 0;       ///< inside AppRequestGenerator::next
  std::int64_t next_calls = 0;
  std::int64_t decode_ns = 0;     ///< inside StreamingReplaySource::next
  std::int64_t decode_calls = 0;
  std::int64_t requests = 0;      ///< requests the sources yielded
  std::int64_t records = 0;       ///< trace records the replay sources pulled
  Clock::time_point first = Clock::time_point::max();
  Clock::time_point last = Clock::time_point::min();
  std::vector<IssuedRequest> issued;
  std::unordered_map<std::uint64_t, std::uint32_t> files;  ///< (pid << 32 | file) -> global id
};

/// The timing decorator: forwards to the wrapped source, timing each next()
/// into `tally` and logging each request it yields (and, for a trace
/// replay, the records it pulled).
class TimedSource final : public craysim::workload::RequestSource {
 public:
  TimedSource(std::unique_ptr<craysim::workload::RequestSource> inner, std::uint32_t pid,
              PointTally& tally);
  std::optional<craysim::workload::Request> next() override;
  [[nodiscard]] craysim::Ticks final_compute() const override { return inner_->final_compute(); }

 private:
  std::unique_ptr<craysim::workload::RequestSource> inner_;
  /// inner_ when it replays a trace (its next() counts as decode), else null.
  const craysim::sim::StreamingReplaySource* replay_;
  std::uint32_t pid_;
  PointTally* tally_;
  std::int64_t records_seen_ = 0;
};

/// One transfer the cache replay hands to the disk.
struct DiskRun {
  std::uint32_t file = 0;
  std::int64_t offset = 0;
  std::int64_t length = 0;
  bool write = false;
};

struct CacheReplay {
  craysim::sim::CacheMetrics metrics;  ///< the isolated cache's own tallies
  std::int64_t blocks = 0;             ///< cache blocks the requests span
  std::int64_t unplaced = 0;           ///< requests left in space-wait with nothing to flush
  std::vector<DiskRun> runs;           ///< every transfer emitted, in order
};

/// Cache-only replay: sends the requests through BufferCache's public API
/// (plan_read / plan_write / try_issue_readahead / collect_flush_batch),
/// completing every fetch and flush at once, and flushing when a plan
/// waits for space, when dirty data crosses the watermark, and at the end.
[[nodiscard]] CacheReplay replay_cache(const craysim::sim::CacheParams& params,
                                       const std::vector<IssuedRequest>& requests);

/// Disk-only replay: submits the runs to a DiskModel back to back.
[[nodiscard]] craysim::sim::DeviceMetrics replay_disk(const craysim::sim::SimParams& params,
                                                      const std::vector<DiskRun>& runs);

}  // namespace sweepbench
