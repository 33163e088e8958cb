// The simulator's one observation tap.
//
// Everything that watches a run without steering it hangs off SimObserver:
// the sim-time spans and counter samples (SimParams::spans), latency
// attribution (SimParams::attribution), and the appendix's annotated trace
// (SimParams::record_trace, the TRACE_CACHE_HIT/MISS and TRACE_RA_HIT
// flags). The Simulator builds an observer only when one of those is set and
// calls it at one site per lifecycle event. With none set every site is a
// single predicted branch on a null pointer, and the simulation is
// bit-identical. The observer only reads what it is handed; it never changes
// simulator state.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/attr.hpp"
#include "sim/cache.hpp"
#include "sim/metrics.hpp"
#include "sim/params.hpp"
#include "sim/storage.hpp"
#include "workload/request.hpp"

namespace craysim::sim {

/// Why a disk transfer was issued. Its names ("fetch", "readahead", "flush",
/// "writethrough", "bypass") name the I/O-op spans and the ledger's disk rows.
using IoKind = obs::AttrDiskKind;

class SimObserver {
 public:
  explicit SimObserver(const SimParams& params);

  /// Period of counter samples; zero when none are taken.
  [[nodiscard]] Ticks counter_interval() const { return counter_interval_; }

  /// The run begins; `names[pid - 1]` names each process.
  void start(const std::vector<std::string>& names);
  /// `pid` starts running on `cpu`.
  void ran(Ticks now, std::uint32_t pid, std::int32_t cpu);
  /// `pid` gives up its CPU.
  void released(Ticks now, std::uint32_t pid);
  /// `pid` has no work left.
  void finished(Ticks now, std::uint32_t pid);
  /// `pid` enters the file system at `now` with `req` (on global file
  /// `file`); the call overhead ends at `t`. A space-wait retry issues again.
  void issued(Ticks now, Ticks t, std::uint32_t pid, const workload::Request& req,
              std::uint32_t file);
  /// `pid` blocks on `io_waits` transfers, or on cache space when zero.
  void blocked(Ticks now, std::uint32_t pid, std::int32_t io_waits);
  /// `pid` wakes; an I/O wake runs `interrupt` of service before it is ready.
  void woke(Ticks now, std::uint32_t pid, Ticks interrupt);
  /// `pid`'s request was accepted at `t` with these annotations. Unless it
  /// blocks, it returns at `t + stall`.
  void served(Ticks t, std::uint32_t pid, const workload::Request& req, bool cache_miss,
              bool readahead_hit, Ticks stall, bool blocks);
  /// The cache's running eviction count after a plan or a read-ahead.
  void evicted(Ticks t, std::int64_t evictions);
  /// Transfer `id` of `length` bytes of global file `file` went to disk.
  void submitted(Ticks now, std::uint64_t id, IoKind kind, bool write, std::uint32_t file,
                 Bytes length, const DiskService& service);
  /// Transfer `id` completed.
  void completed(Ticks now, std::uint64_t id, IoKind kind);
  /// A flush batch was issued, leaving `dirty_blocks` dirty.
  void flushed(Ticks now, std::int64_t dirty_blocks);
  /// One counter sample; `cache` is null without a cache.
  void sample(Ticks now, const BufferCache* cache, const CacheMetrics& metrics,
              std::size_t inflight_ops);
  /// The run is over: hands the attribution summary and annotated trace over.
  void end(SimResult& result);

 private:
  struct Proc {
    bool waiting_space = false;
    Ticks blocked_at;
    // Latency attribution of the request in flight.
    bool active = false;   ///< between first issue and finish
    bool started = false;  ///< some request was issued (phase-gap detection)
    std::uint32_t phase = 0;  ///< burst epoch ordinal (obs::kAttrPhaseGap)
    std::uint32_t file = 0;
    Bytes bytes = 0;
    bool write = false;
    Ticks issue;  ///< when the request was first issued
    Ticks mark;   ///< end of the last stamped component
    std::array<std::int64_t, obs::kAttrOpComponents> comp{};
  };

  /// Charges mark→until to `component`. Signed, unclamped: the same
  /// arithmetic as the simulator's blocked_total, which makes miss + space
  /// match the summed blocked time exactly.
  static void charge(Proc& proc, obs::AttrComponent component, Ticks until);
  /// Commits the request ending at `end`; the components telescope to
  /// end - issue exactly.
  void commit(std::uint32_t pid, Proc& proc, Ticks end);

  obs::SpanRecorder* spans_;
  obs::AttributionLedger* attr_;
  bool record_trace_;
  Ticks counter_interval_;
  Bytes block_size_;
  std::int32_t disk_count_;
  std::vector<Proc> procs_;  ///< index pid-1
  std::int64_t evictions_seen_ = 0;
  /// Completion times of each disk's outstanding transfers (queue depth).
  std::vector<std::vector<Ticks>> pending_done_;
  trace::Trace annotated_;
};

}  // namespace craysim::sim
