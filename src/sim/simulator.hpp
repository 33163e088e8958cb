// The Section 6 buffering/caching simulator.
//
// Models one or more Cray Y-MP CPUs running several I/O-intensive processes
// under a round-robin scheduler, a shared block buffer cache (main memory or
// SSD) with read-ahead and write-behind (optionally Sprite-style delayed
// writes), and the seek-distance disk model. The simulation is
// discrete-event and fully deterministic for a given (configuration, seed,
// process set).
//
// Simplifications, matching or documented against the paper:
//  * Paper mode is cpu_count = 1 (one processor's share of cache/SSD);
//    cpu_count > 1 models the whole machine for the Section 2.2 experiments.
//  * No disk queueing in paper mode; optional FIFO queueing as an ablation.
//  * The quantum refreshes at every I/O the process survives without
//    blocking (it only matters during pure-compute phases).
//  * Interrupt service time delays the awakened process rather than
//    preempting the running one.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "sim/metrics.hpp"
#include "sim/observer.hpp"
#include "sim/params.hpp"
#include "sim/storage.hpp"
#include "util/flat_map.hpp"
#include "util/small_vec.hpp"
#include "workload/profile.hpp"
#include "workload/request.hpp"

namespace craysim::sim {

class Simulator {
 public:
  explicit Simulator(SimParams params);

  /// Adds a process driven by any request source; returns its pid (1-based).
  std::uint32_t add_process(std::string name, std::unique_ptr<workload::RequestSource> source);

  /// Convenience: adds a synthetic application (seed is offset per pid so
  /// two copies of one app are not tick-identical).
  std::uint32_t add_app(const workload::AppProfile& profile);

  /// Runs to completion of all processes and returns the metrics.
  [[nodiscard]] SimResult run();

 private:
  enum class EventKind : std::uint8_t {
    kDispatch,
    kSliceEnd,
    kIoDone,
    kFlushTick,
    kCounterTick,  ///< periodic telemetry sample; never mutates sim state
  };
  struct Event {
    Ticks time;
    std::uint64_t seq;
    EventKind kind;
    std::uint64_t arg;  ///< pid for kSliceEnd, op id for kIoDone
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  enum class PState : std::uint8_t {
    kReady,
    kRunning,
    kBlockedIo,
    kBlockedSpace,
    kFinished,
  };

  struct Proc {
    std::uint32_t pid = 0;
    std::string name;
    std::unique_ptr<workload::RequestSource> source;
    PState state = PState::kReady;
    std::int32_t cpu = -1;  ///< CPU currently running this process
    Ticks remaining_compute;
    Ticks slice_len;  ///< length of the slice currently scheduled
    std::optional<workload::Request> pending;
    std::int32_t wait_count = 0;
    Ticks blocked_since;
    // results
    Ticks cpu_done;
    Ticks blocked_total;
    Ticks finish_time;
    std::int64_t io_count = 0;
    Bytes bytes_read = 0;
    Bytes bytes_written = 0;
  };

  struct IoOp {
    IoKind kind = IoKind::kFetch;
    BlockRun run;  ///< the cache blocks it moves; meaningless for kBypass
    // Almost every op has zero or one waiter; inline storage avoids a heap
    // allocation per submitted I/O.
    util::SmallVec<std::uint32_t, 2> waiters;
  };

  static constexpr std::uint32_t kNoProcess = 0;

  void push_event(Ticks time, EventKind kind, std::uint64_t arg);
  void on_dispatch(Ticks now);
  void on_slice_end(Ticks now, std::uint32_t pid);
  void on_io_done(Ticks now, std::uint64_t op_id);
  void on_flush_tick(Ticks now);
  void on_counter_tick(Ticks now);

  void issue_io(Ticks now, std::uint32_t pid);
  void continue_running(Ticks now, std::uint32_t pid, Ticks extra_stall);
  void advance_to_next_request(Proc& proc);
  /// Blocks `proc` on `io_waits` transfers, or on cache space when zero.
  void block(Ticks now, Proc& proc, std::int32_t io_waits);
  /// Makes a blocked process ready; an I/O wake also moves it to its next
  /// request.
  void wake(Ticks now, Proc& proc, Ticks interrupt);
  void finish_process(Ticks now, Proc& proc);
  void trigger_flush(Ticks now, Ticks min_age = Ticks::zero());
  void wake_space_waiters(Ticks now);
  /// Releases `proc`'s CPU and starts that CPU's idle clock.
  void release_cpu(Ticks now, Proc& proc);
  /// Stops the idle clock of `cpu` (a process is about to run there).
  void account_idle_until(Ticks now, std::int32_t cpu);

  /// Reports the cache's eviction count to the observer after a plan or a
  /// read-ahead may have evicted.
  void note_evictions(Ticks t);
  /// All processes done, no inflight I/O, cache drained — the run() loop's
  /// exit condition, also used to stop self-rescheduling ticks.
  [[nodiscard]] bool drained() const;

  void record_disk_traffic(Ticks start, Ticks done, Bytes bytes, bool write);
  /// Issues one disk transfer of `length` bytes at `offset` of global file
  /// `file` as op `id`. Cache ops must carry the id the cache tagged their
  /// blocks with. A `waiter` other than kNoProcess waits on the transfer.
  void submit(std::uint64_t id, Ticks now, IoKind kind, bool write, std::uint32_t file,
              Bytes offset, Bytes length, std::uint32_t waiter);
  [[nodiscard]] std::uint32_t global_file(std::uint32_t pid, std::uint32_t file) const {
    return (pid << 20) | file;
  }
  [[nodiscard]] Ticks hit_delay(Bytes bytes) const;

  SimParams params_;
  std::vector<Proc> procs_;  ///< index pid-1
  // Min-heap on (time, seq) kept by hand with push_heap/pop_heap so the
  // backing vector's capacity survives across pushes (priority_queue hides
  // the container and its growth). (time, seq) is a strict total order, so
  // pop order — and thus the whole simulation — is independent of heap
  // layout details.
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_op_ = 1;
  struct Cpu {
    std::uint32_t running = kNoProcess;
    bool idle = true;
    Ticks idle_since;
  };
  std::vector<Cpu> cpus_;
  std::deque<std::uint32_t> ready_;
  std::vector<std::uint32_t> space_waiters_;
  util::FlatMap64<IoOp> inflight_;
  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<BufferCache> cache_;
  SimResult result_;
  Ticks now_;
  std::size_t finished_ = 0;
  std::unique_ptr<SimObserver> observer_;  ///< null unless a view is on
};

}  // namespace craysim::sim
