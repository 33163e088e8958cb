// The Section 6.1 disk model.
//
// Logical traces carry no physical block numbers, so the paper approximates
// seek distance from logical positions: each file gets a virtual base
// address, and the completion time of an I/O depends only on the transfer
// size and how far the request is from the disk head's previous position.
// In paper mode there is no queueing — concurrent requests do not delay each
// other (the limitation Section 6.2 discusses). Queueing mode (our ablation)
// serializes each disk through a FIFO.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "faults/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/params.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace craysim::sim {

/// How one transfer was served: the disk that took it and the additive parts
/// of its service time (completion minus submission is their sum).
struct DiskService {
  std::uint32_t disk = 0;  ///< index of the serving disk (after any redirect)
  Ticks queue;     ///< FIFO wait behind earlier transfers (queueing mode only)
  Ticks overhead;  ///< controller overhead
  Ticks seek;
  Ticks rotation;
  Ticks transfer;  ///< data movement at streaming rate
  Ticks fault;     ///< injected retry/backoff/spike delay

  [[nodiscard]] Ticks total() const {
    return queue + overhead + seek + rotation + transfer + fault;
  }
};

class DiskModel {
 public:
  /// `plan` describes injectable failures; the default plan injects nothing
  /// and leaves the model bit-identical to the fault-free substrate.
  DiskModel(const DiskParams& params, const PositionParams& position, std::int32_t disk_count,
            bool queueing, std::uint64_t seed, const faults::FaultPlan& plan = {});

  /// Computes the completion time of a transfer submitted at `now`.
  /// Updates head position, per-disk queue (in queueing mode), and metrics.
  ///
  /// Under an active FaultPlan, transient errors are retried with
  /// exponential backoff (the delay lands in the completion time), a disk
  /// that fails permanently — or accumulates too many consecutive errors —
  /// goes offline and its I/Os redirect to the next surviving disk, and the
  /// simulation keeps running as long as one disk lives. Throws FaultError
  /// only when no device can complete the transfer.
  /// `service`, when non-null, receives the serving disk and the service
  /// time's parts. They are the same integer terms the completion time sums,
  /// so asking for them never changes the result.
  [[nodiscard]] Ticks submit(Ticks now, std::uint32_t file, Bytes offset, Bytes length,
                             bool write, DiskService* service = nullptr);

  [[nodiscard]] const DeviceMetrics& metrics() const { return metrics_; }
  /// Devices still accepting I/O (== disk_count until a permanent failure).
  [[nodiscard]] std::int32_t online_disks() const { return online_count_; }
  /// Degraded mode: at least one disk has been lost.
  [[nodiscard]] bool degraded() const {
    return online_count_ < static_cast<std::int32_t>(disks_.size());
  }

  /// Pure access-time query (no state change): used by tests to check the
  /// seek curve's monotonicity.
  [[nodiscard]] Ticks access_time_for_distance(Bytes distance, Bytes length) const;

 private:
  struct DiskState {
    Ticks free_at;     ///< queueing mode: when the disk finishes its backlog
    std::int64_t head = 0;  ///< virtual position after the previous I/O
    bool head_valid = false;
    bool offline = false;   ///< permanently failed; I/Os redirect elsewhere
    std::int32_t consecutive_errors = 0;  ///< resets on any successful attempt
  };

  std::int64_t position_of(std::uint32_t file, Bytes offset);
  Ticks transfer_time(Bytes length) const;
  /// First online disk at or after `idx` (wrapping). Throws FaultError if
  /// every disk is offline.
  [[nodiscard]] std::size_t next_online(std::size_t idx) const;
  /// Marks a disk failed. Refuses to kill the last survivor (returns false):
  /// the farm limps on one device rather than wedging the simulation.
  bool take_offline(std::size_t idx);
  /// Runs the injected-failure schedule for one I/O against disk `idx`;
  /// returns the (possibly redirected) disk index and accumulates retry /
  /// backoff delay into `fault_delay`.
  std::size_t run_fault_schedule(std::size_t idx, Ticks& fault_delay);

  DiskParams params_;
  PositionParams position_;
  bool queueing_;
  std::vector<DiskState> disks_;
  std::unordered_map<std::uint32_t, std::int64_t> file_base_;
  std::int64_t next_base_ = 0;
  Rng rng_;
  DeviceMetrics metrics_;
  std::optional<faults::FaultInjector> injector_;
  std::int32_t online_count_ = 0;
};

}  // namespace craysim::sim
