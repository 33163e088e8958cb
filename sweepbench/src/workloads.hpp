// The benchmark's named workloads: the sweeps a craysim user waits on, set
// up from a seed, plus the reference figures every point's output is
// checked against.
#pragma once
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/params.hpp"
#include "util/cancel.hpp"
#include "workload/request.hpp"

namespace sweepbench {

/// One simulated process of a point: a name and a factory for a fresh,
/// undecorated request source (each point replays from the start).
struct ProcessSpec {
  std::string name;
  std::function<std::unique_ptr<craysim::workload::RequestSource>()> make;
};

struct Point {
  std::string label;
  craysim::sim::SimParams params;
};

using Clock = std::chrono::steady_clock;

/// A host-time interval; empty (zero seconds) when default.
struct Interval {
  Clock::time_point start;
  Clock::time_point end;
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

/// When set-up was inside each layer's calls.
struct SetupTimes {
  Interval synthesize;  ///< workload: profiles, request streams, trace synthesis
  Interval encode;      ///< trace: writing the text trace file
};

/// A workload after set-up. Every point runs the same processes, cold.
struct Workload {
  std::string name;
  std::vector<Point> points;
  std::vector<ProcessSpec> processes;
  /// Logical requests one point must issue: the length of the processes'
  /// request streams, counted during set-up. Σ ProcessResult::io_count of
  /// every point must equal it.
  std::int64_t requests_per_point = 0;
  /// The point the telemetry-overhead probe re-runs.
  std::size_t probe_point = 0;
  SetupTimes times;
};

[[nodiscard]] const std::vector<std::string_view>& workload_names();

/// Builds workload `name` for `seed`. replay_mix writes its trace file into
/// `scratch`, which must exist. Throws craysim::Error for an unknown name.
[[nodiscard]] Workload set_up(std::string_view name, std::uint64_t seed,
                              const std::filesystem::path& scratch);

/// Wraps a process's source before it is added to the simulator (the traced
/// run's timing decorator); identity when empty.
using Decorate = std::function<std::unique_ptr<craysim::workload::RequestSource>(
    std::uint32_t pid, std::unique_ptr<craysim::workload::RequestSource>)>;

/// Runs one point from a cold cache: a fresh Simulator, every process added
/// through Simulator::add_process, `cancel` polled by the event loop.
[[nodiscard]] craysim::sim::SimResult run_point(const Workload& workload, const Point& point,
                                                const craysim::util::CancelToken& cancel,
                                                const Decorate& decorate = {});

/// FNV-1a digest of sim::serialize_sim_result(result).
[[nodiscard]] std::uint64_t result_digest(const craysim::sim::SimResult& result);

/// The digest pinned for point `index` of `workload` at seed 0, or 0 when
/// none is pinned.
[[nodiscard]] std::uint64_t pinned_digest(std::string_view workload, std::size_t index);

}  // namespace sweepbench
