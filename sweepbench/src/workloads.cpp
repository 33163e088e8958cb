#include "workloads.hpp"

#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "trace/stream.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

namespace sweepbench {
namespace {

using namespace craysim;

/// An online generator process. The per-pid seed offset is the one
/// Simulator::add_app applies, so seed 0 replays exactly the processes of
/// bench/fig8_idle_sweep and bench/ablation_buffer_cap.
ProcessSpec app_process(workload::AppId id, std::uint64_t seed, std::uint32_t pid) {
  workload::AppProfile profile = workload::make_profile(id, seed);
  profile.seed += 0x9e37 * pid;
  ProcessSpec spec;
  spec.name = profile.name;
  spec.make = [profile] { return std::make_unique<workload::AppRequestGenerator>(profile); };
  return spec;
}

/// Generator workloads: counting the request streams is the set-up work.
void add_apps(Workload& w, const std::vector<std::pair<workload::AppId, std::uint64_t>>& apps) {
  w.times.synthesize.start = Clock::now();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    w.processes.push_back(app_process(apps[i].first, apps[i].second,
                                      static_cast<std::uint32_t>(i + 1)));
    auto source = w.processes.back().make();
    while (source->next()) ++w.requests_per_point;
  }
  w.times.synthesize.end = Clock::now();
}

Workload idle_sweep(std::uint64_t seed) {
  Workload w;
  w.name = "idle_sweep";
  for (const Bytes mb : {4, 8, 16, 32, 64, 128, 256}) {
    for (const Bytes block : {4 * kKiB, 8 * kKiB}) {
      Point point{std::to_string(mb) + "MB/" + std::to_string(block / kKiB) + "K",
                  sim::SimParams::paper_ssd(mb * kMB)};
      point.params.cache.block_size = block;
      w.points.push_back(point);
    }
  }
  w.probe_point = 6;  // 32 MB / 4 K, the canonical point
  add_apps(w, {{workload::AppId::kVenus, 11 + seed}, {workload::AppId::kVenus, 22 + seed}});
  return w;
}

Workload owner_cap(std::uint64_t seed) {
  Workload w;
  w.name = "owner_cap";
  for (const Bytes cap_mb : {0, 4}) {
    Point point{cap_mb == 0 ? "uncapped" : "cap" + std::to_string(cap_mb) + "MB",
                sim::SimParams::paper_main_memory(Bytes{32} * kMB)};
    point.params.cache.per_process_cap = cap_mb * kMB;
    w.points.push_back(point);
  }
  w.probe_point = 0;
  add_apps(w, {{workload::AppId::kVenus, 11 + seed}, {workload::AppId::kLes, 22 + seed}});
  return w;
}

Workload replay_mix(std::uint64_t seed, const std::filesystem::path& scratch) {
  Workload w;
  w.name = "replay_mix";
  for (const Bytes mb : {8, 32, 128}) {
    w.points.push_back({std::to_string(mb) + "MB", sim::SimParams::paper_main_memory(mb * kMB)});
  }
  w.probe_point = 1;

  const workload::AppId apps[] = {workload::AppId::kVenus, workload::AppId::kLes,
                                  workload::AppId::kCcm, workload::AppId::kForma,
                                  workload::AppId::kBvi};
  w.times.synthesize.start = Clock::now();
  std::vector<trace::Trace> traces;
  std::uint32_t next_op = 1;
  for (std::uint32_t k = 0; k < std::size(apps); ++k) {
    workload::TraceGenOptions options;
    options.process_id = k + 1;
    options.file_id_base = 100 * k;
    options.first_operation_id = next_op;
    traces.push_back(
        workload::synthesize_trace(workload::make_profile(apps[k], 11 * (k + 1) + seed), options));
    next_op += static_cast<std::uint32_t>(traces.back().size());
  }
  const trace::Trace merged = workload::merge_traces(traces);
  traces.clear();
  w.times.synthesize.end = Clock::now();

  w.times.encode.start = Clock::now();
  const std::string path = (scratch / "replay_mix.trace").string();
  trace::save_trace(merged, path, "sweepbench replay_mix seed " + std::to_string(seed));
  w.times.encode.end = Clock::now();

  w.requests_per_point = static_cast<std::int64_t>(merged.size());
  for (std::uint32_t k = 0; k < std::size(apps); ++k) {
    ProcessSpec spec;
    spec.name = std::string(workload::app_name(apps[k]));
    spec.make = [path, pid = k + 1] {
      return std::make_unique<sim::StreamingReplaySource>(trace::open_record_stream(path), pid);
    };
    w.processes.push_back(std::move(spec));
  }
  return w;
}

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {"idle_sweep", "owner_cap", "replay_mix"};
  return names;
}

Workload set_up(std::string_view name, std::uint64_t seed, const std::filesystem::path& scratch) {
  if (name == "idle_sweep") return idle_sweep(seed);
  if (name == "owner_cap") return owner_cap(seed);
  if (name == "replay_mix") return replay_mix(seed, scratch);
  throw Error("unknown workload '" + std::string(name) + "'");
}

sim::SimResult run_point(const Workload& workload, const Point& point,
                         const util::CancelToken& cancel, const Decorate& decorate) {
  sim::SimParams params = point.params;
  params.cancel = &cancel;
  sim::Simulator simulator(params);
  for (std::uint32_t pid = 1; pid <= workload.processes.size(); ++pid) {
    const ProcessSpec& spec = workload.processes[pid - 1];
    auto source = spec.make();
    if (decorate) source = decorate(pid, std::move(source));
    simulator.add_process(spec.name, std::move(source));
  }
  return simulator.run();
}

std::uint64_t result_digest(const sim::SimResult& result) {
  util::Fnv1a digest;
  digest.add_text(sim::serialize_sim_result(result));
  return digest.value();
}

std::uint64_t pinned_digest(std::string_view workload, std::size_t index) {
  // serialize_sim_result digests of every point at seed 0, taken on the
  // code this benchmark was introduced against. A host-only change to the
  // simulator must leave them unchanged.
  static const std::vector<std::uint64_t> idle = {
      0x95102d0e75dd0a1b, 0xbd07e1d20566099b, 0x712c7f35db102585, 0xa9d377cd5da1fd53,
      0x542c9b4fe726fa3e, 0x61626dd0b8118121, 0x8930c982cf25e37c, 0x344d3bdc518777f3,
      0xb4782544019aebf6, 0x39d26d051383ceb9, 0x8b300181ee046d47, 0x31ab053abc3b9bd4,
      0x8b300181ee046d47, 0x31ab053abc3b9bd4};
  static const std::vector<std::uint64_t> cap = {0x1eeba4861ea754f9, 0x4af9cba6ff7847f7};
  static const std::vector<std::uint64_t> mix = {0x27ae25c1dea38890, 0x1b13fdf3e61e7830,
                                                 0x5b19506f495007cd};
  const std::vector<std::uint64_t>* pins = workload == "idle_sweep"  ? &idle
                                           : workload == "owner_cap" ? &cap
                                           : workload == "replay_mix" ? &mix
                                                                     : nullptr;
  return pins != nullptr && index < pins->size() ? (*pins)[index] : 0;
}

}  // namespace sweepbench
