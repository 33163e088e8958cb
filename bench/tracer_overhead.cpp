// Reproduces the Section 4.3 trace-collection engineering results:
//  * batching amortizes the 8-word packet header over hundreds of I/Os,
//  * total tracing overhead stays under 20% of I/O system-call time,
//  * the packet log reconstructs exactly back to the time-ordered stream
//    (after the buffering/merge the paper describes).
#include <cstdio>

#include "bench_common.hpp"
#include "tracer/pipeline.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

int main() {
  using namespace craysim;
  bench::heading("Section 4.3: trace-collection pipeline overheads");

  TextTable table({"app", "I/Os", "packets", "bytes/I/O", "header overhead %", "tracing CPU %",
                   "forced flushes", "round-trip"});
  bool overhead_ok = true;
  bool roundtrip_ok = true;
  for (const workload::AppId app : workload::all_apps()) {
    const auto profile = workload::make_profile(app);
    const auto trace = workload::synthesize_trace(profile);
    const tracer::TracerOptions options;
    const auto collector = tracer::instrument_trace(trace, options);
    const auto& stats = collector.stats();

    const double header_share =
        stats.packet_bytes > 0
            ? 100.0 * static_cast<double>(stats.packets * tracer::TracePacket::kHeaderBytes) /
                  static_cast<double>(stats.packet_bytes)
            : 0.0;
    const double cpu_pct = 100.0 * stats.overhead_fraction(options.io_syscall_time);
    const auto rebuilt = tracer::reconstruct(collector.log());
    bool equal = rebuilt.size() == trace.size();
    for (std::size_t i = 0; equal && i < rebuilt.size(); ++i) {
      const auto& a = rebuilt[i];
      const auto& b = trace[i];
      equal = a.start_time == b.start_time && a.offset == b.offset && a.length == b.length &&
              a.file_id == b.file_id && a.is_write() == b.is_write();
    }
    table.row()
        .cell(std::string(workload::app_name(app)))
        .integer(stats.entries)
        .integer(stats.packets)
        .num(stats.bytes_per_io(), 1)
        .num(header_share, 1)
        .num(cpu_pct, 1)
        .integer(stats.forced_flushes)
        .cell(equal ? "exact" : "MISMATCH");
    overhead_ok &= cpu_pct < 20.0;
    roundtrip_ok &= equal;
  }
  std::printf("%s", table.render().c_str());

  // Contrast: a packet per I/O would pay the full header each time.
  std::printf("\nunbatched baseline: one packet per I/O costs %lld header bytes per I/O\n",
              static_cast<long long>(tracer::TracePacket::kHeaderBytes));

  bench::check(overhead_ok, "tracing overhead is below 20% of I/O system call time");
  bench::check(roundtrip_ok, "packet logs reconstruct exactly to the original stream");
  return bench::exit_status();
}
