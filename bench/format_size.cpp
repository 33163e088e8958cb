// Reproduces the appendix's format-size claim:
//
//   "Surprisingly, text traces were shorter than binary traces. This savings
//    occurred by converting integers which took 4 bytes in binary format
//    into variable-length printed ASCII. Since many values were only 1 or 2
//    printed characters, this conversion saved space."
//
// The binary format of that comparison is the flat `struct traceRecord` dump
// (44 bytes per record, every field always present). We also report our
// extension — a compressed fixed-width binary that applies the same
// field-omission flags as the text format — which reverses the verdict.
#include <cstdio>

#include "bench_common.hpp"
#include "trace/binary.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_gen.hpp"

int main() {
  using namespace craysim;
  bench::heading("Appendix: trace size — ASCII vs struct-dump binary (vs compressed binary)");

  TextTable table({"app", "records", "ASCII B/rec", "struct binary B/rec",
                   "compressed binary B/rec (ext)"});
  int ascii_beats_struct = 0;
  int compressed_beats_ascii = 0;
  int total = 0;
  for (const workload::AppId app : workload::all_apps()) {
    const auto trace = workload::synthesize_trace(workload::make_profile(app));
    const auto cmp = trace::compare_formats(trace);
    table.row()
        .cell(std::string(workload::app_name(app)))
        .integer(static_cast<long long>(cmp.records))
        .num(cmp.ascii_per_record(), 1)
        .num(cmp.struct_per_record(), 1)
        .num(cmp.compressed_per_record(), 1);
    ++total;
    if (cmp.ascii_bytes < cmp.binary_struct_bytes) ++ascii_beats_struct;
    if (cmp.binary_compressed_bytes < cmp.ascii_bytes) ++compressed_beats_ascii;
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nASCII beats the struct dump for %d of %d traces (the paper's finding);\n"
              "field-omitting binary beats ASCII for %d of %d (our extension: the win came\n"
              "from omission + small deltas, not from text per se).\n",
              ascii_beats_struct, total, compressed_beats_ascii, total);

  bench::check(ascii_beats_struct == total,
               "variable-length ASCII is smaller than the fixed struct dump for every trace");
  bench::check(compressed_beats_ascii == total,
               "extension: compression-aware binary is smaller still");
  return bench::exit_status();
}
