// Shared main() for the google-benchmark micro benches: the standard CLI
// plus "--json <path>", which appends each benchmark's ns/op to one section
// of a shared metrics file (BENCH_micro.json) for machine comparison across
// builds.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

namespace craysim::bench {

/// Console reporter that also captures ns/op per benchmark. Under
/// --benchmark_repetitions it captures the median of the repetitions, under
/// the benchmark's plain name, and drops the single runs and the other
/// aggregates.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations <= 0) continue;
      if (run.run_type == Run::RT_Aggregate ? run.aggregate_name != "median"
                                            : run.repetitions > 1) {
        continue;
      }
      const double ns_per_op =
          run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9;
      values_.emplace_back(run.run_name.str() + "_ns_per_op", ns_per_op);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<std::pair<std::string, double>>& values() const {
    return values_;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Drop-in replacement for BENCHMARK_MAIN()'s body.
inline int run_micro_main(int argc, char** argv, const std::string& section) {
  const std::string json_path = take_json_arg(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty()) write_json_section(json_path, section, reporter.values());
  return 0;
}

}  // namespace craysim::bench
