// The benches' sweep driver (bench/sweep_obs.hpp): with no flags it must be
// a transparent runner — instrumented SimParams carry no sinks and every
// point's result is byte-identical to a direct Simulator run — and a bad
// command line must fail with one line naming the flag and exit status 2.
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sweep_obs.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "workload/profiles.hpp"

namespace craysim {
namespace {

sim::SimParams cache_params(Bytes cache_mb) {
  return sim::SimParams::paper_main_memory(cache_mb * kMB);
}

sim::SimResult run_upw(const sim::SimParams& params) {
  sim::Simulator simulator(params);
  simulator.add_app(workload::make_profile(workload::AppId::kUpw, 11));
  return simulator.run();
}

std::uint64_t result_digest(const sim::SimResult& result) {
  util::Fnv1a fnv;
  fnv.add_text(sim::serialize_sim_result(result));
  return fnv.value();
}

TEST(PaperSweep, NoFlagsKeepsParamsBareAndResultsIdenticalToDirectRuns) {
  const char* argv[] = {"bench"};
  runner::RunnerOptions base;
  base.threads = 3;  // points run on pool workers, not just the caller
  bench::PaperSweep sweep(1, argv, base);
  const std::vector<Bytes> sizes = {4, 16, 64};
  std::vector<int> bare(sizes.size(), 0);
  const auto results = sweep.run(
      sizes, [](Bytes mb) { return std::to_string(mb) + " MB"; }, cache_params,
      [&](Bytes mb, const sim::SimParams& params) {
        const bool untouched = params.spans == nullptr && params.attribution == nullptr &&
                               params.counter_interval == Ticks::zero();
        bare[mb == 4 ? 0 : mb == 16 ? 1 : 2] = untouched ? 1 : -1;
        return run_upw(params);
      });
  ASSERT_EQ(results.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(bare[i], 1) << "point " << i << " got a telemetry sink without a flag";
    EXPECT_EQ(result_digest(results[i]), result_digest(run_upw(cache_params(sizes[i]))))
        << "point " << i << " differs from a direct Simulator run";
  }
  EXPECT_EQ(sweep.finish(results), 0);
}

TEST(PaperSweep, ParsesFlagValuesInAnyOrder) {
  const char* argv[] = {"bench",
                        "--top", "3",
                        "--deadline", "0.5",
                        "--journal", "j.journal",
                        "--chaos-seed", "7",
                        "--counter-interval", "2.5",
                        "--max-attempts", "4"};
  const bench::SweepArgs args = bench::SweepArgs::parse(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(args.attr_top, 3u);
  EXPECT_EQ(args.deadline_s, 0.5);
  EXPECT_EQ(args.journal_path, "j.journal");
  EXPECT_EQ(args.chaos_seed, 7u);
  EXPECT_EQ(args.counter_interval_ms, 2.5);
  EXPECT_EQ(args.max_attempts, 4);
  EXPECT_TRUE(args.resilience());
  EXPECT_FALSE(args.sweep_telemetry());
  EXPECT_FALSE(args.attribution());
}

struct RejectedArgv {
  std::vector<const char*> args;
  const char* flag;  ///< must appear in the one-line message
};

const RejectedArgv kRejected[] = {
    {{"--top", "abc"}, "--top"},
    {{"--top", "-3"}, "--top"},
    {{"--deadline", "soon"}, "--deadline"},
    {{"--deadline", "-1"}, "--deadline"},
    {{"--counter-interval", "nan"}, "--counter-interval"},
    {{"--max-attempts", "x"}, "--max-attempts"},
    {{"--max-attempts", "-2"}, "--max-attempts"},
    {{"--chaos-seed", "99999999999999999999999"}, "--chaos-seed"},
    {{"--jounral", "x"}, "--jounral"},
    {{"--metrics", "m.jsonl", "stray"}, "stray"},
    {{"--journal"}, "--journal"},
};

std::vector<const char*> with_program(const RejectedArgv& c) {
  std::vector<const char*> argv = {"bench"};
  argv.insert(argv.end(), c.args.begin(), c.args.end());
  return argv;
}

TEST(PaperSweep, ParseRejectsMalformedNegativeAndUnknownArguments) {
  for (const RejectedArgv& c : kRejected) {
    const std::vector<const char*> argv = with_program(c);
    try {
      (void)bench::SweepArgs::parse(static_cast<int>(argv.size()), argv.data());
      ADD_FAILURE() << "accepted a bad command line naming " << c.flag;
    } catch (const ConfigError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(c.flag), std::string::npos) << message;
      EXPECT_EQ(message.find('\n'), std::string::npos) << message;
    }
  }
}

TEST(PaperSweepDeathTest, BadCommandLinesExitTwoWithOneLine) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const RejectedArgv& c : kRejected) {
    const std::vector<const char*> argv = with_program(c);
    EXPECT_EXIT(bench::PaperSweep(static_cast<int>(argv.size()), argv.data()),
                testing::ExitedWithCode(2), std::string("^bench: [^\n]*") + c.flag)
        << c.flag;
  }
}

TEST(PaperSweepDeathTest, RunnerConfigErrorsExitTwo) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A hang with no deadline would wedge a worker; the runner refuses it.
  const char* argv[] = {"bench", "--chaos-hang", "0.5"};
  EXPECT_EXIT(
      {
        bench::PaperSweep sweep(3, argv);
        (void)sweep.run(std::vector<Bytes>{4}, [](Bytes) { return "4 MB"; }, cache_params,
                        run_upw);
      },
      testing::ExitedWithCode(2), "chaos.hang_rate requires point_deadline");
}

TEST(PaperSweepDeathTest, DeadlineStopsTheSimulation) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A point far longer than its deadline must be cut off inside the event
  // loop through SimParams::cancel, and settle as timed out.
  const char* argv[] = {"bench", "--deadline", "0.001"};
  EXPECT_EXIT(
      {
        bench::PaperSweep sweep(3, argv);
        (void)sweep.run(std::vector<Bytes>{4}, [](Bytes) { return "4 MB"; }, cache_params,
                        [](const sim::SimParams& params) {
                          sim::Simulator simulator(params);
                          simulator.add_app(workload::make_profile(workload::AppId::kVenus));
                          simulator.add_app(workload::make_profile(workload::AppId::kVenus));
                          return simulator.run();
                        });
      },
      testing::ExitedWithCode(1), "sweep point 0 failed \\(timeout, 1 attempts\\)");
}

TEST(PaperSweepDeathTest, DeadlineStopsThePerfettoRerun) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The sweep point itself returns at once; only the instrumented --perfetto
  // re-run of it is long, and the same deadline must cut that one off too.
  const std::string trace_path = testing::TempDir() + "deadline_rerun.json";
  const char* argv[] = {"bench", "--deadline", "0.001", "--perfetto", trace_path.c_str()};
  EXPECT_EXIT(
      {
        bench::PaperSweep sweep(5, argv);
        const auto results = sweep.run(
            std::vector<Bytes>{4}, [](Bytes) { return "4 MB"; }, cache_params,
            [](const sim::SimParams& params) -> sim::SimResult {
              if (params.spans == nullptr) return {};
              sim::Simulator simulator(params);
              simulator.add_app(workload::make_profile(workload::AppId::kVenus));
              simulator.add_app(workload::make_profile(workload::AppId::kVenus));
              return simulator.run();
            });
        std::exit(sweep.finish(results));
      },
      testing::ExitedWithCode(1),
      "--perfetto re-run of sweep point 0 failed: cancelled: .*deadline expired");
}

}  // namespace
}  // namespace craysim
