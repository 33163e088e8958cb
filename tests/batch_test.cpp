// Batch environment: contiguous memory allocator, queue routing/partitions,
// processor sharing, and the Section 2.2 turnaround claim.
#include "batch/batch.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace craysim::batch {
namespace {

// ----------------------------------------------------- ContiguousMemory ---

TEST(ContiguousMemory, FirstFitAllocation) {
  ContiguousMemory mem(1000);
  EXPECT_EQ(mem.allocate(300), 0);
  EXPECT_EQ(mem.allocate(300), 300);
  EXPECT_EQ(mem.free_bytes(), 400);
  EXPECT_EQ(mem.largest_hole(), 400);
}

TEST(ContiguousMemory, RefusesWhenFragmented) {
  ContiguousMemory mem(1000);
  const auto a = mem.allocate(400);
  const auto b = mem.allocate(200);
  const auto c = mem.allocate(400);
  ASSERT_TRUE(a && b && c);
  mem.free(*a, 400);
  mem.free(*c, 400);
  // 800 bytes free, but the largest hole is only 400: contiguity bites.
  EXPECT_EQ(mem.free_bytes(), 800);
  EXPECT_EQ(mem.largest_hole(), 400);
  EXPECT_FALSE(mem.allocate(500).has_value());
  EXPECT_TRUE(mem.allocate(400).has_value());
}

TEST(ContiguousMemory, FreeCoalesces) {
  ContiguousMemory mem(1000);
  const auto a = mem.allocate(500);
  const auto b = mem.allocate(500);
  ASSERT_TRUE(a && b);
  mem.free(*a, 500);
  mem.free(*b, 500);
  EXPECT_EQ(mem.largest_hole(), 1000);
}

TEST(ContiguousMemory, DoubleFreeThrows) {
  ContiguousMemory mem(100);
  const auto a = mem.allocate(50);
  ASSERT_TRUE(a);
  mem.free(*a, 50);
  EXPECT_THROW(mem.free(*a, 50), ConfigError);
}

TEST(ContiguousMemory, RejectsBadSizes) {
  EXPECT_THROW(ContiguousMemory{0}, ConfigError);
  ContiguousMemory mem(100);
  EXPECT_THROW((void)mem.allocate(0), ConfigError);
}

// ----------------------------------------------------------- BatchSystem --

std::vector<QueueConfig> nasa_queues() {
  // Small/short queues first: they get first shot at freed memory.
  return {
      {"small", Bytes{128} * kMB, Ticks::from_seconds(3600), Bytes{384} * kMB},
      {"large", Bytes{640} * kMB, Ticks::from_seconds(14400), Bytes{640} * kMB},
  };
}

JobSpec job(const std::string& name, Bytes memory_mb, double cpu_s, double submit_s = 0) {
  JobSpec j;
  j.name = name;
  j.memory = memory_mb * kMB;
  j.cpu_time = Ticks::from_seconds(cpu_s);
  j.submit_time = Ticks::from_seconds(submit_s);
  return j;
}

TEST(BatchSystem, RejectsBadConfig) {
  EXPECT_THROW(BatchSystem(0, kMB, nasa_queues()), ConfigError);
  EXPECT_THROW(BatchSystem(1, kMB, {}), ConfigError);
}

TEST(BatchSystem, RoutesJobsToFirstFittingQueue) {
  BatchSystem system(8, Bytes{1024} * kMB, nasa_queues());
  system.submit(job("tiny", 64, 100));
  system.submit(job("big", 512, 100));
  EXPECT_THROW(system.submit(job("huge", 2048, 100)), ConfigError);
  const auto result = system.run();
  EXPECT_EQ(result.find("tiny")->queue, "small");
  EXPECT_EQ(result.find("big")->queue, "large");
}

TEST(BatchSystem, SingleJobRunsAtFullSpeed) {
  BatchSystem system(8, Bytes{1024} * kMB, nasa_queues());
  system.submit(job("solo", 64, 100));
  const auto result = system.run();
  EXPECT_NEAR(result.find("solo")->turnaround().seconds(), 100.0, 0.01);
  EXPECT_NEAR(result.makespan.seconds(), 100.0, 0.01);
}

TEST(BatchSystem, ProcessorSharingSlowsOversubscribedMachine) {
  BatchSystem system(1, Bytes{1024} * kMB, nasa_queues());
  system.submit(job("a", 64, 100));
  system.submit(job("b", 64, 100));
  const auto result = system.run();
  // Two jobs share one CPU: both finish around t=200.
  EXPECT_NEAR(result.makespan.seconds(), 200.0, 1.0);
}

TEST(BatchSystem, QueuePartitionLimitsResidency) {
  // Partition of 384 MB: three 128 MB jobs fit, a fourth must wait.
  BatchSystem system(8, Bytes{1024} * kMB, nasa_queues());
  for (int i = 0; i < 4; ++i) {
    system.submit(job(std::string("j").append(std::to_string(i)), 128, 100));
  }
  const auto result = system.run();
  int immediate = 0;
  for (const auto& r : result.jobs) {
    if (r.wait_time() == Ticks::zero()) ++immediate;
  }
  EXPECT_EQ(immediate, 3);
  EXPECT_GT(result.find("j3")->wait_time().seconds(), 90.0);
}

TEST(BatchSystem, ArrivalsAfterStart) {
  BatchSystem system(1, Bytes{1024} * kMB, nasa_queues());
  system.submit(job("early", 64, 50, 0));
  system.submit(job("late", 64, 50, 1000));
  const auto result = system.run();
  EXPECT_NEAR(result.find("early")->finish_time.seconds(), 50.0, 0.1);
  EXPECT_NEAR(result.find("late")->start_time.seconds(), 1000.0, 0.1);
  EXPECT_NEAR(result.makespan.seconds(), 1050.0, 0.5);
}

TEST(BatchSystem, SmallMemoryJobTurnsAroundFaster) {
  // The Section 2.2 claim that motivated venus's design: equal CPU work,
  // different memory footprints, busy machine -> the small job wins.
  auto run_contender = [](Bytes memory_mb) {
    BatchSystem system(8, Bytes{1024} * kMB, nasa_queues());
    // Background load: the large queue is kept full of big long jobs.
    for (int i = 0; i < 6; ++i) {
      system.submit(job("bg" + std::to_string(i), 512, 2000, 0));
    }
    // Small-queue churn keeps small slots turning over.
    for (int i = 0; i < 6; ++i) {
      system.submit(job("sm" + std::to_string(i), 96, 300, 0));
    }
    system.submit(job("contender", memory_mb, 379, 10));
    return system.run().find("contender")->turnaround();
  };
  const Ticks small = run_contender(64);   // venus as written (stages via I/O)
  const Ticks large = run_contender(600);  // venus with everything in memory
  EXPECT_LT(small, large);
  EXPECT_LT(small.seconds() * 1.5, large.seconds());
}

TEST(BatchSystem, DeterministicResults) {
  auto run_once = [] {
    BatchSystem system(4, Bytes{1024} * kMB, nasa_queues());
    for (int i = 0; i < 10; ++i) {
      system.submit(
          job(std::string("j").append(std::to_string(i)), 64 + 32 * (i % 3), 100 + 13 * i, 5 * i));
    }
    return system.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time);
  }
}

}  // namespace
}  // namespace craysim::batch
