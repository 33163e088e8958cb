// Buffer-cache unit tests: hit/miss planning, LRU, read-ahead, write-behind,
// flush batching, per-process caps, and state-machine edge cases.
#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace craysim::sim {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  CacheParams params_ = [] {
    CacheParams p;
    p.capacity = 64 * kKiB;  // 16 x 4 KiB blocks
    p.block_size = 4 * kKiB;
    return p;
  }();
  CacheMetrics metrics_;

  BufferCache make(CacheParams params) { return BufferCache(params, metrics_); }
  BufferCache make() { return make(params_); }
};

TEST_F(CacheTest, RejectsBadConfig) {
  CacheParams p = params_;
  p.block_size = 0;
  EXPECT_THROW(make(p), ConfigError);
  p = params_;
  p.capacity = 100;  // smaller than one block
  EXPECT_THROW(make(p), ConfigError);
  p = params_;
  p.per_process_cap = 100;
  EXPECT_THROW(make(p), ConfigError);
}

TEST_F(CacheTest, ColdReadMissesAndFetches) {
  auto cache = make();
  const auto plan = cache.plan_read(1, 10, 0, 8192, 100);
  EXPECT_FALSE(plan.full_hit);
  ASSERT_EQ(plan.fetch_runs.size(), 1u);
  EXPECT_EQ(plan.fetch_runs[0], (BlockRun{10, 0, 2}));
  EXPECT_EQ(metrics_.read_misses, 1);
}

TEST_F(CacheTest, ReadAfterFetchIsFullHit) {
  auto cache = make();
  const auto plan = cache.plan_read(1, 10, 0, 8192, 100);
  cache.fetch_complete(plan.fetch_runs[0]);
  const auto again = cache.plan_read(1, 10, 0, 8192, 101);
  EXPECT_TRUE(again.full_hit);
  EXPECT_TRUE(again.fetch_runs.empty());
  EXPECT_EQ(metrics_.read_full_hits, 1);
}

TEST_F(CacheTest, PartialHitFetchesOnlyMissingBlocks) {
  auto cache = make();
  const auto first = cache.plan_read(1, 10, 0, 4096, 100);
  cache.fetch_complete(first.fetch_runs[0]);
  const auto second = cache.plan_read(1, 10, 0, 12'288, 101);
  EXPECT_FALSE(second.full_hit);
  ASSERT_EQ(second.fetch_runs.size(), 1u);
  EXPECT_EQ(second.fetch_runs[0], (BlockRun{10, 1, 2}));
  EXPECT_EQ(metrics_.read_partial_hits, 1);
}

TEST_F(CacheTest, UnalignedRequestTouchesStraddledBlocks) {
  auto cache = make();
  // [3000, 9000) straddles blocks 0..2.
  const auto plan = cache.plan_read(1, 10, 3000, 6000, 100);
  ASSERT_EQ(plan.fetch_runs.size(), 1u);
  EXPECT_EQ(plan.fetch_runs[0].count, 3);
}

TEST_F(CacheTest, ConcurrentReadJoinsInFlightFetch) {
  auto cache = make();
  const auto first = cache.plan_read(1, 10, 0, 8192, 100);
  ASSERT_EQ(first.fetch_runs.size(), 1u);
  // Second reader overlaps the still-in-flight blocks: must join op 100.
  const auto second = cache.plan_read(2, 10, 4096, 8192, 200);
  ASSERT_EQ(second.fetch_runs.size(), 1u);
  EXPECT_EQ(second.fetch_runs[0], (BlockRun{10, 2, 1}));
  ASSERT_EQ(second.join_ops.size(), 1u);
  EXPECT_EQ(second.join_ops[0], 100u);
}

TEST_F(CacheTest, MultiRunFetchTagsPerRunOpIds) {
  auto cache = make();
  // Pre-populate block 1 so a read of blocks 0..2 has two separate runs.
  const auto mid = cache.plan_read(1, 10, 4096, 4096, 50);
  cache.fetch_complete(mid.fetch_runs[0]);
  const auto plan = cache.plan_read(1, 10, 0, 12'288, 100);
  ASSERT_EQ(plan.fetch_runs.size(), 2u);
  // Runs are tagged 100 and 101; a joiner of block 2 must see op 101.
  const auto join = cache.plan_read(2, 10, 8192, 4096, 300);
  ASSERT_EQ(join.join_ops.size(), 1u);
  EXPECT_EQ(join.join_ops[0], 101u);
}

TEST_F(CacheTest, LruEvictionOrder) {
  CacheParams p = params_;
  p.capacity = 4 * p.block_size;  // 4 blocks
  p.read_ahead = false;
  auto cache = make(p);
  for (std::uint32_t b = 0; b < 4; ++b) {
    const auto plan = cache.plan_read(1, 10, Bytes{b} * 4096, 4096, 100 + b);
    cache.fetch_complete(plan.fetch_runs[0]);
  }
  // Touch block 0 so block 1 becomes LRU.
  (void)cache.plan_read(1, 10, 0, 4096, 300);
  // New block forces one eviction: block 1 must go, 0 must stay.
  const auto plan = cache.plan_read(1, 11, 0, 4096, 400);
  cache.fetch_complete(plan.fetch_runs[0]);
  EXPECT_EQ(metrics_.evictions, 1);
  EXPECT_TRUE(cache.plan_read(1, 10, 0, 4096, 500).full_hit);        // block 0 stayed
  EXPECT_FALSE(cache.plan_read(1, 10, 4096, 4096, 501).full_hit);    // block 1 evicted
}

TEST_F(CacheTest, ReadAheadSuggestedOnlyWhenSequential) {
  auto cache = make();
  const auto first = cache.plan_read(1, 10, 0, 4096, 100);
  EXPECT_FALSE(first.readahead.has_value());  // no history yet
  const auto second = cache.plan_read(1, 10, 4096, 4096, 101);
  ASSERT_TRUE(second.readahead.has_value());
  EXPECT_EQ(*second.readahead, (BlockRun{10, 2, 1}));
  const auto random = cache.plan_read(1, 10, 40'960, 4096, 102);
  EXPECT_FALSE(random.readahead.has_value());
}

TEST_F(CacheTest, ReadAheadDisabledByParam) {
  CacheParams p = params_;
  p.read_ahead = false;
  auto cache = make(p);
  (void)cache.plan_read(1, 10, 0, 4096, 100);
  const auto second = cache.plan_read(1, 10, 4096, 4096, 101);
  EXPECT_FALSE(second.readahead.has_value());
}

TEST_F(CacheTest, ReadAheadIssueAndUseAccounting) {
  auto cache = make();
  const auto p1 = cache.plan_read(1, 10, 0, 4096, 100);
  cache.fetch_complete(p1.fetch_runs[0]);
  const auto p2 = cache.plan_read(1, 10, 4096, 4096, 101);
  cache.fetch_complete(p2.fetch_runs[0]);
  ASSERT_TRUE(p2.readahead);
  const auto issued = cache.try_issue_readahead(1, *p2.readahead, 102);
  ASSERT_TRUE(issued.has_value());
  EXPECT_EQ(metrics_.readahead_issued, 1);
  EXPECT_EQ(metrics_.readahead_fetched_blocks, 1);
  cache.fetch_complete(*issued);
  // Reading the prefetched block is a full hit and counts as RA usage.
  const auto p3 = cache.plan_read(1, 10, 8192, 4096, 103);
  EXPECT_TRUE(p3.full_hit);
  EXPECT_EQ(metrics_.readahead_used_blocks, 1);
}

TEST_F(CacheTest, ReadAheadRefusedWhenBlocksPresent) {
  auto cache = make();
  const auto p1 = cache.plan_read(1, 10, 0, 4096, 100);
  cache.fetch_complete(p1.fetch_runs[0]);
  EXPECT_FALSE(cache.try_issue_readahead(1, BlockRun{10, 0, 1}, 200).has_value());
}

TEST_F(CacheTest, WriteBehindAbsorbsAndDirties) {
  auto cache = make();
  const auto plan = cache.plan_write(1, 10, 0, 8192, 100, /*write_behind=*/true);
  EXPECT_TRUE(plan.absorbed);
  EXPECT_TRUE(plan.writethrough_runs.empty());
  EXPECT_EQ(cache.dirty_block_count(), 2);
  EXPECT_EQ(metrics_.write_absorbed, 1);
  // The dirty data is readable (cache hit).
  EXPECT_TRUE(cache.plan_read(1, 10, 0, 8192, 101).full_hit);
}

TEST_F(CacheTest, WriteThroughReturnsRuns) {
  auto cache = make();
  const auto plan = cache.plan_write(1, 10, 0, 8192, 100, /*write_behind=*/false);
  EXPECT_FALSE(plan.absorbed);
  ASSERT_EQ(plan.writethrough_runs.size(), 1u);
  EXPECT_EQ(plan.writethrough_runs[0].count, 2);
  EXPECT_EQ(cache.dirty_block_count(), 0);
  cache.flush_complete(plan.writethrough_runs[0]);
  EXPECT_TRUE(cache.plan_read(1, 10, 0, 8192, 101).full_hit);
}

TEST_F(CacheTest, FlushBatchGroupsContiguousBlocks) {
  auto cache = make();
  (void)cache.plan_write(1, 10, 0, 12'288, 100, true);   // blocks 0-2
  (void)cache.plan_write(1, 10, 20'480, 4096, 101, true);  // block 5
  const auto runs = cache.collect_flush_batch(100);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (BlockRun{10, 0, 3}));
  EXPECT_EQ(runs[1], (BlockRun{10, 5, 1}));
  EXPECT_EQ(cache.dirty_block_count(), 0);
  cache.flush_complete(runs[0]);
  cache.flush_complete(runs[1]);
}

TEST_F(CacheTest, FlushBatchRespectsLimit) {
  auto cache = make();
  (void)cache.plan_write(1, 10, 0, 6 * 4096, 100, true);
  const auto runs = cache.collect_flush_batch(4);
  std::int64_t taken = 0;
  for (const auto& r : runs) taken += r.count;
  EXPECT_EQ(taken, 4);
  EXPECT_EQ(cache.dirty_block_count(), 2);
}

TEST_F(CacheTest, RedirtiedWhileFlushingStaysDirty) {
  auto cache = make();
  (void)cache.plan_write(1, 10, 0, 4096, 100, true);
  const auto runs = cache.collect_flush_batch(10);
  ASSERT_EQ(runs.size(), 1u);
  (void)cache.plan_write(1, 10, 0, 4096, 101, true);  // redirty during flush
  cache.flush_complete(runs[0]);
  EXPECT_EQ(cache.dirty_block_count(), 1);  // must be flushed again
}

TEST_F(CacheTest, WriteOverFetchingBlockWins) {
  auto cache = make();
  const auto read_plan = cache.plan_read(1, 10, 0, 4096, 100);
  (void)cache.plan_write(1, 10, 0, 4096, 101, true);
  cache.fetch_complete(read_plan.fetch_runs[0]);  // stale data arrives
  EXPECT_EQ(cache.dirty_block_count(), 1);        // write survived
}

TEST_F(CacheTest, OverWatermarkDetection) {
  CacheParams p = params_;
  p.dirty_high_watermark = 0.25;  // 4 of 16 blocks
  auto cache = make(p);
  (void)cache.plan_write(1, 10, 0, 4 * 4096, 100, true);
  EXPECT_FALSE(cache.over_watermark());
  (void)cache.plan_write(1, 10, 4 * 4096, 4096, 101, true);
  EXPECT_TRUE(cache.over_watermark());
}

TEST_F(CacheTest, SpaceWaitWhenAllDirty) {
  CacheParams p = params_;
  p.capacity = 4 * p.block_size;
  auto cache = make(p);
  (void)cache.plan_write(1, 10, 0, 4 * 4096, 100, true);  // fill with dirty
  const auto plan = cache.plan_read(1, 11, 0, 4096, 200);
  EXPECT_TRUE(plan.space_wait);
  // After a flush completes there is evictable space again.
  const auto runs = cache.collect_flush_batch(100);
  for (const auto& r : runs) cache.flush_complete(r);
  EXPECT_FALSE(cache.plan_read(1, 11, 0, 4096, 201).space_wait);
}

TEST_F(CacheTest, BypassForOversizedRequests) {
  CacheParams p = params_;
  p.capacity = 4 * p.block_size;
  auto cache = make(p);
  EXPECT_TRUE(cache.plan_read(1, 10, 0, 5 * 4096, 100).bypass);
  EXPECT_TRUE(cache.plan_write(1, 10, 0, 5 * 4096, 101, true).bypass);
  EXPECT_EQ(cache.resident_blocks(), 0);
}

TEST_F(CacheTest, PerProcessCapForcesOwnEviction) {
  CacheParams p = params_;
  p.per_process_cap = 4 * p.block_size;  // 4 blocks per process
  auto cache = make(p);
  for (std::uint32_t b = 0; b < 4; ++b) {
    const auto plan = cache.plan_read(1, 10, Bytes{b} * 4096, 4096, 100 + b);
    ASSERT_EQ(cache.check_invariants(), "");
    cache.fetch_complete(plan.fetch_runs[0]);
    ASSERT_EQ(cache.check_invariants(), "");
  }
  EXPECT_EQ(cache.owned_blocks(1), 4);
  // A fifth block evicts one of the process's own, not global space.
  const auto plan = cache.plan_read(1, 10, 4 * 4096, 4096, 200);
  ASSERT_EQ(cache.check_invariants(), "");
  ASSERT_FALSE(plan.space_wait);
  cache.fetch_complete(plan.fetch_runs[0]);
  ASSERT_EQ(cache.check_invariants(), "");
  EXPECT_EQ(cache.owned_blocks(1), 4);
  EXPECT_EQ(metrics_.evictions, 1);
}

TEST_F(CacheTest, PerProcessCapBlocksWhenOwnBlocksUnevictable) {
  CacheParams p = params_;
  p.per_process_cap = 2 * p.block_size;
  auto cache = make(p);
  (void)cache.plan_write(1, 10, 0, 2 * 4096, 100, true);  // 2 dirty (unevictable)
  ASSERT_EQ(cache.check_invariants(), "");
  const auto plan = cache.plan_read(1, 10, 4 * 4096, 4096, 200);
  ASSERT_EQ(cache.check_invariants(), "");
  EXPECT_TRUE(plan.space_wait);
  // Another process is unaffected by pid 1's cap.
  EXPECT_FALSE(cache.plan_read(2, 20, 0, 4096, 300).space_wait);
  ASSERT_EQ(cache.check_invariants(), "");
}

TEST_F(CacheTest, DelayedWriteAgeFiltersYoungBlocks) {
  auto cache = make();
  (void)cache.plan_write(1, 10, 0, 4096, 100, true, Ticks::from_seconds(0));
  (void)cache.plan_write(1, 10, 4096, 4096, 101, true, Ticks::from_seconds(25));
  // At t=35s with a 30 s threshold only the first block is old enough.
  const auto runs = cache.collect_flush_batch(100, 0, Ticks::from_seconds(35),
                                              Ticks::from_seconds(30));
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (BlockRun{10, 0, 1}));
  EXPECT_EQ(cache.dirty_block_count(), 1);
  // Zero age (space pressure) takes everything.
  const auto rest = cache.collect_flush_batch(100, 0, Ticks::from_seconds(35), Ticks::zero());
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(cache.dirty_block_count(), 0);
}

TEST_F(CacheTest, RedirtyRefreshesDelayedWriteAge) {
  auto cache = make();
  (void)cache.plan_write(1, 10, 0, 4096, 100, true, Ticks::from_seconds(0));
  (void)cache.plan_write(1, 10, 0, 4096, 101, true, Ticks::from_seconds(20));  // rewrite
  const auto runs = cache.collect_flush_batch(100, 0, Ticks::from_seconds(25),
                                              Ticks::from_seconds(10));
  EXPECT_TRUE(runs.empty());  // age restarted at 20 s
}

TEST_F(CacheTest, InvalidateCancelsDirtyWrites) {
  auto cache = make();
  (void)cache.plan_write(1, 10, 0, 8192, 100, true);
  const auto read_plan = cache.plan_read(1, 10, 8192, 4096, 101);
  cache.fetch_complete(read_plan.fetch_runs[0]);
  EXPECT_EQ(cache.invalidate_file(10), 2);  // two dirty blocks cancelled
  EXPECT_EQ(cache.dirty_block_count(), 0);
  EXPECT_EQ(cache.resident_blocks(), 0);
  EXPECT_EQ(metrics_.writes_cancelled_blocks, 2);
  // Nothing left to flush.
  EXPECT_TRUE(cache.collect_flush_batch(100).empty());
}

TEST_F(CacheTest, InvalidateLeavesOtherFilesAlone) {
  auto cache = make();
  (void)cache.plan_write(1, 10, 0, 4096, 100, true);
  (void)cache.plan_write(1, 11, 0, 4096, 101, true);
  (void)cache.invalidate_file(10);
  EXPECT_EQ(cache.dirty_block_count(), 1);
  EXPECT_TRUE(cache.plan_read(1, 11, 0, 4096, 200).full_hit);
}

TEST_F(CacheTest, InvalidateDuringFlushLeavesInFlightBlocks) {
  auto cache = make();
  (void)cache.plan_write(1, 10, 0, 4096, 100, true);
  const auto runs = cache.collect_flush_batch(100);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(cache.invalidate_file(10), 0);  // block is Flushing, not cancelled
  cache.flush_complete(runs[0]);            // completes without crashing
}

TEST_F(CacheTest, WritesAdvanceSequentialDetector) {
  auto cache = make();
  (void)cache.plan_write(1, 10, 0, 4096, 100, true);
  // A read continuing after the write is sequential -> readahead suggested.
  const auto plan = cache.plan_read(1, 10, 4096, 4096, 101);
  EXPECT_TRUE(plan.readahead.has_value());
}

}  // namespace
}  // namespace craysim::sim
