// Regression tests pinning the buffer cache's replacement behaviour across
// implementation rewrites (the open-addressing + intrusive-LRU rewrite must
// be observationally identical to the seed's unordered_map + std::list
// implementation).
//
// Two layers of defence:
//  * an explicit scripted scenario asserting the exact eviction order and
//    hit/miss counters a clean LRU must produce, and
//  * a long pseudo-random access script whose complete observable output
//    (plan flags, fetch runs, metrics counters, occupancy) is digested and
//    compared against the value recorded from the seed implementation.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/cache.hpp"
#include "util/digest.hpp"

namespace craysim::sim {
namespace {

CacheParams small_cache(std::int64_t blocks) {
  CacheParams params;
  params.block_size = 4 * kKiB;
  params.capacity = blocks * params.block_size;
  params.read_ahead = false;
  return params;
}

/// Reads exactly one block and completes its fetch immediately.
void read_block(BufferCache& cache, std::uint32_t pid, std::uint32_t file, std::int64_t block,
                std::uint64_t op) {
  const auto plan =
      cache.plan_read(pid, file, block * cache.block_size(), cache.block_size(), op);
  ASSERT_FALSE(plan.space_wait);
  ASSERT_FALSE(plan.bypass);
  for (const auto& run : plan.fetch_runs) cache.fetch_complete(run);
}

TEST(CacheLruRegressionTest, EvictionOrderMatchesCleanLru) {
  CacheMetrics metrics;
  BufferCache cache(small_cache(8), metrics);

  // Fill the cache: blocks 0..7 of file 1, LRU order 0,1,...,7.
  for (std::int64_t b = 0; b < 8; ++b) {
    read_block(cache, 1, 1, b, static_cast<std::uint64_t>(100 + 2 * b));
  }
  EXPECT_EQ(cache.resident_blocks(), 8);
  EXPECT_EQ(metrics.read_misses, 8);
  EXPECT_EQ(metrics.evictions, 0);

  // Touch 0 then 2: LRU order becomes 1,3,4,5,6,7,0,2.
  read_block(cache, 1, 1, 0, 200);
  read_block(cache, 1, 1, 2, 201);
  EXPECT_EQ(metrics.read_full_hits, 2);
  EXPECT_EQ(metrics.evictions, 0);

  // Three insertions must evict exactly 1, 3, 4 — in that order.
  read_block(cache, 1, 1, 8, 300);
  EXPECT_EQ(metrics.evictions, 1);
  read_block(cache, 1, 1, 9, 301);
  EXPECT_EQ(metrics.evictions, 2);
  read_block(cache, 1, 1, 10, 302);
  EXPECT_EQ(metrics.evictions, 3);
  EXPECT_EQ(cache.resident_blocks(), 8);

  // Membership probe over blocks 0..7 in order. The probe perturbs the cache
  // as it goes: each miss reinserts the block and evicts the then-LRU
  // survivor, so after the misses on 1, 3, 4 (the original victims, proving
  // they were evicted first) the reinsertions have evicted 5, 6, 7 — the
  // exact LRU order. Net hit pattern: only the recently-touched 0 and 2.
  const bool expected_hit[8] = {true, false, true, false, false, false, false, false};
  for (std::int64_t b = 0; b < 8; ++b) {
    const std::int64_t hits_before = metrics.read_full_hits;
    read_block(cache, 1, 1, b, static_cast<std::uint64_t>(400 + 2 * b));
    const bool hit = metrics.read_full_hits == hits_before + 1;
    EXPECT_EQ(hit, expected_hit[b]) << "block " << b;
  }
  EXPECT_EQ(metrics.read_full_hits, 2 + 2);
  EXPECT_EQ(metrics.read_misses, 8 + 3 + 6);
}

TEST(CacheLruRegressionTest, DirtyBlocksAreNotEvictable) {
  CacheMetrics metrics;
  BufferCache cache(small_cache(4), metrics);

  // Two dirty blocks pin half the cache.
  const auto wplan = cache.plan_write(1, 1, 0, 2 * cache.block_size(), 1,
                                      /*write_behind=*/true);
  ASSERT_TRUE(wplan.absorbed);
  EXPECT_EQ(cache.dirty_block_count(), 2);

  // Two clean blocks fill it; a third read must evict a clean block, never a
  // dirty one.
  read_block(cache, 1, 1, 10, 10);
  read_block(cache, 1, 1, 11, 12);
  read_block(cache, 1, 1, 12, 14);
  EXPECT_EQ(metrics.evictions, 1);
  EXPECT_EQ(cache.dirty_block_count(), 2);

  // A request needing more space than clean+free can supply must space-wait.
  const auto big = cache.plan_read(1, 1, 20 * cache.block_size(), 3 * cache.block_size(), 20);
  EXPECT_TRUE(big.space_wait);
}

/// Reads one block as `pid` and reports whether it was already resident
/// (a full hit). A miss inserts the block but, with free space and `pid`
/// under its cap, evicts nothing — so probing never moves a victim.
bool probe_resident(BufferCache& cache, const CacheMetrics& metrics, std::uint32_t pid,
                    std::uint32_t file, std::int64_t block, std::uint64_t op) {
  const std::int64_t hits_before = metrics.read_full_hits;
  read_block(cache, pid, file, block, op);
  return metrics.read_full_hits == hits_before + 1;
}

TEST(CacheLruRegressionTest, CappedOwnerEvictsItsOwnOldestCleanBlocksFirst) {
  CacheParams params = small_cache(16);
  params.per_process_cap = 4 * params.block_size;
  CacheMetrics metrics;
  BufferCache cache(params, metrics);

  // Interleave two owners: pid 1 reads file 1, pid 2 reads file 2, so the
  // clean LRU is 1:0 2:0 1:1 2:1 1:2 2:2 1:3 2:3. Both sit at the cap.
  for (std::int64_t b = 0; b < 4; ++b) {
    read_block(cache, 1, 1, b, static_cast<std::uint64_t>(100 + b));
    read_block(cache, 2, 2, b, static_cast<std::uint64_t>(110 + b));
  }
  // pid 1 touches its blocks 0 and 2: the LRU becomes
  // 2:0 1:1 2:1 2:2 1:3 2:3 1:0 1:2, so pid 1's own order is 1, 3, 0, 2 and
  // the global LRU head belongs to pid 2.
  read_block(cache, 1, 1, 0, 120);
  read_block(cache, 1, 1, 2, 121);
  ASSERT_EQ(cache.check_invariants(), "");
  EXPECT_EQ(metrics.evictions, 0);
  EXPECT_EQ(cache.owned_blocks(1), 4);
  EXPECT_EQ(cache.owned_blocks(2), 4);

  // Each read past the cap evicts exactly one block, and the probe by pid 3
  // (which stays under its cap: it owns at most 3 blocks) shows it is pid
  // 1's oldest clean block, in pid 1's LRU order 1, 3, 0.
  const std::int64_t expected_victim[3] = {1, 3, 0};
  for (int i = 0; i < 3; ++i) {
    read_block(cache, 1, 1, 4 + i, static_cast<std::uint64_t>(200 + i));
    ASSERT_EQ(cache.check_invariants(), "") << "insert " << i;
    EXPECT_EQ(metrics.evictions, i + 1);
    EXPECT_EQ(cache.owned_blocks(1), 4);
    EXPECT_FALSE(probe_resident(cache, metrics, 3, 1, expected_victim[i],
                                static_cast<std::uint64_t>(300 + i)))
        << "block " << expected_victim[i] << " of pid 1 should have been evicted";
  }

  // None of pid 2's blocks went, and pid 1 kept its newest: 2, 4, 5, 6.
  for (std::int64_t b = 0; b < 4; ++b) {
    EXPECT_TRUE(probe_resident(cache, metrics, 3, 2, b, static_cast<std::uint64_t>(400 + b)))
        << "pid 2 block " << b;
  }
  for (const std::int64_t b : {2, 4, 5, 6}) {
    EXPECT_TRUE(probe_resident(cache, metrics, 3, 1, b, static_cast<std::uint64_t>(500 + b)))
        << "pid 1 block " << b;
  }
  EXPECT_EQ(metrics.evictions, 3);
  EXPECT_EQ(cache.check_invariants(), "");
}

// ---------------------------------------------------------------------------
// Recorded-script digest: every observable output of a 6000-step mixed
// workload, digested. The constants were captured from the seed
// implementation (unordered_map + std::list); any behavioural divergence in
// a rewrite changes them.
// ---------------------------------------------------------------------------

class ScriptDigest {
 public:
  void flags(bool a, bool b, bool c, bool d) {
    digest_.add<std::uint8_t>((a ? 1 : 0) | (b ? 2 : 0) | (c ? 4 : 0) | (d ? 8 : 0));
  }
  void run(const BlockRun& r) {
    digest_.add(r.file);
    digest_.add(r.first_block);
    digest_.add(r.count);
  }
  void number(std::int64_t v) { digest_.add(v); }
  void metrics(const CacheMetrics& m) {
    digest_.add(m.read_requests);
    digest_.add(m.read_full_hits);
    digest_.add(m.read_partial_hits);
    digest_.add(m.read_misses);
    digest_.add(m.write_requests);
    digest_.add(m.write_absorbed);
    digest_.add(m.readahead_issued);
    digest_.add(m.readahead_used_blocks);
    digest_.add(m.readahead_fetched_blocks);
    digest_.add(m.evictions);
    digest_.add(m.space_waits);
    digest_.add(m.writes_cancelled_blocks);
  }
  [[nodiscard]] std::uint64_t value() const { return digest_.value(); }

 private:
  util::Fnv1a digest_;
};

TEST(CacheLruRegressionTest, RecordedScriptDigestMatchesSeed) {
  CacheParams params;
  params.block_size = 4 * kKiB;
  params.capacity = 48 * params.block_size;
  params.read_ahead = true;
  params.write_behind = true;
  params.per_process_cap = 24 * params.block_size;
  CacheMetrics metrics;
  BufferCache cache(params, metrics);

  ScriptDigest digest;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng](std::uint64_t bound) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % bound;
  };

  std::uint64_t op = 1;
  std::deque<BlockRun> pending_fetches;
  std::deque<BlockRun> pending_flushes;
  Ticks now = Ticks::zero();

  for (int step = 0; step < 6000; ++step) {
    now += Ticks(static_cast<std::int64_t>(next(50)) + 1);
    const auto pid = static_cast<std::uint32_t>(1 + next(3));
    const auto file = static_cast<std::uint32_t>(1 + next(4));
    const Bytes offset = static_cast<Bytes>(next(96)) * (params.block_size / 2);
    const Bytes length = (static_cast<Bytes>(next(6)) + 1) * (params.block_size / 2);
    const std::uint64_t kind = next(10);

    if (kind < 4) {
      const auto plan = cache.plan_read(pid, file, offset, length, op);
      digest.flags(plan.space_wait, plan.bypass, plan.full_hit, plan.readahead_hit);
      for (const auto& r : plan.fetch_runs) digest.run(r);
      for (const auto j : plan.join_ops) digest.number(static_cast<std::int64_t>(j));
      if (!plan.space_wait && !plan.bypass) {
        op += plan.fetch_runs.size();
        for (const auto& r : plan.fetch_runs) pending_fetches.push_back(r);
        if (plan.readahead) {
          if (const auto issued = cache.try_issue_readahead(pid, *plan.readahead, op)) {
            ++op;
            digest.run(*issued);
            pending_fetches.push_back(*issued);
          }
        }
      }
    } else if (kind < 7) {
      const bool write_behind = next(4) != 0;
      const auto plan = cache.plan_write(pid, file, offset, length, op++, write_behind, now);
      digest.flags(plan.space_wait, plan.bypass, plan.absorbed, write_behind);
      for (const auto& r : plan.writethrough_runs) {
        digest.run(r);
        pending_flushes.push_back(r);
      }
    } else if (kind == 7) {
      const auto runs = cache.collect_flush_batch(static_cast<std::int64_t>(next(24)) + 1,
                                                  static_cast<std::int64_t>(next(8)), now,
                                                  Ticks(static_cast<std::int64_t>(next(60))));
      for (const auto& r : runs) {
        digest.run(r);
        pending_flushes.push_back(r);
      }
    } else if (kind == 8) {
      // Drain some in-flight traffic (oldest first).
      for (int i = 0; i < 3 && !pending_fetches.empty(); ++i) {
        cache.fetch_complete(pending_fetches.front());
        pending_fetches.pop_front();
      }
      for (int i = 0; i < 3 && !pending_flushes.empty(); ++i) {
        cache.flush_complete(pending_flushes.front());
        pending_flushes.pop_front();
      }
    } else {
      digest.number(cache.invalidate_file(file));
    }

    ASSERT_EQ(cache.check_invariants(), "") << "step " << step;
    digest.number(cache.dirty_block_count());
    digest.number(cache.resident_blocks());
    digest.number(cache.owned_blocks(pid));
    digest.flags(cache.over_watermark(), false, false, false);
  }
  digest.metrics(metrics);

  EXPECT_EQ(digest.value(), 0xb65d522ee33d3a31ull)
      << "cache behaviour diverged from the seed implementation";
  EXPECT_EQ(metrics.evictions, 3254);
  EXPECT_EQ(metrics.read_requests, 1936);
  EXPECT_EQ(metrics.write_requests, 1421);
}

}  // namespace
}  // namespace craysim::sim
