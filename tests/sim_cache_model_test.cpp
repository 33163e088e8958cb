// Differential test of BufferCache against a deliberately naive reference
// model: one std::map entry per resident block, a std::list for the clean
// LRU, linear scans wherever the real cache keeps an index or a per-owner
// list. The model follows the cache's documented operation order block by
// block:
//  * a read touches its hits to MRU in ascending block order while it is
//    planned; fetched blocks reach MRU at fetch_complete and write-through
//    blocks at flush_complete, in run order;
//  * every inserted block first evicts one clean block (the owner's LRU one
//    over a per-process cap, else the global LRU one), in ascending block
//    order within the request, so an insert can evict a later, not yet
//    visited block of the same request, which is then re-fetched;
//  * a plan that would have to evict from an empty clean list is undone and
//    waits for space;
//  * owner reassignment does not move owned counts (a known bug, kept until
//    the recorded-script digest is re-pinned).
// Seeded random op sequences drive both; after every op the plans, every
// CacheMetrics counter, the list counts, the owned counts and the resident
// key set must agree exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sim/cache.hpp"

namespace craysim::sim {
namespace {

class ModelCache {
 public:
  ModelCache(const CacheParams& params, CacheMetrics& metrics)
      : params_(params),
        metrics_(&metrics),
        capacity_(params.capacity / params.block_size),
        cap_(params.per_process_cap > 0 ? params.per_process_cap / params.block_size : 0) {}

  BufferCache::ReadPlan plan_read(std::uint32_t pid, std::uint32_t file, Bytes offset,
                                  Bytes length, std::uint64_t first_op) {
    BufferCache::ReadPlan plan;
    const auto [b0, b1] = span_of(offset, length);
    ++metrics_->read_requests;
    if (b1 - b0 > capacity_) {
      plan.bypass = true;
      ++metrics_->read_misses;
      return plan;
    }
    std::int64_t missing = 0;
    for (std::int64_t b = b0; b < b1; ++b) missing += blocks_.count({file, b}) == 0 ? 1 : 0;
    if (missing > 0 && !can_allocate(missing, pid, 0, 0)) {
      plan.space_wait = true;
      --metrics_->read_requests;
      return plan;
    }
    const Snapshot undo = snapshot();
    std::int64_t present = 0;
    for (std::int64_t b = b0; b < b1; ++b) {
      const auto it = blocks_.find({file, b});
      if (it == blocks_.end()) {
        auto& runs = plan.fetch_runs;
        if (runs.empty() || runs.back().first_block + runs.back().count != b) {
          runs.push_back({file, b, 0});
        }
        if (!insert({file, b}, State::kFetching, pid, first_op + runs.size() - 1, false)) {
          restore(undo);
          --metrics_->read_requests;
          BufferCache::ReadPlan wait;
          wait.space_wait = true;
          return wait;
        }
        ++runs.back().count;
        continue;
      }
      ++present;
      Block& block = it->second;
      if (block.from_readahead) {
        ++metrics_->readahead_used_blocks;
        block.from_readahead = false;
        plan.readahead_hit = true;
      }
      if (block.state == State::kClean) {
        lru_.remove({file, b});
        lru_.push_back({file, b});
      } else if (block.state == State::kFetching &&
                 std::find(plan.join_ops.begin(), plan.join_ops.end(), block.op_id) ==
                     plan.join_ops.end()) {
        plan.join_ops.push_back(block.op_id);
      }
    }
    plan.full_hit = plan.fetch_runs.empty() && plan.join_ops.empty();
    if (plan.full_hit) {
      ++metrics_->read_full_hits;
    } else if (present > 0) {
      ++metrics_->read_partial_hits;
    } else {
      ++metrics_->read_misses;
    }
    if (params_.read_ahead) {
      Sequence& seq = sequential_[file];
      if (seq.last_end == offset) {
        const Bytes bs = params_.block_size;
        plan.readahead = BlockRun{file, b1, std::max<std::int64_t>(1, (length + bs - 1) / bs)};
      }
      seq.last_end = offset + length;
    }
    return plan;
  }

  BufferCache::WritePlan plan_write(std::uint32_t pid, std::uint32_t file, Bytes offset,
                                    Bytes length, std::uint64_t op_id, bool write_behind,
                                    Ticks now) {
    BufferCache::WritePlan plan;
    const auto [b0, b1] = span_of(offset, length);
    ++metrics_->write_requests;
    if (b1 - b0 > capacity_) {
      plan.bypass = true;
      return plan;
    }
    std::int64_t missing = 0;
    std::int64_t leaving = 0;
    std::int64_t own_leaving = 0;
    for (std::int64_t b = b0; b < b1; ++b) {
      const auto it = blocks_.find({file, b});
      if (it == blocks_.end()) {
        ++missing;
      } else if (it->second.state == State::kClean) {
        ++leaving;
        if (it->second.owner == pid) ++own_leaving;
      }
    }
    if (missing > 0 && !can_allocate(missing, pid, leaving, own_leaving)) {
      plan.space_wait = true;
      --metrics_->write_requests;
      return plan;
    }
    const Snapshot undo = snapshot();
    for (std::int64_t b = b0; b < b1; ++b) {
      const Key key{file, b};
      auto it = blocks_.find(key);
      if (it == blocks_.end()) {
        if (!insert(key, write_behind ? State::kDirty : State::kFlushing, pid, op_id, false)) {
          restore(undo);
          --metrics_->write_requests;
          BufferCache::WritePlan wait;
          wait.space_wait = true;
          return wait;
        }
        if (write_behind) blocks_.at(key).dirty_since = now;
      } else {
        Block& block = it->second;
        if (block.state == State::kClean) lru_.remove(key);
        if (write_behind) {
          if (block.state == State::kFlushing) {
            block.redirtied = true;
          } else {
            block.state = State::kDirty;
          }
          block.dirty_since = now;
        } else {
          block.state = State::kFlushing;
        }
        block.owner = pid;  // the owned counts stay where they were
        block.from_readahead = false;
      }
    }
    if (write_behind) {
      plan.absorbed = true;
      ++metrics_->write_absorbed;
    } else if (b1 > b0) {
      plan.writethrough_runs.push_back({file, b0, b1 - b0});
    }
    if (params_.read_ahead) sequential_[file].last_end = offset + length;
    return plan;
  }

  std::optional<BlockRun> try_issue_readahead(std::uint32_t pid, const BlockRun& run,
                                              std::uint64_t op_id) {
    if (run.count <= 0) return std::nullopt;
    for (std::int64_t i = 0; i < run.count; ++i) {
      if (blocks_.count({run.file, run.first_block + i}) != 0) return std::nullopt;
    }
    if (!can_allocate(run.count, pid, 0, 0)) return std::nullopt;
    for (std::int64_t i = 0; i < run.count; ++i) {
      const bool inserted =
          insert({run.file, run.first_block + i}, State::kFetching, pid, op_id, true);
      EXPECT_TRUE(inserted) << "an all-absent read-ahead cannot run out of room";
    }
    ++metrics_->readahead_issued;
    metrics_->readahead_fetched_blocks += run.count;
    return run;
  }

  void fetch_complete(const BlockRun& run) {
    for (std::int64_t i = 0; i < run.count; ++i) {
      const Key key{run.file, run.first_block + i};
      const auto it = blocks_.find(key);
      if (it == blocks_.end() || it->second.state != State::kFetching) continue;
      it->second.state = State::kClean;
      lru_.push_back(key);
    }
  }

  void flush_complete(const BlockRun& run) {
    for (std::int64_t i = 0; i < run.count; ++i) {
      const Key key{run.file, run.first_block + i};
      const auto it = blocks_.find(key);
      if (it == blocks_.end() || it->second.state != State::kFlushing) continue;
      if (it->second.redirtied) {
        it->second.redirtied = false;
        it->second.state = State::kDirty;
      } else {
        it->second.state = State::kClean;
        lru_.push_back(key);
      }
    }
  }

  std::vector<BlockRun> collect_flush_batch(std::int64_t max_blocks, std::int64_t max_run,
                                            Ticks now, Ticks min_age) {
    std::vector<BlockRun> runs;
    std::int64_t taken = 0;
    for (auto& [key, block] : blocks_) {
      if (taken >= max_blocks) break;
      if (block.state != State::kDirty) continue;
      if (min_age > Ticks::zero() && block.dirty_since + min_age > now) continue;
      block.state = State::kFlushing;
      ++taken;
      if (!runs.empty() && runs.back().file == key.file &&
          runs.back().first_block + runs.back().count == key.block &&
          (max_run <= 0 || runs.back().count < max_run)) {
        ++runs.back().count;
      } else {
        runs.push_back({key.file, key.block, 1});
      }
    }
    return runs;
  }

  std::int64_t invalidate_file(std::uint32_t file) {
    std::int64_t cancelled = 0;
    for (auto it = blocks_.begin(); it != blocks_.end();) {
      const State state = it->second.state;
      if (it->first.file != file || state == State::kFetching || state == State::kFlushing) {
        ++it;
        continue;
      }
      if (state == State::kClean) lru_.remove(it->first);
      if (state == State::kDirty) ++cancelled;
      --owned_[it->second.owner];
      it = blocks_.erase(it);
    }
    sequential_.erase(file);
    metrics_->writes_cancelled_blocks += cancelled;
    return cancelled;
  }

  [[nodiscard]] std::int64_t dirty_block_count() const { return count_state(State::kDirty); }
  [[nodiscard]] std::int64_t clean_block_count() const {
    return static_cast<std::int64_t>(lru_.size());
  }
  [[nodiscard]] std::int64_t resident_blocks() const {
    return static_cast<std::int64_t>(blocks_.size());
  }
  [[nodiscard]] std::int64_t owned_blocks(std::uint32_t pid) const {
    const auto it = owned_.find(pid);
    return it == owned_.end() ? 0 : it->second;
  }
  [[nodiscard]] bool over_watermark() const {
    return static_cast<double>(dirty_block_count()) >
           params_.dirty_high_watermark * static_cast<double>(capacity_);
  }
  [[nodiscard]] std::vector<BlockRun> resident_runs() const {
    std::vector<BlockRun> runs;
    for (const auto& [key, block] : blocks_) {
      if (!runs.empty() && runs.back().file == key.file &&
          runs.back().first_block + runs.back().count == key.block) {
        ++runs.back().count;
      } else {
        runs.push_back({key.file, key.block, 1});
      }
    }
    return runs;
  }

 private:
  enum class State { kClean, kDirty, kFetching, kFlushing };
  struct Key {
    std::uint32_t file = 0;
    std::int64_t block = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Block {
    State state = State::kClean;
    std::uint32_t owner = 0;
    std::uint64_t op_id = 0;
    Ticks dirty_since;
    bool from_readahead = false;
    bool redirtied = false;
  };
  struct Sequence {
    Bytes last_end = -1;
  };
  struct Snapshot {
    std::map<Key, Block> blocks;
    std::list<Key> lru;
    std::map<std::uint32_t, std::int64_t> owned;
    CacheMetrics metrics;
  };

  [[nodiscard]] std::pair<std::int64_t, std::int64_t> span_of(Bytes offset, Bytes length) const {
    const Bytes bs = params_.block_size;
    return {offset / bs, (offset + length + bs - 1) / bs};
  }
  [[nodiscard]] std::int64_t count_state(State state) const {
    return std::count_if(blocks_.begin(), blocks_.end(),
                         [state](const auto& entry) { return entry.second.state == state; });
  }
  [[nodiscard]] std::int64_t own_clean(std::uint32_t pid) const {
    return std::count_if(lru_.begin(), lru_.end(),
                         [&](const Key& key) { return blocks_.at(key).owner == pid; });
  }
  [[nodiscard]] bool can_allocate(std::int64_t need, std::uint32_t pid, std::int64_t leaving,
                                  std::int64_t own_leaving) const {
    const std::int64_t free = capacity_ - resident_blocks();
    if (need > free + clean_block_count() - leaving) return false;
    return cap_ == 0 || owned_blocks(pid) + need - (own_clean(pid) - own_leaving) <= cap_;
  }
  bool evict(std::uint32_t prefer) {
    if (lru_.empty()) return false;
    auto victim = lru_.begin();
    if (prefer != 0) {
      const auto own = std::find_if(lru_.begin(), lru_.end(),
                                    [&](const Key& key) { return blocks_.at(key).owner == prefer; });
      if (own != lru_.end()) victim = own;
    }
    --owned_[blocks_.at(*victim).owner];
    blocks_.erase(*victim);
    lru_.erase(victim);
    ++metrics_->evictions;
    return true;
  }
  bool insert(const Key& key, State state, std::uint32_t pid, std::uint64_t op_id,
              bool from_readahead) {
    const std::uint32_t prefer = cap_ > 0 && owned_blocks(pid) + 1 > cap_ ? pid : 0;
    if ((resident_blocks() == capacity_ || prefer != 0) && !evict(prefer)) return false;
    Block& block = blocks_[key];
    block = Block{};
    block.state = state;
    block.owner = pid;
    block.op_id = op_id;
    block.from_readahead = from_readahead;
    ++owned_[pid];
    return true;
  }
  [[nodiscard]] Snapshot snapshot() const { return {blocks_, lru_, owned_, *metrics_}; }
  void restore(const Snapshot& saved) {
    blocks_ = saved.blocks;
    lru_ = saved.lru;
    owned_ = saved.owned;
    *metrics_ = saved.metrics;
  }

  CacheParams params_;
  CacheMetrics* metrics_;
  std::int64_t capacity_;
  std::int64_t cap_;
  std::map<Key, Block> blocks_;  ///< key order doubles as the dirty list order
  std::list<Key> lru_;           ///< clean blocks, LRU at the front
  std::map<std::uint32_t, std::int64_t> owned_;
  std::map<std::uint32_t, Sequence> sequential_;
};

void expect_same_metrics(const CacheMetrics& real, const CacheMetrics& model) {
  EXPECT_EQ(real.read_requests, model.read_requests);
  EXPECT_EQ(real.read_full_hits, model.read_full_hits);
  EXPECT_EQ(real.read_partial_hits, model.read_partial_hits);
  EXPECT_EQ(real.read_misses, model.read_misses);
  EXPECT_EQ(real.write_requests, model.write_requests);
  EXPECT_EQ(real.write_absorbed, model.write_absorbed);
  EXPECT_EQ(real.readahead_issued, model.readahead_issued);
  EXPECT_EQ(real.readahead_used_blocks, model.readahead_used_blocks);
  EXPECT_EQ(real.readahead_fetched_blocks, model.readahead_fetched_blocks);
  EXPECT_EQ(real.evictions, model.evictions);
  EXPECT_EQ(real.space_waits, model.space_waits);
  EXPECT_EQ(real.writes_cancelled_blocks, model.writes_cancelled_blocks);
}

struct Rng {
  std::uint64_t state;
  std::uint64_t operator()(std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  }
};

/// Drives the cache and the model through one seeded op sequence and adds
/// its evictions to `evictions`, so the caller can see the sequences evict.
void run_differential(std::uint64_t seed, int steps, std::int64_t& evictions) {
  Rng next{seed * 0x9e3779b97f4a7c15ull + 1};
  CacheParams params;
  params.block_size = 4 * kKiB;
  const std::int64_t capacity = 8 + static_cast<std::int64_t>(next(57));
  params.capacity = capacity * params.block_size;
  params.read_ahead = next(3) != 0;
  params.dirty_high_watermark = 0.5;
  const std::uint64_t cap_kind = next(3);  // none, half, a quarter
  const auto cap_divisor = static_cast<std::int64_t>(2 * cap_kind);
  params.per_process_cap =
      cap_kind == 0 ? 0 : std::max<std::int64_t>(1, capacity / cap_divisor) * params.block_size;
  const auto pids = static_cast<std::uint32_t>(1 + next(3));
  const auto files = static_cast<std::uint32_t>(1 + next(4));
  const auto max_span =
      static_cast<std::uint64_t>(1 + static_cast<std::int64_t>(next(2)) * capacity / 3) + next(6);
  const std::uint64_t write_through_odds = next(4);  // of 4 writes

  CacheMetrics real_metrics;
  CacheMetrics model_metrics;
  BufferCache real(params, real_metrics);
  ModelCache model(params, model_metrics);
  const Bytes half = params.block_size / 2;

  std::uint64_t op = 1;
  std::vector<BlockRun> fetches;
  std::vector<BlockRun> flushes;
  // Half the requests continue where the file's last one ended, so the
  // sequential detector suggests read-ahead and prefetched blocks get used.
  std::map<std::uint32_t, Bytes> file_end;
  Ticks now = Ticks::zero();
  auto flush_batch = [&] {
    const auto max_blocks =
        static_cast<std::int64_t>(next(static_cast<std::uint64_t>(capacity))) + 1;
    const auto max_run = static_cast<std::int64_t>(next(6));
    const Ticks min_age(next(3) == 0 ? 0 : static_cast<std::int64_t>(next(400)));
    const auto runs = real.collect_flush_batch(max_blocks, max_run, now, min_age);
    ASSERT_EQ(runs, model.collect_flush_batch(max_blocks, max_run, now, min_age));
    flushes.insert(flushes.end(), runs.begin(), runs.end());
  };
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    now += Ticks(static_cast<std::int64_t>(next(50)) + 1);
    const auto pid = static_cast<std::uint32_t>(1 + next(pids));
    const auto file = static_cast<std::uint32_t>(1 + next(files));
    const Bytes offset = next(2) == 0 && file_end.count(file) != 0
                             ? file_end[file]
                             : static_cast<Bytes>(next(static_cast<std::uint64_t>(6 * capacity))) * half;
    const Bytes length = next(40) == 0 ? (capacity + 1) * params.block_size
                                       : (static_cast<Bytes>(next(2 * max_span)) + 1) * half;
    const std::uint64_t kind = next(20);
    if (kind < 10) file_end[file] = offset + length;
    if (kind < 6) {
      const auto a = real.plan_read(pid, file, offset, length, op);
      const auto b = model.plan_read(pid, file, offset, length, op);
      ASSERT_EQ(a.space_wait, b.space_wait);
      ASSERT_EQ(a.bypass, b.bypass);
      ASSERT_EQ(a.full_hit, b.full_hit);
      ASSERT_EQ(a.readahead_hit, b.readahead_hit);
      ASSERT_EQ(a.fetch_runs, b.fetch_runs);
      ASSERT_EQ(a.join_ops, b.join_ops);
      ASSERT_EQ(a.readahead, b.readahead);
      if (!a.space_wait && !a.bypass) {
        op += a.fetch_runs.size();
        fetches.insert(fetches.end(), a.fetch_runs.begin(), a.fetch_runs.end());
        if (a.readahead && next(4) != 0) {
          const auto ra = real.try_issue_readahead(pid, *a.readahead, op);
          ASSERT_EQ(ra, model.try_issue_readahead(pid, *a.readahead, op));
          if (ra) {
            ++op;
            fetches.push_back(*ra);
          }
        }
      }
    } else if (kind < 10) {
      const bool write_behind = next(4) >= write_through_odds;
      const auto a = real.plan_write(pid, file, offset, length, op, write_behind, now);
      const auto b = model.plan_write(pid, file, offset, length, op, write_behind, now);
      ++op;
      ASSERT_EQ(a.space_wait, b.space_wait);
      ASSERT_EQ(a.bypass, b.bypass);
      ASSERT_EQ(a.absorbed, b.absorbed);
      ASSERT_EQ(a.writethrough_runs, b.writethrough_runs);
      flushes.insert(flushes.end(), a.writethrough_runs.begin(), a.writethrough_runs.end());
      // Like the simulator, a write that leaves the cache over its dirty
      // watermark starts a flush.
      if (a.absorbed && real.over_watermark()) flush_batch();
    } else if (kind < 11) {
      flush_batch();
    } else if (kind < 16) {
      // Complete random in-flight fetches: completions arrive out of order.
      for (int n = 0; n < 2 && !fetches.empty(); ++n) {
        const auto i = static_cast<std::ptrdiff_t>(next(fetches.size()));
        real.fetch_complete(fetches[static_cast<std::size_t>(i)]);
        model.fetch_complete(fetches[static_cast<std::size_t>(i)]);
        fetches.erase(fetches.begin() + i);
      }
    } else if (kind < 19) {
      if (!flushes.empty()) {
        const auto i = static_cast<std::ptrdiff_t>(next(flushes.size()));
        real.flush_complete(flushes[static_cast<std::size_t>(i)]);
        model.flush_complete(flushes[static_cast<std::size_t>(i)]);
        flushes.erase(flushes.begin() + i);
      }
    } else {
      ASSERT_EQ(real.invalidate_file(file), model.invalidate_file(file));
    }

    ASSERT_EQ(real.check_invariants(), "");
    ASSERT_EQ(real.dirty_block_count(), model.dirty_block_count());
    ASSERT_EQ(real.clean_block_count(), model.clean_block_count());
    ASSERT_EQ(real.resident_blocks(), model.resident_blocks());
    ASSERT_EQ(real.over_watermark(), model.over_watermark());
    for (std::uint32_t p = 1; p <= pids; ++p) {
      ASSERT_EQ(real.owned_blocks(p), model.owned_blocks(p)) << "pid " << p;
    }
    ASSERT_EQ(real.resident_runs(), model.resident_runs());
    expect_same_metrics(real_metrics, model_metrics);
    if (::testing::Test::HasFailure()) return;
  }
  evictions += real_metrics.evictions;
}

TEST(CacheModelTest, RandomOpSequencesMatchTheNaiveModel) {
  std::int64_t evictions = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    run_differential(seed, 5000, evictions);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(evictions, 10'000);  // the sequences exercise replacement
}

}  // namespace
}  // namespace craysim::sim
