// The block buffer cache of Section 6: LRU replacement, read-ahead,
// write-behind, and optional per-process ownership caps.
//
// The cache is pure bookkeeping — it never advances time. The simulator asks
// it to *plan* each read/write; the plan says which block runs must move
// to/from the disk and which in-flight operations the request must join.
// Completion notifications flow back through fetch_complete/flush_complete.
//
// Storage layout (hot path): blocks live in a slot pool (stable indices,
// free-list recycled) addressed through an open-addressing hash index, and
// both block lists are intrusive — prev/next slot indices inside the block
// itself. The clean list is LRU-ordered; the dirty list is kept in ascending
// (file, block) key order so flush batches coalesce into contiguous runs.
// A block is on at most one list (Clean and Dirty are disjoint states), so
// the two share the same pair of link fields. Touching a block on a hit or
// dirtying an appending write is pointer surgery with zero allocation, where
// the seed implementation paid an unordered_map node plus a std::list splice
// per touch and a std::set node per dirtied block.
//
// Under a per-process cap, a second pair of links (own_prev/own_next)
// threads each owner's clean blocks into a per-owner list, linked and
// unlinked together with the clean LRU, so it holds the same blocks in the
// same relative order. Its head is the owner's least-recently-used clean
// block — the owner-preferred victim — and its length is the owner's
// evictable count, both O(1). A block's owner only changes while it is off
// the clean list, so the lists never need re-threading. Per-owner records
// (owned count and that list) live in a pid-indexed vector; pids are small
// and dense.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/params.hpp"
#include "util/flat_map.hpp"
#include "util/units.hpp"

namespace craysim::sim {

/// A contiguous block range of one file (unit: cache blocks).
struct BlockRun {
  std::uint32_t file = 0;
  std::int64_t first_block = 0;
  std::int64_t count = 0;

  [[nodiscard]] Bytes bytes(Bytes block_size) const { return count * block_size; }
  friend bool operator==(const BlockRun&, const BlockRun&) = default;
};

class BufferCache {
 public:
  BufferCache(const CacheParams& params, CacheMetrics& metrics);

  struct ReadPlan {
    bool space_wait = false;   ///< no allocatable space: retry after a flush
    bool bypass = false;       ///< request larger than the cache: go direct
    bool full_hit = false;     ///< served entirely from cache
    bool readahead_hit = false;  ///< some touched block arrived via prefetch
    std::vector<BlockRun> fetch_runs;        ///< fetches this request starts
    std::vector<std::uint64_t> join_ops;     ///< in-flight fetches to wait on
    std::optional<BlockRun> readahead;       ///< suggested sequential prefetch
  };

  struct WritePlan {
    bool space_wait = false;
    bool bypass = false;
    bool absorbed = false;                   ///< write-behind: returns immediately
    std::vector<BlockRun> writethrough_runs; ///< must reach disk before returning
  };

  /// Plans a read. On success, missing blocks are inserted in Fetching
  /// state; the blocks of fetch_runs[i] are tagged with operation id
  /// `first_op_id + i`, and the caller must issue run i under exactly that
  /// id so later requests can join it. No state is modified when space_wait
  /// or bypass is returned.
  [[nodiscard]] ReadPlan plan_read(std::uint32_t pid, std::uint32_t file, Bytes offset,
                                   Bytes length, std::uint64_t first_op_id);

  /// Plans a write. Under write-behind the data lands dirty in the cache
  /// (stamped with `now` for delayed-write age policies); otherwise blocks
  /// enter Flushing state and the caller must issue the write-through runs.
  [[nodiscard]] WritePlan plan_write(std::uint32_t pid, std::uint32_t file, Bytes offset,
                                     Bytes length, std::uint64_t op_id, bool write_behind,
                                     Ticks now = Ticks::zero());

  /// Attempts to start the suggested prefetch. Never waits: returns nullopt
  /// when blocks are already present/in-flight or space is unavailable.
  [[nodiscard]] std::optional<BlockRun> try_issue_readahead(std::uint32_t pid,
                                                            const BlockRun& candidate,
                                                            std::uint64_t op_id);

  /// Marks a completed demand/readahead fetch: Fetching -> Clean.
  void fetch_complete(const BlockRun& run);

  /// Marks a completed flush or write-through: Flushing -> Clean.
  void flush_complete(const BlockRun& run);

  /// Collects up to `max_blocks` dirty blocks into contiguous runs (each at
  /// most `max_run_blocks` long; <=0 means unlimited) and marks them
  /// Flushing; the caller issues the disk writes. With `min_age` > 0 only
  /// blocks dirtied at or before `now - min_age` are taken — the Sprite-style
  /// delayed-write policy of Section 2.1 (pass min_age zero to force a full
  /// flush under space pressure).
  [[nodiscard]] std::vector<BlockRun> collect_flush_batch(std::int64_t max_blocks,
                                                          std::int64_t max_run_blocks = 0,
                                                          Ticks now = Ticks::zero(),
                                                          Ticks min_age = Ticks::zero());

  /// Drops every block of `file` (close-and-delete): clean/fetched data is
  /// discarded, dirty blocks are cancelled before ever reaching the disk —
  /// the temporary-file savings delayed writes exist for. Blocks currently
  /// Fetching or Flushing are left to complete. Returns the number of dirty
  /// blocks whose writes were avoided.
  std::int64_t invalidate_file(std::uint32_t file);

  [[nodiscard]] std::int64_t dirty_block_count() const { return dirty_count_; }
  [[nodiscard]] std::int64_t clean_block_count() const { return clean_count_; }
  [[nodiscard]] bool over_watermark() const;
  [[nodiscard]] Bytes block_size() const { return params_.block_size; }
  [[nodiscard]] std::int64_t capacity_blocks() const { return capacity_blocks_; }
  [[nodiscard]] std::int64_t resident_blocks() const { return live_count_; }
  [[nodiscard]] std::int64_t owned_blocks(std::uint32_t pid) const;

  /// Walks every list and the index and checks the bookkeeping against the
  /// counters. Returns an empty string when consistent, else a description
  /// of the first violation. O(pool size): meant for tests, not hot paths.
  [[nodiscard]] std::string check_invariants() const;

 private:
  enum class State : std::uint8_t { kClean, kDirty, kFetching, kFlushing };

  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Block {
    std::uint64_t key = 0;         ///< file<<32 | block while live
    std::uint64_t op_id = 0;       ///< fetch op while Fetching
    Ticks dirty_since;             ///< when the block was last made dirty
    std::uint32_t owner = 0;
    // Intrusive list links (slot indices): the clean-LRU list while Clean,
    // the key-ordered dirty list while Dirty (the states are disjoint, so
    // one pair of links serves both) — and the slot doubles as the
    // free-list node via lru_next when dead.
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
    // Per-owner clean-list links, maintained only under a per-process cap.
    std::uint32_t own_prev = kNil;
    std::uint32_t own_next = kNil;
    State state = State::kClean;
    bool live = false;
    bool from_readahead = false;   ///< fetched by prefetch, not yet referenced
    bool redirtied = false;        ///< written while Flushing
  };

  static std::uint64_t key_of(std::uint32_t file, std::int64_t block) {
    return (static_cast<std::uint64_t>(file) << 32) | static_cast<std::uint64_t>(block);
  }
  static std::uint32_t file_of(std::uint64_t key) { return static_cast<std::uint32_t>(key >> 32); }
  static std::int64_t block_of(std::uint64_t key) {
    return static_cast<std::int64_t>(key & 0xffffffffull);
  }

  [[nodiscard]] std::int64_t free_blocks() const { return capacity_blocks_ - live_count_; }
  /// Can `need` new blocks be produced (free + evictable clean)?
  [[nodiscard]] bool can_allocate(std::int64_t need, std::uint32_t pid) const;
  /// Makes room for one block (evicting the LRU clean block if needed) and
  /// inserts it; returns the slot. Pre-condition: can_allocate held for the
  /// whole batch.
  std::uint32_t insert_block(std::uint64_t key, State state, std::uint32_t pid,
                             std::uint64_t op_id, bool from_readahead);
  void evict_one(std::uint32_t prefer_owner);
  /// Looks up a live block slot; kNil when absent.
  [[nodiscard]] std::uint32_t find_slot(std::uint64_t key) const;
  void touch_clean(Block& block);
  void make_dirty(Block& block, std::uint32_t pid);
  /// Appends a Clean block at the MRU end of the intrusive list (and of its
  /// owner's clean list when capped).
  void lru_push_back(std::uint32_t slot);
  /// Unlinks a Clean block from the intrusive list (and from its owner's
  /// clean list when capped).
  void lru_unlink(std::uint32_t slot);
  /// Makes owners_[pid] addressable; every pid a block can be charged to
  /// passes through here on entry to a plan/readahead call.
  void add_owner(std::uint32_t pid) {
    if (pid >= owners_.size()) owners_.resize(std::size_t{pid} + 1);
  }
  /// Inserts a Dirty block into the intrusive dirty list at its ascending
  /// key position (sequential writes append in O(1) via the tail/hint
  /// checks) and bumps dirty_count_.
  void dirty_link(std::uint32_t slot);
  /// Unlinks a Dirty block from the intrusive dirty list and drops
  /// dirty_count_.
  void dirty_unlink(std::uint32_t slot);
  /// Releases a slot back to the free list (after index erase).
  void free_slot(std::uint32_t slot);
  [[nodiscard]] std::uint32_t slot_of(const Block& block) const {
    return static_cast<std::uint32_t>(&block - pool_.data());
  }

  CacheParams params_;
  CacheMetrics* metrics_;
  std::int64_t capacity_blocks_;
  std::int64_t cap_blocks_per_process_;  ///< 0 = unlimited
  std::vector<Block> pool_;              ///< slot storage, stable indices
  std::uint32_t free_head_ = kNil;       ///< free-list through lru_next
  util::FlatMap64<std::uint32_t> index_; ///< key -> slot
  std::uint32_t lru_head_ = kNil;        ///< clean blocks, LRU at head
  std::uint32_t lru_tail_ = kNil;        ///< MRU end
  std::int64_t clean_count_ = 0;
  std::int64_t live_count_ = 0;
  // Intrusive dirty list, ascending by key so flush batches form contiguous
  // runs. dirty_hint_ remembers the last insertion point: workloads with
  // write locality (the common case) link neighbors in O(1) instead of
  // walking from an end.
  std::uint32_t dirty_head_ = kNil;
  std::uint32_t dirty_tail_ = kNil;
  std::uint32_t dirty_hint_ = kNil;
  std::int64_t dirty_count_ = 0;
  struct Owner {
    std::int64_t owned = 0;           ///< blocks charged to this pid, any state
    // Clean blocks of this owner in LRU order (maintained only when capped).
    std::uint32_t clean_head = kNil;
    std::uint32_t clean_tail = kNil;
    std::int64_t clean = 0;
  };
  std::vector<Owner> owners_;            ///< indexed by pid
  // Per-file sequential detector for read-ahead.
  struct SeqState {
    Bytes last_end = -1;
    Bytes last_length = 0;
  };
  std::unordered_map<std::uint32_t, SeqState> sequential_;
};

}  // namespace craysim::sim
