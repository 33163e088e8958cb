// The block buffer cache of Section 6: LRU replacement, read-ahead,
// write-behind, and optional per-process ownership caps.
//
// The cache is pure bookkeeping — it never advances time. The simulator asks
// it to *plan* each read/write; the plan says which block runs must move
// to/from the disk and which in-flight operations the request must join.
// Completion notifications flow back through fetch_complete/flush_complete.
//
// Storage layout: the programs of the paper move data in long sequential
// runs of constant-size requests (§5.2), so cache state is kept per extent,
// not per block. An extent is a run of blocks of one file that share a
// state, an owner, a fetch op id, a dirty stamp and the read-ahead and
// redirtied flags; all of its blocks behave alike under every operation.
// Extents live in a slot pool (stable indices, free-list recycled) and an
// ordered index keyed by (file, last block), so one lookup finds the extent
// that holds a block or the next one after it. Every plan, completion,
// flush and eviction costs O(extents it touches), however many blocks those
// hold. An extent is split only where an operation treats its blocks
// differently: a partial hit or overwrite, an eviction, a flush batch or
// run limit, a differing dirty stamp. Neighbours that come to agree again
// are merged when they meet at the clean MRU end or in the dirty list.
//
// Observable behaviour is that of a per-block LRU cache (the naive model of
// tests/sim_cache_model_test.cpp agrees op for op):
//  * The clean list is an LRU of extents; the blocks of one extent are
//    consecutive in LRU order, oldest first. Hits are touched to MRU in
//    ascending block order while a read is planned; fetched blocks reach MRU
//    at fetch_complete and write-through blocks at flush_complete.
//  * Each inserted block evicts one clean block (the LRU one, or, over a
//    per-process cap, the owner's LRU one) in ascending block order within a
//    request. Evicting trims the head of the victim extent, so one step
//    frees any number of blocks in O(1). A request's segments are classified
//    only after the evictions of the segments before them, so an insert can
//    evict a later, not yet visited block of the same request, which is then
//    re-fetched. A plan that would have to evict from an empty clean list is
//    undone and waits for space.
//  * The dirty list holds Dirty extents in ascending (file, block) order, so
//    collect_flush_batch emits contiguous runs straight from it.
//  * Under a per-process cap each owner also threads its clean extents into
//    its own list, in LRU order: its head is the owner-preferred victim, O(1).
//    An extent's owner only changes while it is off the clean list, so the
//    lists never need re-threading. Per-owner records live in a pid-indexed
//    vector; pids are small and dense.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/params.hpp"
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
  /// Every resident block, in any state, as maximal runs in ascending
  /// (file, block) order. For tests and diagnostics.
  [[nodiscard]] std::vector<BlockRun> resident_runs() const;

  /// Walks every list and the index and checks the bookkeeping against the
  /// counters: extents do not overlap and are indexed in key order, and the
  /// block counts of the lists and extents add up. Returns an empty string
  /// when consistent, else a description of the first violation. O(pool
  /// size): meant for tests, not hot paths.
  [[nodiscard]] std::string check_invariants() const;

 private:
  enum class State : std::uint8_t { kClean, kDirty, kFetching, kFlushing };

  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Extent {
    std::int64_t first = 0;        ///< first block
    std::int64_t count = 0;        ///< blocks, >= 1 while live
    std::uint64_t op_id = 0;       ///< fetch op while Fetching
    Ticks dirty_since;             ///< when the blocks were last made dirty
    std::uint32_t file = 0;
    std::uint32_t owner = 0;
    // Intrusive list links (slot indices): the clean LRU while Clean, the
    // key-ordered dirty list while Dirty (the states are disjoint, so one
    // pair of links serves both) — and the free list through `next` when
    // dead.
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    // Per-owner clean-list links, maintained only under a per-process cap.
    std::uint32_t own_prev = kNil;
    std::uint32_t own_next = kNil;
    State state = State::kClean;
    bool live = false;
    bool from_readahead = false;   ///< fetched by prefetch, not yet referenced
    bool redirtied = false;        ///< written while Flushing

    [[nodiscard]] std::int64_t end() const { return first + count; }
  };

  using Index = std::map<std::uint64_t, std::uint32_t>;  ///< (file, last block) -> slot

  static std::uint64_t key_of(std::uint32_t file, std::int64_t block) {
    return (static_cast<std::uint64_t>(file) << 32) | static_cast<std::uint64_t>(block);
  }
  static std::uint32_t file_of(std::uint64_t key) { return static_cast<std::uint32_t>(key >> 32); }

  [[nodiscard]] std::int64_t free_blocks() const { return capacity_blocks_ - live_count_; }
  /// Can `need` new blocks be produced (free + evictable clean)? `leaving`
  /// present Clean blocks (`own_leaving` of them pid's) leave the clean
  /// list during the same plan, so they cannot be evicted to make room.
  [[nodiscard]] bool can_allocate(std::int64_t need, std::uint32_t pid, std::int64_t leaving = 0,
                                  std::int64_t own_leaving = 0) const;
  /// True when a plan inserting `need` blocks over `present_clean` present
  /// Clean ones can never find the clean list empty when it must evict.
  [[nodiscard]] bool room_is_certain(std::int64_t need, std::uint32_t pid,
                                     std::int64_t present_clean) const;
  /// Rolls back a plan that ran out of evictable blocks.
  void restore(BufferCache&& saved, const CacheMetrics& metrics);

  /// The first extent of `file` whose last block is >= `block`: the one
  /// holding `block`, or else the next one after it (end() or another file
  /// when none).
  [[nodiscard]] Index::const_iterator seek(std::uint32_t file, std::int64_t block) const {
    return index_.lower_bound(key_of(file, block));
  }
  /// The slot of the extent holding (file, block), or kNil; `gap_end` gets
  /// the first present block after it (`limit` at most) when absent.
  [[nodiscard]] std::uint32_t find(std::uint32_t file, std::int64_t block, std::int64_t limit,
                                   std::int64_t& gap_end) const;
  /// Makes room for `need` inserted blocks charged to `pid`, performing the
  /// evictions a per-block insert loop would, in the same order. False when
  /// an eviction found the clean list empty (the caller undoes the plan).
  bool make_room(std::int64_t need, std::uint32_t pid);
  /// Evicts the first `n` blocks of clean extent `slot`.
  void evict_head(std::uint32_t slot, std::int64_t n);
  /// Creates an extent for [first, first + count) of `file` (already
  /// charged by make_room) and links it into its state's list.
  void insert_extent(std::uint32_t file, std::int64_t first, std::int64_t count, State state,
                     std::uint32_t owner, std::uint64_t op_id, bool from_readahead,
                     Ticks dirty_since);
  /// Splits extent `slot` so that one extent covers exactly
  /// [first, end) ∩ the extent; returns its slot. The parts keep their
  /// place in every list.
  std::uint32_t isolate(std::uint32_t slot, std::int64_t first, std::int64_t end);
  /// Splits the blocks before `at` off extent `slot` as a new extent just
  /// before it in its list; returns the new slot.
  std::uint32_t split_before(std::uint32_t slot, std::int64_t at);
  std::uint32_t alloc_slot();
  /// Unindexes and frees an extent that is on no list.
  void erase_extent(std::uint32_t slot);
  /// Appends a Clean extent at the MRU end of the clean list (and of its
  /// owner's clean list when capped), merging it into the MRU extent when
  /// that one continues it.
  void clean_push_back(std::uint32_t slot);
  void clean_unlink(std::uint32_t slot);
  /// Links a Dirty extent into the dirty list at its key position
  /// (sequential writes append in O(1) via the tail/hint checks) and merges
  /// it with key-adjacent neighbours that share its owner and stamp.
  void dirty_link(std::uint32_t slot);
  void dirty_unlink(std::uint32_t slot);
  /// Merges Dirty extent `slot` with its dirty-list neighbours when they
  /// continue it with the same owner and stamp; returns the surviving slot.
  std::uint32_t dirty_coalesce(std::uint32_t slot);
  /// Folds extent `left` (on the same list, ending where `right` starts)
  /// into `right`.
  void absorb(std::uint32_t left, std::uint32_t right);
  /// Makes owners_[pid] addressable; every pid a block can be charged to
  /// passes through here on entry to a plan/readahead call.
  void add_owner(std::uint32_t pid) {
    if (pid >= owners_.size()) owners_.resize(std::size_t{pid} + 1);
  }

  CacheParams params_;
  CacheMetrics* metrics_;
  std::int64_t capacity_blocks_;
  std::int64_t cap_blocks_per_process_;  ///< 0 = unlimited
  std::vector<Extent> pool_;             ///< slot storage, stable indices
  std::uint32_t free_head_ = kNil;       ///< free list through next
  Index index_;
  std::uint32_t clean_head_ = kNil;      ///< clean extents, LRU at head
  std::uint32_t clean_tail_ = kNil;      ///< MRU end
  std::int64_t clean_count_ = 0;         ///< blocks
  std::int64_t live_count_ = 0;          ///< blocks
  // Dirty extents, ascending by key. dirty_hint_ remembers the last
  // insertion point: workloads with write locality link neighbours in O(1)
  // instead of walking from an end.
  std::uint32_t dirty_head_ = kNil;
  std::uint32_t dirty_tail_ = kNil;
  std::uint32_t dirty_hint_ = kNil;
  std::int64_t dirty_count_ = 0;         ///< blocks
  struct Owner {
    std::int64_t owned = 0;           ///< blocks charged to this pid, any state
    // Clean extents of this owner in LRU order (maintained only when capped).
    std::uint32_t clean_head = kNil;
    std::uint32_t clean_tail = kNil;
    std::int64_t clean = 0;           ///< blocks
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
