// Open-addressing hash map keyed by uint64, tuned for the simulator hot
// paths (buffer-cache block index, in-flight I/O table).
//
// Compared to std::unordered_map this stores slots in one flat array (no
// per-node allocation) and probes linearly (cache-friendly). Erase uses
// backward-shift deletion: the entries after the hole that may legally move
// into it are shifted back, so the table never holds tombstones and a
// steady insert/erase workload — exactly what the cache and the in-flight
// table do millions of times per run — allocates only when the live
// population grows past the high-water mark.
//
// Contract: pointers returned by find()/emplace() are invalidated by any
// later emplace() (rehash) or erase() (backward shift moves other entries)
// — use them immediately, don't hold them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace craysim::util {

/// Finalizer of splitmix64: cheap, well-mixed 64-bit hash.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename V>
class FlatMap64 {
 public:
  FlatMap64() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Pre-sizes the table for `n` live entries without rehashing on the way.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;  // keep load factor <= 0.75
    if (cap > slots_.size()) rehash(cap);
  }

  [[nodiscard]] V* find(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key, mask);
    for (;;) {
      Slot& slot = slots_[i];
      if (slot.state == State::kEmpty) return nullptr;
      if (slot.key == key) return &slot.value;
      i = (i + 1) & mask;
    }
  }
  [[nodiscard]] const V* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }
  [[nodiscard]] bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// Inserts `key` if absent (value-initialized) and returns its value slot.
  V& emplace(std::uint64_t key) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key, mask);
    for (;;) {
      Slot& slot = slots_[i];
      if (slot.state == State::kEmpty) {
        slot.state = State::kFull;
        slot.key = key;
        slot.value = V{};
        ++size_;
        return slot.value;
      }
      if (slot.key == key) return slot.value;
      i = (i + 1) & mask;
    }
  }

  bool erase(std::uint64_t key) {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = home(key, mask);
    for (;;) {
      const Slot& slot = slots_[hole];
      if (slot.state == State::kEmpty) return false;
      if (slot.key == key) break;
      hole = (hole + 1) & mask;
    }
    // Backward shift: walk the cluster after the hole and move back every
    // entry whose home does not lie cyclically in (hole, j] — that entry's
    // probe sequence passes through the hole, so it may fill it. The moved
    // entry's old slot becomes the new hole; the cluster's end closes it.
    for (std::size_t j = (hole + 1) & mask; slots_[j].state == State::kFull; j = (j + 1) & mask) {
      const std::size_t dist_home = (j - home(slots_[j].key, mask)) & mask;
      const std::size_t dist_hole = (j - hole) & mask;
      if (dist_home >= dist_hole) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
    }
    slots_[hole].state = State::kEmpty;
    slots_[hole].value = V{};
    --size_;
    return true;
  }

 private:
  enum class State : std::uint8_t { kEmpty, kFull };
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    State state = State::kEmpty;
  };
  static constexpr std::size_t kMinCapacity = 16;

  static std::size_t home(std::uint64_t key, std::size_t mask) {
    return static_cast<std::size_t>(mix64(key)) & mask;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    const std::size_t mask = new_capacity - 1;
    for (Slot& slot : old) {
      if (slot.state != State::kFull) continue;
      std::size_t i = home(slot.key, mask);
      while (slots_[i].state == State::kFull) i = (i + 1) & mask;
      slots_[i].state = State::kFull;
      slots_[i].key = slot.key;
      slots_[i].value = std::move(slot.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace craysim::util
