// Property tests for the file-system substrate: random create / grow /
// translate / remove sequences must preserve the allocator's invariants.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "fs/file_system.hpp"
#include "util/rng.hpp"

namespace craysim::fs {
namespace {

struct LiveFile {
  FileId id;
  Bytes touched = 0;
};

class FsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FsProperty, RandomWorkloadKeepsInvariants) {
  Rng rng(GetParam());
  const auto policy = static_cast<PlacementPolicy>(GetParam() % 3);
  FsOptions options;
  options.placement = policy;
  options.extent_size = 128 * kKiB;
  FileSystem fs(DiskLayout::uniform(4, Bytes{8} * kMiB), options);
  const Bytes total = fs.layout().total_capacity();

  std::vector<LiveFile> live;
  int created = 0;
  for (int step = 0; step < 400; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.4 || live.empty()) {
      // Create or grow.
      if (live.empty() || rng.chance(0.3)) {
        LiveFile file;
        file.id = fs.create(std::string("p")
                                .append(std::to_string(GetParam()))
                                .append("-")
                                .append(std::to_string(created++)));
        live.push_back(file);
      }
      LiveFile& target = live[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
      const Bytes offset = rng.uniform_int(0, 512 * 1024);
      const Bytes length = rng.uniform_int(1, 512 * 1024);
      if (fs.free_bytes() < length + offset + 2 * options.extent_size) continue;
      const auto ranges = fs.translate(target.id, offset, length);
      // Translation must cover the block-widened request exactly.
      Bytes covered = 0;
      for (const auto& r : ranges) {
        EXPECT_GT(r.block_count, 0);
        EXPECT_LT(r.disk, fs.layout().disk_count());
        covered += r.block_count * fs.block_size();
      }
      const Bytes bs = fs.block_size();
      const Bytes expected =
          ((offset + length + bs - 1) / bs) * bs - (offset / bs) * bs;
      EXPECT_EQ(covered, expected);
      target.touched = std::max(target.touched, offset + length);
    } else if (roll < 0.7 && !live.empty()) {
      // Remove a random file.
      const auto index = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      fs.remove(live[index].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
    } else if (!live.empty()) {
      // Re-translate an already touched range: must not allocate more.
      const LiveFile& target = live[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
      if (target.touched == 0) continue;
      const std::size_t extents_before = fs.extent_count(target.id);
      (void)fs.translate(target.id, 0, std::min<Bytes>(target.touched, 1024));
      EXPECT_EQ(fs.extent_count(target.id), extents_before);
    }

    // Global invariant: used + free == capacity; used equals the sum of
    // live extents.
    EXPECT_EQ(fs.used_bytes() + fs.free_bytes(), total);
    Bytes live_extents = 0;
    for (const auto& file : live) {
      live_extents += static_cast<Bytes>(fs.extent_count(file.id)) * options.extent_size;
    }
    EXPECT_EQ(fs.used_bytes(), live_extents);
  }

  // No two live extents may overlap on disk.
  std::map<DiskId, std::vector<std::pair<std::int64_t, std::int64_t>>> by_disk;
  for (const auto& file : live) {
    for (const auto& extent : fs.inode(file.id).extents) {
      by_disk[extent.disk].push_back({extent.start_block, extent.block_count});
    }
  }
  for (auto& [disk, extents] : by_disk) {
    std::sort(extents.begin(), extents.end());
    for (std::size_t i = 1; i < extents.size(); ++i) {
      EXPECT_LE(extents[i - 1].first + extents[i - 1].second, extents[i].first)
          << "overlapping extents on disk " << disk;
    }
  }

  // Removing everything must return the farm to pristine state.
  for (const auto& file : live) fs.remove(file.id);
  EXPECT_EQ(fs.free_bytes(), total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9));

}  // namespace
}  // namespace craysim::fs
