#include "src/fs/block_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace sprite {
namespace {

CacheConfig SmallConfig(int64_t max_blocks = 4, int64_t min_blocks = 1) {
  CacheConfig c;
  c.max_blocks = max_blocks;
  c.min_blocks = min_blocks;
  return c;
}

class BlockCacheTest : public ::testing::Test {
 protected:
  CacheCounters counters_;
  std::vector<std::pair<BlockKey, int64_t>> writebacks_;

  // Returns the lambda itself, a temporary that lives through the call it
  // is passed to: a WritebackFn only refers to its callable.
  auto Sink() {
    return [this](BlockKey key, int64_t bytes) { writebacks_.emplace_back(key, bytes); };
  }
};

TEST_F(BlockCacheTest, StartsAtMinLimit) {
  BlockCache cache(SmallConfig(100, 7), &counters_);
  EXPECT_EQ(cache.limit_blocks(), 7);
  EXPECT_EQ(cache.block_count(), 0);
}

TEST_F(BlockCacheTest, LookupMissThenHit) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(4);
  const BlockKey key{1, 0};
  EXPECT_FALSE(cache.Lookup(key, 10));
  cache.InsertClean(key, 10, Sink());
  EXPECT_TRUE(cache.Lookup(key, 20));
  EXPECT_TRUE(cache.Contains(key));
}

TEST_F(BlockCacheTest, LruEvictionOrder) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(2);
  cache.InsertClean({1, 0}, 1, Sink());
  cache.InsertClean({1, 1}, 2, Sink());
  // Touch block 0 so block 1 becomes LRU.
  EXPECT_TRUE(cache.Lookup({1, 0}, 3));
  cache.InsertClean({1, 2}, 4, Sink());
  EXPECT_TRUE(cache.Contains({1, 0}));
  EXPECT_FALSE(cache.Contains({1, 1}));
  EXPECT_TRUE(cache.Contains({1, 2}));
  EXPECT_EQ(counters_.replaced_for_file, 1);
}

TEST_F(BlockCacheTest, ReplacementAgeRecorded) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(1);
  cache.InsertClean({1, 0}, 100, Sink());
  cache.InsertClean({1, 1}, 100 + kMinute, Sink());
  EXPECT_EQ(counters_.replaced_for_file, 1);
  EXPECT_EQ(counters_.replaced_for_file_age_us, kMinute);
}

TEST_F(BlockCacheTest, WriteMarksDirtyAndTracksExtent) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(4);
  const BlockKey key{1, 0};
  cache.Write(key, 10, 100, Sink());
  EXPECT_TRUE(cache.IsDirty(key));
  cache.Write(key, 20, 50, Sink());  // extent must not shrink
  cache.CleanFile(1, 30, CleanReason::kFsync, Sink());
  ASSERT_EQ(writebacks_.size(), 1u);
  EXPECT_EQ(writebacks_[0].second, 100);
}

TEST_F(BlockCacheTest, ExtentClampedToBlockSize) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(4);
  cache.Write({1, 0}, 10, 2 * kBlockSize, Sink());
  cache.CleanFile(1, 30, CleanReason::kFsync, Sink());
  ASSERT_EQ(writebacks_.size(), 1u);
  EXPECT_EQ(writebacks_[0].second, kBlockSize);
}

TEST_F(BlockCacheTest, WriteReturnsResidency) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(4);
  EXPECT_FALSE(cache.Write({1, 0}, 10, 10, Sink()));
  EXPECT_TRUE(cache.Write({1, 0}, 11, 20, Sink()));
}

TEST_F(BlockCacheTest, CleanAgedRespectsDelay) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  cache.Write({1, 0}, 0, 100, Sink());
  // At 29 s the block is not yet due.
  EXPECT_EQ(cache.CleanAged(29 * kSecond, Sink()), 0);
  EXPECT_TRUE(cache.IsDirty({1, 0}));
  // At 30 s it is.
  EXPECT_EQ(cache.CleanAged(30 * kSecond, Sink()), 1);
  EXPECT_FALSE(cache.IsDirty({1, 0}));
  EXPECT_EQ(counters_.cleaned[static_cast<int>(CleanReason::kDelay)], 1);
  EXPECT_EQ(counters_.cleaned_age_us[static_cast<int>(CleanReason::kDelay)], 30 * kSecond);
}

TEST_F(BlockCacheTest, CleanAgedFlushesWholeFile) {
  // "All dirty blocks for a file are written to the server if any block in
  // the file has been dirty for 30 seconds."
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  cache.Write({1, 0}, 0, 100, Sink());
  cache.Write({1, 1}, 25 * kSecond, 100, Sink());  // only 5 s dirty at the scan
  cache.Write({2, 0}, 25 * kSecond, 100, Sink());  // different file, not due
  EXPECT_EQ(cache.CleanAged(30 * kSecond, Sink()), 2);
  EXPECT_FALSE(cache.IsDirty({1, 1}));
  EXPECT_TRUE(cache.IsDirty({2, 0}));
}

TEST_F(BlockCacheTest, CleanFileReasonAttribution) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  cache.Write({1, 0}, 0, 100, Sink());
  cache.CleanFile(1, 5 * kSecond, CleanReason::kRecall, Sink());
  EXPECT_EQ(counters_.cleaned[static_cast<int>(CleanReason::kRecall)], 1);
  EXPECT_EQ(counters_.cleaned_age_us[static_cast<int>(CleanReason::kRecall)], 5 * kSecond);
  EXPECT_EQ(cache.CleanFile(1, 6 * kSecond, CleanReason::kRecall, Sink()), 0)
      << "second clean should find nothing dirty";
}

TEST_F(BlockCacheTest, HasDirtyBlocks) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  EXPECT_FALSE(cache.HasDirtyBlocks(1));
  cache.InsertClean({1, 0}, 0, Sink());
  EXPECT_FALSE(cache.HasDirtyBlocks(1));
  cache.Write({1, 1}, 0, 10, Sink());
  EXPECT_TRUE(cache.HasDirtyBlocks(1));
}

TEST_F(BlockCacheTest, InvalidateDropsBlocksAndCountsCancelledBytes) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  cache.Write({1, 0}, 0, 300, Sink());
  cache.InsertClean({1, 1}, 0, Sink());
  cache.InvalidateFile(1, 1);
  EXPECT_FALSE(cache.Contains({1, 0}));
  EXPECT_FALSE(cache.Contains({1, 1}));
  EXPECT_EQ(counters_.bytes_cancelled_before_writeback, 300);
  EXPECT_TRUE(writebacks_.empty()) << "invalidated dirty data must not reach the server";
}

TEST_F(BlockCacheTest, DirtyEvictionWritesBackFirst) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(1);
  cache.Write({1, 0}, 0, 200, Sink());
  cache.InsertClean({2, 0}, 1, Sink());
  ASSERT_EQ(writebacks_.size(), 1u);
  EXPECT_EQ(writebacks_[0].first, (BlockKey{1, 0}));
  EXPECT_EQ(writebacks_[0].second, 200);
  EXPECT_EQ(counters_.cleaned[static_cast<int>(CleanReason::kReplacement)], 1);
}

TEST_F(BlockCacheTest, ReleaseLruToVmShrinksLimit) {
  BlockCache cache(SmallConfig(8, 1), &counters_);
  cache.set_limit_blocks(4);
  cache.InsertClean({1, 0}, 0, Sink());
  cache.InsertClean({1, 1}, 1, Sink());
  EXPECT_TRUE(cache.ReleaseLruToVm(2, Sink()));
  EXPECT_EQ(cache.limit_blocks(), 3);
  EXPECT_FALSE(cache.Contains({1, 0}));
  EXPECT_EQ(counters_.replaced_for_vm, 1);
}

TEST_F(BlockCacheTest, ReleaseLruToVmStopsAtMinimum) {
  BlockCache cache(SmallConfig(8, 2), &counters_);
  cache.set_limit_blocks(2);
  cache.InsertClean({1, 0}, 0, Sink());
  EXPECT_FALSE(cache.ReleaseLruToVm(1, Sink()));
  EXPECT_TRUE(cache.Contains({1, 0}));
}

TEST_F(BlockCacheTest, ReleaseLruToVmCleansDirtyVictim) {
  BlockCache cache(SmallConfig(8, 1), &counters_);
  cache.set_limit_blocks(4);
  cache.Write({1, 0}, 0, 64, Sink());
  EXPECT_TRUE(cache.ReleaseLruToVm(1, Sink()));
  ASSERT_EQ(writebacks_.size(), 1u);
  EXPECT_EQ(counters_.cleaned[static_cast<int>(CleanReason::kVm)], 1);
}

TEST_F(BlockCacheTest, GrantPageFromVmGrowsLimit) {
  BlockCache cache(SmallConfig(8, 1), &counters_);
  cache.set_limit_blocks(2);
  cache.GrantPageFromVm();
  EXPECT_EQ(cache.limit_blocks(), 3);
}

TEST_F(BlockCacheTest, SyncVersionFlushesStaleBlocks) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  EXPECT_FALSE(cache.SyncVersion(1, 5, 0)) << "first contact is never stale";
  cache.InsertClean({1, 0}, 0, Sink());
  EXPECT_FALSE(cache.SyncVersion(1, 5, 1)) << "same version keeps blocks";
  EXPECT_TRUE(cache.Contains({1, 0}));
  EXPECT_TRUE(cache.SyncVersion(1, 6, 2)) << "newer version flushes";
  EXPECT_FALSE(cache.Contains({1, 0}));
}

TEST_F(BlockCacheTest, SyncVersionNoBlocksNoFlush) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.SyncVersion(1, 5, 0);
  EXPECT_FALSE(cache.SyncVersion(1, 7, 1)) << "no resident blocks -> nothing flushed";
}

TEST_F(BlockCacheTest, DemoteToLruTailEvictedFirst) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(2);
  cache.InsertClean({1, 0}, 0, Sink());
  cache.InsertClean({1, 1}, 1, Sink());
  // Block 1 is MRU; demote it so it becomes the replacement victim.
  cache.DemoteToLruTail({1, 1});
  cache.InsertClean({1, 2}, 2, Sink());
  EXPECT_TRUE(cache.Contains({1, 0}));
  EXPECT_FALSE(cache.Contains({1, 1}));
}

TEST_F(BlockCacheTest, OneInsertEvictingTwoDirtyBlocksKeepsTheCallersState) {
  // The writeback argument refers to the call-site lambda, so state the
  // lambda carries (a client's issue-time offset) runs through every
  // writeback of the insert.
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(3);
  cache.Write({1, 0}, 0, 100, Sink());
  cache.Write({1, 1}, 1, 200, Sink());
  cache.Write({1, 2}, 2, 300, Sink());
  cache.set_limit_blocks(2);  // one block over: the next insert evicts two
  std::vector<int64_t> offsets;
  cache.InsertClean({2, 0}, 3, [&offsets, offset = int64_t{0}](BlockKey, int64_t bytes) mutable {
    offsets.push_back(offset);
    offset += bytes;
  });
  EXPECT_EQ(offsets, (std::vector<int64_t>{0, 100}));
  EXPECT_EQ(cache.block_count(), 2);
}

TEST_F(BlockCacheTest, NullCountersSafe) {
  BlockCache cache(SmallConfig(), nullptr);
  cache.set_limit_blocks(1);
  cache.Write({1, 0}, 0, 100, Sink());
  cache.InsertClean({2, 0}, 1, Sink());  // forces dirty eviction
  cache.InvalidateFile(2, 2);
  EXPECT_EQ(cache.block_count(), 0);
}

TEST_F(BlockCacheTest, WritebackBytesCounted) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(8);
  cache.Write({1, 0}, 0, 1000, Sink());
  cache.Write({1, 1}, 0, kBlockSize, Sink());
  cache.CleanAged(30 * kSecond, Sink());
  EXPECT_EQ(counters_.bytes_written_to_server, 1000 + kBlockSize);
}

// --- Flush order and per-block visibility ------------------------------------

// Dirty blocks of file 1 written in scrambled order, then blocks 7 and 2
// evicted (their dirty-list slots swap-removed, so no accidental order
// survives). Leaves kRemaining dirty, each with extent 100 + block.
constexpr int64_t kScrambled[] = {7, 2, 9, 0, 5, 3, 8, 1, 6, 4};
const std::vector<int64_t> kRemaining = {0, 1, 3, 4, 5, 6, 8, 9};

class FlushOrderTest : public BlockCacheTest {
 protected:
  void Populate(BlockCache& cache) {
    cache.set_limit_blocks(10);
    SimTime t = 0;
    for (int64_t b : kScrambled) {
      cache.Write({1, b}, t++, 100 + b, Sink());
    }
    cache.DemoteToLruTail({1, 2});
    cache.DemoteToLruTail({1, 7});
    cache.InsertClean({2, 0}, t++, Sink());
    cache.InsertClean({2, 1}, t++, Sink());
    ASSERT_EQ(writebacks_.size(), 2u);
    EXPECT_EQ(writebacks_[0].first, (BlockKey{1, 7}));  // demoted last: the LRU tail
    EXPECT_EQ(writebacks_[1].first, (BlockKey{1, 2}));
    writebacks_.clear();
  }

  std::vector<int64_t> WrittenBlocks() const {
    std::vector<int64_t> blocks;
    for (const auto& [key, bytes] : writebacks_) {
      EXPECT_EQ(key.file, 1u);
      EXPECT_EQ(bytes, 100 + key.index);
      blocks.push_back(key.index);
    }
    return blocks;
  }
};

TEST_F(FlushOrderTest, CleanFileWritesAscending) {
  BlockCache cache(SmallConfig(16), &counters_);
  Populate(cache);
  cache.CleanFile(1, kMinute, CleanReason::kFsync, Sink());
  EXPECT_EQ(WrittenBlocks(), kRemaining);
}

TEST_F(FlushOrderTest, CleanAgedWritesAscending) {
  BlockCache cache(SmallConfig(16), &counters_);
  Populate(cache);
  EXPECT_EQ(cache.CleanAged(kMinute, Sink()), static_cast<int64_t>(kRemaining.size()));
  EXPECT_EQ(WrittenBlocks(), kRemaining);
}

TEST_F(FlushOrderTest, ForEachDirtyBlockVisitsAscending) {
  BlockCache cache(SmallConfig(16), &counters_);
  Populate(cache);
  cache.ForEachDirtyBlock(1, [this](int64_t block, int64_t extent) {
    writebacks_.emplace_back(BlockKey{1, block}, extent);
  });
  EXPECT_EQ(WrittenBlocks(), kRemaining);
  EXPECT_TRUE(cache.HasDirtyBlocks(1)) << "visiting must not clean";
}

TEST_F(FlushOrderTest, CallbackSeesExactlyTheUnwrittenBlocks) {
  // Each block turns clean right after its own writeback call: inside the
  // callback the block being written and every later one still count.
  BlockCache cache(SmallConfig(16), &counters_);
  Populate(cache);
  cache.set_limit_blocks(16);
  cache.Write({3, 0}, 0, 10, Sink());  // another dirty file, not flushed
  std::vector<int64_t> left = kRemaining;
  cache.CleanFile(1, kMinute, CleanReason::kFsync, [&](BlockKey key, int64_t) {
    ASSERT_EQ(key.index, left.front());
    const int64_t unwritten =
        std::accumulate(left.begin(), left.end(), int64_t{0},
                        [](int64_t sum, int64_t b) { return sum + 100 + b; });
    EXPECT_EQ(cache.DirtyBytes(1), unwritten);
    EXPECT_TRUE(cache.HasDirtyBlocks(1));
    EXPECT_EQ(cache.DirtyFiles(), (std::vector<uint64_t>{1, 3}));
    left.erase(left.begin());
  });
  EXPECT_TRUE(left.empty());
  EXPECT_FALSE(cache.HasDirtyBlocks(1));
  EXPECT_EQ(cache.DirtyBytes(1), 0);
  EXPECT_EQ(cache.DirtyFiles(), (std::vector<uint64_t>{3}));
}

TEST_F(BlockCacheTest, CrashResetReplaysNvramInAscendingOrder) {
  BlockCache cache(SmallConfig(16), &counters_);
  cache.set_limit_blocks(16);
  const BlockKey scrambled[] = {{9, 3}, {2, 5}, {9, 0}, {2, 1}, {4, 7}, {2, 3}};
  for (const BlockKey& key : scrambled) {
    cache.Write(key, 0, 10 * key.index + 1, Sink());
  }
  cache.InsertClean({5, 0}, 1, Sink());
  const auto [lost, recovered] = cache.CrashReset(Sink());
  EXPECT_EQ(lost, 0);
  const std::vector<std::pair<BlockKey, int64_t>> expected = {
      {{2, 1}, 11}, {{2, 3}, 31}, {{2, 5}, 51}, {{4, 7}, 71}, {{9, 0}, 1}, {{9, 3}, 31}};
  EXPECT_EQ(writebacks_, expected);
  EXPECT_EQ(recovered, 11 + 31 + 51 + 71 + 1 + 31);
  EXPECT_EQ(cache.block_count(), 0);
  EXPECT_TRUE(cache.DirtyFiles().empty());
}

// --- Re-entrant writeback callbacks --------------------------------------------
// Crash recovery runs nested inside whichever RPC sees a server reboot,
// including a writeback, and may drop or invalidate the file being flushed.

TEST_F(BlockCacheTest, CleanFileSurvivesWritebackThatDropsTheFile) {
  BlockCache cache(SmallConfig(16), &counters_);
  cache.set_limit_blocks(16);
  for (int64_t b = 0; b < 4; ++b) {
    cache.Write({1, b}, 0, 100, Sink());
  }
  int64_t dropped = 0;
  const int64_t bytes = cache.CleanFile(1, 1, CleanReason::kFsync, [&](BlockKey key, int64_t n) {
    writebacks_.emplace_back(key, n);
    dropped += cache.DropFile(1, 1);
  });
  ASSERT_EQ(writebacks_.size(), 1u) << "blocks dropped mid-flush are not written";
  EXPECT_EQ(writebacks_[0].first, (BlockKey{1, 0}));
  EXPECT_EQ(bytes, 100);
  EXPECT_EQ(dropped, 400) << "the block under writeback is still dirty inside its callback";
  EXPECT_EQ(cache.block_count(), 0);
  EXPECT_FALSE(cache.HasDirtyBlocks(1));
  EXPECT_TRUE(cache.DirtyFiles().empty());
}

TEST_F(BlockCacheTest, CleanAgedSurvivesWritebackThatDropsTheFile) {
  BlockCache cache(SmallConfig(16), &counters_);
  cache.set_limit_blocks(16);
  for (int64_t b = 0; b < 3; ++b) {
    cache.Write({1, b}, 0, 100, Sink());
    cache.Write({2, b}, 0, 200, Sink());
  }
  const int64_t cleaned = cache.CleanAged(kMinute, [&](BlockKey key, int64_t n) {
    writebacks_.emplace_back(key, n);
    if (key == BlockKey{1, 1}) {
      cache.InvalidateFile(1, kMinute);
    }
  });
  const std::vector<std::pair<BlockKey, int64_t>> expected = {
      {{1, 0}, 100}, {{1, 1}, 100}, {{2, 0}, 200}, {{2, 1}, 200}, {{2, 2}, 200}};
  EXPECT_EQ(writebacks_, expected) << "the other due file still flushes in order";
  EXPECT_EQ(cleaned, 5);
  EXPECT_EQ(counters_.bytes_cancelled_before_writeback, 200);
  EXPECT_EQ(cache.block_count(), 3);
  EXPECT_TRUE(cache.DirtyFiles().empty());
}

TEST_F(BlockCacheTest, FlushCleansABlockRewrittenUnderTheFilesNewState) {
  // The second writeback drops file 1, dirties a block of file 2 (whose new
  // state may take the freed one's memory) and writes file 1's block again:
  // the flush re-finds that block under file 1's new state and cleans it
  // there, leaving file 2 alone.
  BlockCache cache(SmallConfig(16), &counters_);
  cache.set_limit_blocks(16);
  for (int64_t b = 0; b < 4; ++b) {
    cache.Write({1, b}, 0, 100, Sink());
  }
  const int64_t bytes = cache.CleanFile(1, 1, CleanReason::kFsync, [&](BlockKey key, int64_t n) {
    writebacks_.emplace_back(key, n);
    if (key.index == 1) {
      cache.DropFile(1, 1);
      cache.Write({2, 0}, 1, 30, Sink());
      cache.Write({1, 1}, 1, 50, Sink());
    }
  });
  const std::vector<std::pair<BlockKey, int64_t>> expected = {{{1, 0}, 100}, {{1, 1}, 100}};
  EXPECT_EQ(writebacks_, expected);
  EXPECT_EQ(bytes, 200);
  EXPECT_EQ(cache.block_count(), 2);
  EXPECT_TRUE(cache.Contains({1, 1}));
  EXPECT_FALSE(cache.IsDirty({1, 1})) << "a block turns clean when its writeback returns";
  EXPECT_FALSE(cache.HasDirtyBlocks(1));
  EXPECT_TRUE(cache.IsDirty({2, 0}));
  EXPECT_EQ(cache.DirtyBytes(2), 30);
  EXPECT_EQ(cache.DirtyFiles(), (std::vector<uint64_t>{2}));
  // File 1's new state keeps working: another block dirties and flushes.
  writebacks_.clear();
  cache.Write({1, 2}, 2, 70, Sink());
  EXPECT_EQ(cache.DirtyFiles(), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(cache.CleanFile(1, 3, CleanReason::kFsync, Sink()), 70);
  ASSERT_EQ(writebacks_.size(), 1u);
  EXPECT_EQ(writebacks_[0].first, (BlockKey{1, 2}));
  EXPECT_EQ(cache.block_count(), 3);
}

TEST_F(BlockCacheTest, DirtyVictimEvictionSurvivesWritebackThatDropsTheFile) {
  BlockCache cache(SmallConfig(), &counters_);
  cache.set_limit_blocks(2);
  cache.Write({1, 0}, 0, 100, Sink());
  cache.Write({1, 1}, 1, 100, Sink());
  cache.InsertClean({2, 0}, 2, [&](BlockKey key, int64_t n) {
    writebacks_.emplace_back(key, n);
    cache.DropFile(1, 2);
  });
  ASSERT_EQ(writebacks_.size(), 1u);
  EXPECT_EQ(writebacks_[0].first, (BlockKey{1, 0}));
  EXPECT_EQ(counters_.cleaned[static_cast<int>(CleanReason::kReplacement)], 1);
  EXPECT_EQ(counters_.replaced_for_file, 0) << "a dropped victim was not replaced";
  EXPECT_TRUE(cache.Contains({2, 0}));
  EXPECT_EQ(cache.block_count(), 1);
  EXPECT_TRUE(cache.DirtyFiles().empty());
}

// --- Per-file block tables ------------------------------------------------------

TEST_F(BlockCacheTest, SlidingWindowKeepsTheFileTableNearTheWindowSize) {
  // A 1,024-block window slides up, then down, over 10^6 block indices of
  // one file: LRU evicts the block that leaves the window. The table must
  // follow the window, not the indices it has passed.
  constexpr int64_t kWindow = 1024;
  constexpr int64_t kBlocks = 1000000;
  BlockCache cache(SmallConfig(kWindow), &counters_);
  cache.set_limit_blocks(kWindow);
  int64_t peak_slots = 0;
  SimTime now = 0;
  // Inserts blocks `from`, `from + dir`, ... up to `to` (exclusive).
  auto slide = [&](int64_t from, int64_t to, int64_t dir) -> ::testing::AssertionResult {
    for (int64_t b = from; b != to; b += dir) {
      cache.InsertClean({1, b}, ++now, Sink());
      const int64_t slots = cache.TableSlots(1);
      peak_slots = std::max(peak_slots, slots);
      if (slots > 4 * kWindow) {
        return ::testing::AssertionFailure() << slots << " table slots at block " << b;
      }
      if (cache.block_count() == kWindow && cache.Contains({1, b - dir * kWindow})) {
        return ::testing::AssertionFailure() << "block " << b - dir * kWindow << " outlived the window";
      }
    }
    return ::testing::AssertionSuccess();
  };
  ASSERT_TRUE(slide(0, kBlocks, 1));
  EXPECT_TRUE(cache.Contains({1, kBlocks - kWindow}));
  EXPECT_EQ(cache.block_count(), kWindow);
  cache.InvalidateFile(1, ++now);
  EXPECT_EQ(cache.TableSlots(1), 0) << "the table goes with the file's last block";
  ASSERT_TRUE(slide(kBlocks - 1, -1, -1));
  EXPECT_TRUE(cache.Contains({1, kWindow - 1}));
  EXPECT_EQ(cache.block_count(), kWindow);
  EXPECT_GE(peak_slots, kWindow);
  EXPECT_EQ(counters_.replaced_for_file, 2 * (kBlocks - kWindow));
}

TEST_F(BlockCacheTest, TableIsFreedWithTheLastBlockButTheVersionStays) {
  BlockCache cache(SmallConfig(4), &counters_);
  cache.set_limit_blocks(2);
  cache.AdoptVersion(1, 7);
  cache.InsertClean({1, 100}, 0, Sink());
  cache.InsertClean({1, 5000}, 1, Sink());  // far apart: the table spans both
  EXPECT_GE(cache.TableSlots(1), 4901);
  cache.InsertClean({2, 0}, 2, Sink());  // evicts block 100: the front is trimmed
  EXPECT_LE(cache.TableSlots(1), 2);
  cache.InsertClean({2, 1}, 3, Sink());  // evicts block 5000, file 1's last
  EXPECT_EQ(cache.TableSlots(1), 0);
  EXPECT_EQ(cache.CachedVersion(1), 7u);
  EXPECT_FALSE(cache.SyncVersion(1, 8, 4)) << "no blocks left to flush";
}

}  // namespace
}  // namespace sprite
