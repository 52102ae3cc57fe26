// BlockCache at server scale against a reference model: a std::map of the
// resident blocks and a std::list for LRU order. Each seeded run fills the
// cache past 32,768 blocks, churns, crashes and fills again; random churn
// inserts, dirties, cleans, drops, evicts and demotes blocks throughout.
// Two key shapes drive it. `Seeds` spreads short runs over 4,000 small
// files, so per-file tables are small and files come and go. `LongFiles`
// keeps a drifting set of hot files among 96 of up to 4,096 blocks, walks
// its runs down as well as up, and gives some files blocks far beyond the
// rest: tables grow at the front, are trimmed as their files cool, and are
// freed with their last block. Every table must stay within four slots per
// block of its file's resident span.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <map>
#include <ostream>
#include <utility>
#include <vector>

#include "src/fs/block_cache.h"
#include "src/util/rng.h"

namespace sprite {
namespace {

using Key = std::pair<uint64_t, int64_t>;  // (file, block), ordered

// The cache as the contract describes it: LRU replacement, dirty victims
// written back before they go, whole-file flushes in ascending block order.
class ReferenceCache {
 public:
  struct Block {
    std::list<Key>::iterator lru;  // position in `lru_`, front = most recent
    int64_t extent = 0;            // dirty extent; 0 while clean
    bool dirty = false;
    bool prefetched = false;
  };

  ReferenceCache(int64_t min_blocks, int64_t limit) : min_blocks_(min_blocks), limit_(limit) {}

  const std::map<Key, Block>& blocks() const { return blocks_; }
  int64_t limit() const { return limit_; }
  void GrantPage() { ++limit_; }

  bool Lookup(Key key, int64_t* useful) {
    auto it = blocks_.find(key);
    if (it == blocks_.end()) {
      return false;
    }
    if (it->second.prefetched) {
      it->second.prefetched = false;
      ++*useful;
    }
    Touch(it);
    return true;
  }

  // Inserts or touches `key`; appends each LRU victim to `victims` and each
  // dirty victim's writeback to `written`. Returns true if it was resident.
  bool Insert(Key key, std::vector<Key>* victims, std::vector<std::pair<Key, int64_t>>* written,
              bool prefetched = false) {
    auto it = blocks_.find(key);
    if (it != blocks_.end()) {
      Touch(it);
      return true;
    }
    while (static_cast<int64_t>(blocks_.size()) >= limit_ && !lru_.empty()) {
      victims->push_back(lru_.back());
      Evict(lru_.back(), written);
    }
    lru_.push_front(key);
    blocks_[key] = Block{lru_.begin(), 0, false, prefetched};
    return false;
  }

  bool Write(Key key, int64_t end, std::vector<Key>* victims,
             std::vector<std::pair<Key, int64_t>>* written) {
    const bool resident = Insert(key, victims, written);
    Block& block = blocks_.at(key);
    block.dirty = true;
    block.extent = std::clamp<int64_t>(end, block.extent, kBlockSize);
    return resident;
  }

  // Cleans every dirty block of `file` in ascending order; returns bytes.
  int64_t CleanFile(uint64_t file, std::vector<std::pair<Key, int64_t>>* written) {
    int64_t bytes = 0;
    for (auto it = FileBegin(file); it != blocks_.end() && it->first.first == file; ++it) {
      if (it->second.dirty) {
        written->emplace_back(it->first, it->second.extent);
        bytes += it->second.extent;
        it->second.dirty = false;
        it->second.extent = 0;
      }
    }
    return bytes;
  }

  // Drops every block of `file`; returns the dirty bytes dropped.
  int64_t DropFile(uint64_t file) {
    int64_t bytes = 0;
    for (auto it = FileBegin(file); it != blocks_.end() && it->first.first == file;) {
      bytes += it->second.extent;
      lru_.erase(it->second.lru);
      it = blocks_.erase(it);
    }
    return bytes;
  }

  // Blocks from the lowest resident block of `file` to its highest; 0 if
  // none is resident.
  int64_t Span(uint64_t file) const {
    auto first = FileBegin(file);
    if (first == blocks_.end() || first->first.first != file) {
      return 0;
    }
    auto last = std::prev(blocks_.lower_bound({file + 1, INT64_MIN}));
    return last->first.second - first->first.second + 1;
  }

  int64_t DirtyBytes(uint64_t file) const {
    int64_t bytes = 0;
    for (auto it = FileBegin(file); it != blocks_.end() && it->first.first == file; ++it) {
      bytes += it->second.extent;
    }
    return bytes;
  }

  // Returns the victim, or nothing if the cache may not shrink.
  bool ReleaseLru(Key* victim, std::vector<std::pair<Key, int64_t>>* written) {
    if (lru_.empty() || limit_ <= min_blocks_) {
      return false;
    }
    *victim = lru_.back();
    Evict(*victim, written);
    --limit_;
    return true;
  }

  void Demote(Key key) {
    auto it = blocks_.find(key);
    if (it != blocks_.end()) {
      lru_.splice(lru_.end(), lru_, it->second.lru);
    }
  }

  // Every dirty block in ascending (file, block) order, then the reset.
  std::vector<std::pair<Key, int64_t>> Crash() {
    std::vector<std::pair<Key, int64_t>> dirty;
    for (const auto& [key, block] : blocks_) {
      if (block.dirty) {
        dirty.emplace_back(key, block.extent);
      }
    }
    blocks_.clear();
    lru_.clear();
    limit_ = min_blocks_;
    return dirty;
  }

 private:
  std::map<Key, Block>::const_iterator FileBegin(uint64_t file) const {
    return blocks_.lower_bound({file, INT64_MIN});
  }
  std::map<Key, Block>::iterator FileBegin(uint64_t file) {
    return blocks_.lower_bound({file, INT64_MIN});
  }

  void Touch(std::map<Key, Block>::iterator it) {
    lru_.splice(lru_.begin(), lru_, it->second.lru);
  }

  void Evict(Key key, std::vector<std::pair<Key, int64_t>>* written) {
    auto it = blocks_.find(key);
    if (it->second.dirty) {
      written->emplace_back(key, it->second.extent);
    }
    lru_.erase(it->second.lru);
    blocks_.erase(it);
  }

  int64_t min_blocks_;
  int64_t limit_;
  std::map<Key, Block> blocks_;
  std::list<Key> lru_;
};

enum class KeyShape {
  kShortFiles,  // 4,000 files, blocks below 48, runs walk up
  kLongFiles,   // 96 files of up to 4,096 blocks (some with far-apart ones)
};

struct IndexParam {
  KeyShape shape;
  uint64_t seed;
};

// Names each case by its seed; the instantiation's prefix names the shape.
void PrintTo(const IndexParam& param, std::ostream* os) { *os << param.seed; }

class BlockIndexProperty : public ::testing::TestWithParam<IndexParam> {};

TEST_P(BlockIndexProperty, ServerScaleChurnMatchesReferenceModel) {
  constexpr int64_t kMinBlocks = 33000;  // above 32,768 whenever full
  constexpr int64_t kStartLimit = 34000;
  constexpr int kSweepEvery = 20000;
  const bool long_files = GetParam().shape == KeyShape::kLongFiles;
  const int steps = long_files ? 60000 : 120000;
  const uint64_t files = long_files ? 96 : 4000;
  const int64_t blocks_per_file = long_files ? 4096 : 48;
  const uint64_t max_run = long_files ? 32 : 16;
  CacheConfig config;
  config.min_blocks = kMinBlocks;
  config.max_blocks = 2 * kStartLimit;
  CacheCounters counters;
  BlockCache cache(config, &counters);
  cache.set_limit_blocks(kStartLimit);
  ReferenceCache ref(kMinBlocks, kStartLimit);
  Rng rng(GetParam().seed);

  std::vector<std::pair<Key, int64_t>> written;  // the cache's writebacks this step
  const auto sink = [&written](BlockKey key, int64_t bytes) {
    written.emplace_back(Key{key.file, key.index}, bytes);
  };
  // File ids far apart, as the workload's per-user id ranges are, so the
  // per-file map hashes more than small consecutive integers.
  auto file_id = [](uint64_t f) { return (f % 64) << 32 | (f / 64) * 7919; };
  std::vector<Key> recent(256);  // recently used keys, so lookups also hit
  int step = 0;
  auto pick = [&] {
    if (rng.NextBool(0.25)) {
      return recent[rng.NextBelow(recent.size())];
    }
    if (!long_files) {
      return Key{file_id(rng.NextBelow(files)),
                 static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(blocks_per_file)))};
    }
    // 24 hot files at a time, drifting, so cold files lose every block. One
    // file in eight also holds blocks tens of thousands past the rest.
    const uint64_t f = (static_cast<uint64_t>(step) / 1000 + rng.NextBelow(24)) % files;
    const bool far = f % 8 == 0 && rng.NextBool(0.03);
    return Key{file_id(f), far ? blocks_per_file + static_cast<int64_t>(rng.NextBelow(1 << 16))
                               : static_cast<int64_t>(rng.NextBelow(
                                     static_cast<uint64_t>(blocks_per_file)))};
  };

  // The table of an absent file is freed; a resident file's stays within
  // four slots per block of its span.
  auto check_table = [&](uint64_t file) {
    const int64_t span = ref.Span(file);
    if (span == 0) {
      ASSERT_EQ(cache.TableSlots(file), 0) << "file " << file;
    } else {
      ASSERT_LE(cache.TableSlots(file), 4 * span) << "file " << file;
    }
  };
  auto check_key = [&](Key key) {
    auto it = ref.blocks().find(key);
    const BlockKey k{key.first, key.second};
    ASSERT_EQ(cache.Contains(k), it != ref.blocks().end());
    ASSERT_EQ(cache.IsDirty(k), it != ref.blocks().end() && it->second.dirty);
  };
  auto sweep = [&] {
    int64_t files_checked = 0;
    uint64_t last_file = UINT64_MAX;
    for (const auto& [key, block] : ref.blocks()) {
      ASSERT_NO_FATAL_FAILURE(check_key(key));
      if (key.first != last_file) {
        last_file = key.first;
        ASSERT_EQ(cache.DirtyBytes(key.first), ref.DirtyBytes(key.first));
        ASSERT_NO_FATAL_FAILURE(check_table(key.first));
        ++files_checked;
      }
    }
    for (int i = 0; i < 2000; ++i) {
      ASSERT_NO_FATAL_FAILURE(check_key(pick()));  // mostly absent
    }
    ASSERT_EQ(files_checked > 0, !ref.blocks().empty());
  };

  int64_t peak = 0;
  bool at_scale = false;  // since the last crash reset
  int64_t useful = 0;
  int64_t fetches = 0;
  SimTime now = 0;
  for (; step < steps; ++step) {
    now += kMillisecond;
    const Key key = pick();
    recent[rng.NextBelow(recent.size())] = key;
    // Reads and writes touch a sequential run of blocks, as the workload's
    // do; every other operation touches the one block `key`. Long-file runs
    // walk down from key + run - 1 to key half the time.
    int64_t run = 1;
    const bool down = long_files && rng.NextBool(0.5);
    auto offset = [&run, down](int64_t b) { return down ? run - 1 - b : b; };
    auto block = [&](int64_t b) { return Key{key.first, key.second + offset(b)}; };
    auto cache_block = [&](int64_t b) { return BlockKey{key.first, key.second + offset(b)}; };
    std::vector<Key> victims;
    // Each victim is gone right after the call that evicted it; a later
    // block of the same run may bring it back.
    auto check_victims = [&] {
      for (const Key& victim : victims) {
        ASSERT_FALSE(cache.Contains({victim.first, victim.second})) << "victim still resident";
      }
      victims.clear();
    };
    std::vector<std::pair<Key, int64_t>> expected;
    written.clear();
    const uint64_t op = rng.NextBelow(1000);
    if (op < 200) {
      run = 1 + static_cast<int64_t>(rng.NextBelow(max_run));
      for (int64_t b = 0; b < run; ++b) {
        ASSERT_EQ(cache.Lookup(cache_block(b), now), ref.Lookup(block(b), &useful))
            << "step " << step;
      }
    } else if (op < 450) {
      run = 1 + static_cast<int64_t>(rng.NextBelow(max_run));
      for (int64_t b = 0; b < run; ++b) {
        cache.InsertClean(cache_block(b), now, sink);
        ref.Insert(block(b), &victims, &expected);
        ASSERT_NO_FATAL_FAILURE(check_victims()) << "step " << step;
      }
    } else if (op < 550) {
      run = 1 + static_cast<int64_t>(rng.NextBelow(max_run));
      for (int64_t b = 0; b < run; ++b) {
        cache.InsertPrefetched(cache_block(b), now, sink);
        if (!ref.Insert(block(b), &victims, &expected, /*prefetched=*/true)) {
          ++fetches;
        }
        ASSERT_NO_FATAL_FAILURE(check_victims()) << "step " << step;
      }
    } else if (op < 800) {
      run = 1 + static_cast<int64_t>(rng.NextBelow(max_run));
      for (int64_t b = 0; b < run; ++b) {
        const int64_t end =
            1 + static_cast<int64_t>(rng.NextBelow(kBlockSize + kBlockSize / 4));
        ASSERT_EQ(cache.Write(cache_block(b), now, end, sink),
                  ref.Write(block(b), end, &victims, &expected))
            << "step " << step;
        ASSERT_NO_FATAL_FAILURE(check_victims()) << "step " << step;
      }
    } else if (op < 850) {
      ASSERT_EQ(cache.CleanFile(key.first, now, CleanReason::kFsync, sink),
                ref.CleanFile(key.first, &expected));
    } else if (op < 855) {
      cache.InvalidateFile(key.first, now);
      ref.DropFile(key.first);
    } else if (op < 860) {
      ASSERT_EQ(cache.DropFile(key.first, now), ref.DropFile(key.first));
    } else if (op < 920) {
      Key victim;
      const bool released = ref.ReleaseLru(&victim, &expected);
      ASSERT_EQ(cache.ReleaseLruToVm(now, sink), released) << "step " << step;
      if (released) {
        victims.push_back(victim);
      }
    } else if (op < 970) {
      cache.GrantPageFromVm();
      ref.GrantPage();
    } else if (op < 999) {
      cache.DemoteToLruTail(cache_block(0));
      ref.Demote(key);
    } else if (at_scale && rng.NextBool(0.05)) {
      // Only once the cache has reached server scale since the last reset;
      // the refill rebuilds every table from empty. NVRAM replay
      // half the time; either way every block goes.
      at_scale = false;
      const bool nvram = rng.NextBool(0.5);
      int64_t dirty_bytes = 0;
      for (const auto& [dirty_key, extent] : ref.Crash()) {
        dirty_bytes += extent;
        if (nvram) {
          expected.emplace_back(dirty_key, extent);
        }
      }
      const auto [lost, recovered] =
          cache.CrashReset(nvram ? BlockCache::WritebackFn(sink) : nullptr);
      ASSERT_EQ(lost, nvram ? 0 : dirty_bytes);
      ASSERT_EQ(recovered, nvram ? dirty_bytes : 0);
      ASSERT_EQ(cache.limit_blocks(), kMinBlocks);
    }
    ASSERT_EQ(written, expected) << "writebacks, step " << step;
    ASSERT_NO_FATAL_FAILURE(check_victims()) << "step " << step;
    for (int64_t b = 0; b < run; ++b) {
      ASSERT_NO_FATAL_FAILURE(check_key(block(b))) << "step " << step;
    }
    ASSERT_EQ(cache.DirtyBytes(key.first), ref.DirtyBytes(key.first)) << "step " << step;
    ASSERT_NO_FATAL_FAILURE(check_table(key.first)) << "step " << step;
    ASSERT_EQ(cache.block_count(), static_cast<int64_t>(ref.blocks().size())) << "step " << step;
    ASSERT_EQ(cache.limit_blocks(), ref.limit());
    peak = std::max(peak, cache.block_count());
    at_scale = at_scale || cache.block_count() >= 32768;
    if ((step + 1) % kSweepEvery == 0) {
      ASSERT_NO_FATAL_FAILURE(sweep()) << "step " << step;
    }
  }
  EXPECT_EQ(counters.prefetch_fetches, fetches);
  EXPECT_EQ(counters.prefetch_useful, useful);
  EXPECT_GE(peak, 32768) << "the run must reach server scale";

  // A final reset drops everything; the emptied cache still answers.
  const auto [lost, recovered] = cache.CrashReset(nullptr);
  int64_t dirty_bytes = 0;
  for (const auto& [dirty_key, extent] : ref.Crash()) {
    dirty_bytes += extent;
  }
  EXPECT_EQ(lost, dirty_bytes);
  EXPECT_EQ(recovered, 0);
  EXPECT_EQ(cache.block_count(), 0);
  ASSERT_NO_FATAL_FAILURE(sweep());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockIndexProperty,
                         ::testing::Values(IndexParam{KeyShape::kShortFiles, 1},
                                           IndexParam{KeyShape::kShortFiles, 2},
                                           IndexParam{KeyShape::kShortFiles, 3},
                                           IndexParam{KeyShape::kShortFiles, 1991}));
INSTANTIATE_TEST_SUITE_P(LongFiles, BlockIndexProperty,
                         ::testing::Values(IndexParam{KeyShape::kLongFiles, 1},
                                           IndexParam{KeyShape::kLongFiles, 2},
                                           IndexParam{KeyShape::kLongFiles, 3},
                                           IndexParam{KeyShape::kLongFiles, 1991}));

}  // namespace
}  // namespace sprite
