// Parameterized property tests: invariants that must hold across seeds,
// sizes, and policies, exercised with TEST_P sweeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <set>
#include <vector>

#include "src/consistency/overhead.h"
#include "src/consistency/polling.h"
#include "src/fs/block_cache.h"
#include "src/fs/sharding.h"
#include "src/trace/codec.h"
#include "src/trace/merge.h"
#include "src/util/distributions.h"
#include "src/util/rng.h"
#include "src/workload/generator.h"

namespace sprite {
namespace {

// ---------- BlockCache: LRU and accounting invariants across sizes ----------

class CacheSizeProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(CacheSizeProperty, PopulationNeverExceedsLimitAndLruHolds) {
  const int64_t limit = GetParam();
  CacheConfig config;
  config.min_blocks = 1;
  config.max_blocks = limit;
  CacheCounters counters;
  BlockCache cache(config, &counters);
  cache.set_limit_blocks(limit);
  Rng rng(static_cast<uint64_t>(limit) * 977 + 5);

  int64_t writebacks = 0;
  auto sink = [&](BlockKey, int64_t) { ++writebacks; };

  for (SimTime t = 1; t <= 4000; ++t) {
    const BlockKey key{rng.NextBelow(4), static_cast<int64_t>(rng.NextBelow(64))};
    switch (rng.NextBelow(4)) {
      case 0:
        cache.Lookup(key, t);
        break;
      case 1:
        cache.InsertClean(key, t, sink);
        break;
      case 2:
        cache.Write(key, t, 1 + static_cast<int64_t>(rng.NextBelow(kBlockSize)), sink);
        break;
      case 3:
        cache.CleanAged(t, sink);
        break;
    }
    ASSERT_LE(cache.block_count(), limit) << "population must respect the limit";
  }
  // Cleaning everything leaves no dirty blocks anywhere.
  for (uint64_t f = 0; f < 4; ++f) {
    cache.CleanFile(f, 5000, CleanReason::kFsync, sink);
    EXPECT_FALSE(cache.HasDirtyBlocks(f));
  }
}

INSTANTIATE_TEST_SUITE_P(Limits, CacheSizeProperty, ::testing::Values(1, 2, 3, 8, 64, 1024));

// ---------- BlockCache: flush order and dirty state vs a reference map -------

// Random inserts, writes, evictions, VM trades, invalidations, cleaner ticks
// and flushes over a few files, checked against a reference map of the
// dirty blocks: every flush writes exactly the due blocks in ascending
// (file, block) order, and at every writeback call DirtyBytes/DirtyFiles
// show exactly the blocks not yet written (the block being written still
// counts).
class CacheFlushProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheFlushProperty, FlushesAscendAndDirtyStateMatchesReference) {
  constexpr uint64_t kFiles = 5;
  constexpr int64_t kMaxLimit = 40;
  CacheConfig config;
  config.min_blocks = 1;
  config.max_blocks = kMaxLimit;
  CacheCounters counters;
  BlockCache cache(config, &counters);
  cache.set_limit_blocks(kMaxLimit);
  Rng rng(GetParam());

  struct Dirty {
    int64_t extent;
    SimTime since;
  };
  std::map<std::pair<uint64_t, int64_t>, Dirty> ref;  // (file, block) -> dirty block
  auto ref_bytes = [&ref](uint64_t file) {
    int64_t bytes = 0;
    for (auto it = ref.lower_bound({file, 0}); it != ref.end() && it->first.first == file; ++it) {
      bytes += it->second.extent;
    }
    return bytes;
  };
  auto ref_files = [&ref] {
    std::vector<uint64_t> files;
    for (const auto& [key, dirty] : ref) {
      if (files.empty() || files.back() != key.first) {
        files.push_back(key.first);
      }
    }
    return files;
  };
  auto ref_blocks = [&ref](uint64_t file) {
    std::vector<std::pair<uint64_t, int64_t>> blocks;
    for (auto it = ref.lower_bound({file, 0}); it != ref.end() && it->first.first == file; ++it) {
      blocks.push_back(it->first);
    }
    return blocks;
  };

  std::vector<std::pair<uint64_t, int64_t>> written;  // this op's writebacks
  bool crashing = false;  // NVRAM replay runs before the reset drops anything
  const auto sink = [&](BlockKey key, int64_t bytes) {
    auto it = ref.find({key.file, key.index});
    ASSERT_NE(it, ref.end()) << "only dirty blocks are written back";
    EXPECT_EQ(bytes, it->second.extent);
    if (!crashing) {
      EXPECT_EQ(cache.DirtyBytes(key.file), ref_bytes(key.file));
      EXPECT_EQ(cache.DirtyFiles(), ref_files());
    }
    ref.erase(it);
    written.emplace_back(key.file, key.index);
  };

  SimTime now = 0;
  for (int step = 0; step < 3000; ++step) {
    now += static_cast<SimTime>(rng.NextBelow(3)) * kSecond;
    const uint64_t file = rng.NextBelow(kFiles);
    const BlockKey key{file, static_cast<int64_t>(rng.NextBelow(24))};
    std::vector<std::pair<uint64_t, int64_t>> expected;  // for flushes only
    bool flush = false;
    written.clear();
    switch (rng.NextBelow(12)) {
      case 0:
      case 1:
      case 2: {
        const int64_t end = 1 + static_cast<int64_t>(rng.NextBelow(kBlockSize + kBlockSize / 4));
        cache.Write(key, now, end, sink);
        const int64_t clamped = std::min<int64_t>(end, kBlockSize);
        auto [it, inserted] = ref.try_emplace({key.file, key.index}, Dirty{clamped, now});
        if (!inserted) {
          it->second.extent = std::max(it->second.extent, clamped);
        }
        break;
      }
      case 3:
        cache.InsertClean(key, now, sink);
        break;
      case 4:
        cache.Lookup(key, now);
        cache.InsertPrefetched({key.file, key.index + 1}, now, sink);
        break;
      case 5:
        flush = true;
        for (uint64_t f : ref_files()) {
          const auto blocks = ref_blocks(f);
          const bool due = std::any_of(blocks.begin(), blocks.end(), [&](const auto& b) {
            return now - ref.at(b).since >= config.writeback_delay;
          });
          if (due) {
            expected.insert(expected.end(), blocks.begin(), blocks.end());
          }
        }
        EXPECT_EQ(cache.CleanAged(now, sink), static_cast<int64_t>(expected.size()));
        break;
      case 6: {
        flush = true;
        expected = ref_blocks(file);
        const int64_t bytes = ref_bytes(file);
        EXPECT_EQ(cache.CleanFile(file, now, CleanReason::kFsync, sink), bytes);
        break;
      }
      case 7: {
        std::vector<std::pair<uint64_t, int64_t>> visited;
        cache.ForEachDirtyBlock(file, [&](int64_t block, int64_t extent) {
          EXPECT_EQ(extent, ref.at({file, block}).extent);
          visited.emplace_back(file, block);
        });
        EXPECT_EQ(visited, ref_blocks(file));
        break;
      }
      case 8:
        if (rng.NextBool(0.5)) {
          EXPECT_EQ(cache.DropFile(file, now), ref_bytes(file));
        } else {
          cache.InvalidateFile(file, now);
        }
        for (const auto& block : ref_blocks(file)) {
          ref.erase(block);
        }
        break;
      case 9:
        if (cache.ReleaseLruToVm(now, sink)) {
          cache.GrantPageFromVm();
        }
        cache.DemoteToLruTail(key);
        break;
      case 10:
        cache.set_limit_blocks(8 + static_cast<int64_t>(rng.NextBelow(kMaxLimit - 7)));
        break;
      case 11:
        if (rng.NextBool(0.05)) {
          flush = true;
          for (const auto& [block, dirty] : ref) {
            expected.push_back(block);
          }
          const int64_t bytes = std::accumulate(
              ref.begin(), ref.end(), int64_t{0},
              [](int64_t sum, const auto& kv) { return sum + kv.second.extent; });
          crashing = true;
          const auto [lost, recovered] = cache.CrashReset(sink);
          crashing = false;
          EXPECT_EQ(lost, 0);
          EXPECT_EQ(recovered, bytes);
          cache.set_limit_blocks(kMaxLimit);
        }
        break;
    }
    if (flush) {
      ASSERT_EQ(written, expected) << "step " << step;
    }
    ASSERT_EQ(cache.DirtyFiles(), ref_files()) << "step " << step;
    for (uint64_t f = 0; f < kFiles; ++f) {
      ASSERT_EQ(cache.DirtyBytes(f), ref_bytes(f)) << "file " << f << " step " << step;
      ASSERT_EQ(cache.HasDirtyBlocks(f), ref_bytes(f) > 0);
    }
    ASSERT_LE(cache.block_count(), kMaxLimit);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFlushProperty, ::testing::Values(1, 2, 3, 1991, 7777));

// ---------- Distributions: CDF/quantile consistency across shapes -----------

// Each case prints as a fixed name, so test names that carry the parameter
// value do not depend on where the distribution happens to be allocated.
struct DistributionShape {
  const char* name;
  std::shared_ptr<const Distribution> dist;
};

void PrintTo(const DistributionShape& shape, std::ostream* os) { *os << shape.name; }

class DistributionProperty : public ::testing::TestWithParam<DistributionShape> {};

TEST_P(DistributionProperty, SamplesNonNegativeAndDeterministic) {
  const Distribution& d = *GetParam().dist;
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 2000; ++i) {
    const double x = d.Sample(a);
    const double y = d.Sample(b);
    ASSERT_EQ(x, y) << "same seed must give the same stream";
    ASSERT_GE(x, 0.0) << d.Describe();
  }
}

TEST_P(DistributionProperty, EmpiricalCdfMonotone) {
  const Distribution& d = *GetParam().dist;
  Rng rng(11);
  std::vector<double> samples(5000);
  for (double& s : samples) {
    s = d.Sample(rng);
  }
  std::sort(samples.begin(), samples.end());
  // Quantiles of the sample must be nondecreasing (trivially true) and the
  // median must lie within the sample range.
  const double median = samples[samples.size() / 2];
  EXPECT_GE(median, samples.front());
  EXPECT_LE(median, samples.back());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DistributionProperty,
    ::testing::Values(
        DistributionShape{"Uniform", std::make_shared<UniformDistribution>(0.0, 100.0)},
        DistributionShape{"Exponential", std::make_shared<ExponentialDistribution>(10.0)},
        DistributionShape{"LogNormal", std::make_shared<LogNormalDistribution>(1024.0, 2.0)},
        DistributionShape{"BoundedPareto",
                          std::make_shared<BoundedParetoDistribution>(1.05, 1e3, 1e7)},
        DistributionShape{"Empirical", std::make_shared<EmpiricalDistribution>(
                                           std::vector<EmpiricalDistribution::Point>{
                                               {0.0, 0.0}, {10.0, 0.4}, {1000.0, 1.0}})}));

// ---------- Codec: round-trip across random logs ------------------------------

class CodecProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecProperty, RandomLogRoundTrips) {
  Rng rng(GetParam());
  TraceLog log;
  SimTime t = 0;
  const size_t n = 100 + rng.NextBelow(400);
  for (size_t i = 0; i < n; ++i) {
    Record r;
    r.kind = static_cast<RecordKind>(rng.NextBelow(11));
    t += static_cast<SimTime>(rng.NextBelow(kMinute));
    r.time = t;
    r.user = static_cast<uint32_t>(rng.NextBelow(64));
    r.client = static_cast<uint32_t>(rng.NextBelow(40));
    r.server = static_cast<uint32_t>(rng.NextBelow(4));
    r.file = rng.NextBelow(1u << 24);
    r.handle = rng.NextBelow(1u << 20);
    r.mode = static_cast<OpenMode>(rng.NextBelow(3));
    r.migrated = rng.NextBool(0.2);
    r.is_directory = rng.NextBool(0.1);
    r.offset_before = static_cast<int64_t>(rng.NextBelow(1u << 26));
    r.offset_after = static_cast<int64_t>(rng.NextBelow(1u << 26));
    r.file_size = static_cast<int64_t>(rng.NextBelow(1u << 26));
    r.run_read_bytes = static_cast<int64_t>(rng.NextBelow(1u << 22));
    r.run_write_bytes = static_cast<int64_t>(rng.NextBelow(1u << 22));
    r.io_bytes = static_cast<int64_t>(rng.NextBelow(1u << 16));
    r.peer_client = static_cast<uint32_t>(rng.NextBelow(40));
    log.push_back(r);
  }
  EXPECT_EQ(DecodeTrace(EncodeTrace(log)), log);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty, ::testing::Range<uint64_t>(1, 9));

// ---------- Merge: permutation invariance -------------------------------------

class MergeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeProperty, MergePreservesMultisetAndOrder) {
  Rng rng(GetParam() * 31 + 7);
  std::vector<TraceLog> logs(1 + rng.NextBelow(5));
  size_t total = 0;
  for (size_t s = 0; s < logs.size(); ++s) {
    SimTime t = 0;
    const size_t n = rng.NextBelow(200);
    for (size_t i = 0; i < n; ++i) {
      t += static_cast<SimTime>(rng.NextBelow(1000));
      Record r;
      r.time = t;
      r.server = static_cast<uint32_t>(s);
      r.handle = i;
      logs[s].push_back(r);
    }
    total += n;
  }
  const TraceLog merged = MergeSorted(logs);
  EXPECT_EQ(merged.size(), total);
  EXPECT_TRUE(IsTimeOrdered(merged));
  // Per-server subsequences keep their original order.
  for (size_t s = 0; s < logs.size(); ++s) {
    std::vector<uint64_t> handles;
    for (const Record& r : merged) {
      if (r.server == s) {
        handles.push_back(r.handle);
      }
    }
    ASSERT_EQ(handles.size(), logs[s].size());
    EXPECT_TRUE(std::is_sorted(handles.begin(), handles.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeProperty, ::testing::Range<uint64_t>(1, 9));

// ---------- Polling: interval monotonicity across workload seeds ---------------

class PollingProperty : public ::testing::TestWithParam<uint64_t> {};

TraceLog SmallWorkloadTrace(uint64_t seed) {
  WorkloadParams params;
  params.num_users = 8;
  params.seed = seed;
  // Sharing-rich so the polling simulation has material.
  for (auto& group : params.groups) {
    group.task_weights[static_cast<int>(TaskKind::kShareAppend)] *= 3.0;
  }
  ClusterConfig cluster;
  cluster.num_clients = 8;
  cluster.num_servers = 2;
  Generator generator(params, cluster);
  return generator.Run(40 * kMinute);
}

TEST_P(PollingProperty, LongerIntervalsNeverReduceErrors) {
  const TraceLog trace = SmallWorkloadTrace(GetParam());
  int64_t previous = 0;
  for (SimDuration interval : {kSecond, 3 * kSecond, 15 * kSecond, kMinute, 5 * kMinute}) {
    const PollingResult result = SimulatePolling(trace, interval);
    EXPECT_GE(result.errors, previous)
        << "a longer validity interval can only admit more stale reads";
    previous = result.errors;
    EXPECT_LE(result.opens_with_error, result.file_opens);
    EXPECT_LE(result.users_affected.size(), result.users_seen.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PollingProperty, ::testing::Values(1, 2, 3, 4));

// ---------- Overhead: algorithm invariants across workload seeds ----------------

class OverheadProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverheadProperty, SpriteIsExactAndDenominatorsAgree) {
  const TraceLog trace = SmallWorkloadTrace(GetParam() + 100);
  const OverheadResult sprite = SimulateConsistencyOverhead(trace, ConsistencyPolicy::kSprite);
  const OverheadResult modified =
      SimulateConsistencyOverhead(trace, ConsistencyPolicy::kSpriteModified);
  const OverheadResult token = SimulateConsistencyOverhead(trace, ConsistencyPolicy::kToken);
  // All three see the same application demand.
  EXPECT_EQ(sprite.bytes_requested, modified.bytes_requested);
  EXPECT_EQ(sprite.bytes_requested, token.bytes_requested);
  EXPECT_EQ(sprite.events_requested, token.events_requested);
  if (sprite.events_requested > 0) {
    // "The current Sprite mechanism transfers exactly these bytes."
    EXPECT_DOUBLE_EQ(sprite.byte_ratio(), 1.0);
    EXPECT_DOUBLE_EQ(sprite.rpc_ratio(), 1.0);
    EXPECT_GT(modified.bytes_transferred, 0);
    EXPECT_GT(token.bytes_transferred, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverheadProperty, ::testing::Values(1, 2, 3, 4));

// ---------- Sharding: placement invariants across server counts -----------------

class PlacementProperty : public ::testing::TestWithParam<int> {};

// Every id any layer can produce must map to a valid server under every
// policy — including range boundaries, deep temporaries, and ids far beyond
// the workload's reach.
TEST_P(PlacementProperty, EveryFileIdMapsToAValidServer) {
  const int n = GetParam();
  using L = FileIdLayout;
  std::vector<FileId> ids = {0,
                             L::kSystemDirectory,
                             L::kExecutableBase,
                             L::kMailboxBase,
                             L::kDirectoryBase,
                             L::kSharedDirectory,
                             L::kSharedBase,
                             L::kBackingBase,
                             L::kUserFileBase,
                             L::kTempBase,
                             kDefaultRangeSpan - 1,
                             kDefaultRangeSpan,
                             FileId{1} << 40,
                             (FileId{1} << 63) - 1};
  Rng rng(static_cast<uint64_t>(n) * 131 + 17);
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(rng.NextBelow(FileId{1} << 48));
  }
  for (const ShardingPolicy policy :
       {ShardingPolicy::kModulo, ShardingPolicy::kHash, ShardingPolicy::kRange,
        ShardingPolicy::kDirAffinity}) {
    ShardingConfig config;
    config.policy = policy;
    const auto sharder = MakeSharder(config, n);
    for (const FileId file : ids) {
      const ServerId server = sharder->ServerFor(file);
      ASSERT_LT(static_cast<int>(server), n)
          << ShardingPolicyName(policy) << " placed " << file << " out of range";
    }
  }
}

// The default kRange split points partition the id space: the mapping is
// monotone in the id, each split point starts the next server's range, and
// every server owns a non-empty range — no gaps, no overlaps.
TEST_P(PlacementProperty, RangeSplitsPartitionTheIdSpace) {
  const int n = GetParam();
  ShardingConfig config;
  config.policy = ShardingPolicy::kRange;
  const auto sharder = MakeSharder(config, n);
  const FileId slice = kDefaultRangeSpan / static_cast<FileId>(n);
  for (int s = 0; s < n; ++s) {
    const FileId lo = static_cast<FileId>(s) * slice;
    EXPECT_EQ(sharder->ServerFor(lo), s) << "split point starts server " << s;
    EXPECT_EQ(sharder->ServerFor(lo + slice - 1), s) << "last id of server " << s;
    if (s > 0) {
      EXPECT_EQ(sharder->ServerFor(lo - 1), s - 1) << "no overlap at split " << s;
    }
  }
  // Monotone over a sweep: the owner never decreases as ids increase, so
  // ranges are contiguous.
  ServerId previous = 0;
  for (FileId f = 0; f < kDefaultRangeSpan + 3 * slice; f += slice / 7 + 1) {
    const ServerId server = sharder->ServerFor(f);
    ASSERT_GE(server, previous) << "range mapping must be monotone (id " << f << ")";
    previous = server;
  }
  EXPECT_EQ(previous, static_cast<ServerId>(n - 1)) << "the sweep reaches every server";
}

// kDirAffinity: a file and its parent directory always share a server, for
// every population with a durable parent, at every server count.
TEST_P(PlacementProperty, DirAffinityColocatesFileAndParent) {
  const int n = GetParam();
  using L = FileIdLayout;
  ShardingConfig config;
  config.policy = ShardingPolicy::kDirAffinity;
  const auto sharder = MakeSharder(config, n);
  for (FileId user = 0; user < 40; ++user) {
    const ServerId dir_home = sharder->ServerFor(L::kDirectoryBase + user);
    EXPECT_EQ(sharder->ServerFor(L::kMailboxBase + user), dir_home);
    for (const FileId idx : {FileId{0}, FileId{3}, FileId{997}, FileId{998}, FileId{999}}) {
      const FileId file = L::kUserFileBase + user * L::kUserFileStride + idx;
      ASSERT_EQ(sharder->ServerFor(file), dir_home)
          << "user " << user << " file " << idx << " strayed from the home directory";
      ASSERT_EQ(sharder->ServerFor(HomeDirectoryOf(file)), sharder->ServerFor(file));
    }
  }
  for (FileId exe = L::kExecutableBase; exe < L::kExecutableBase + 40; ++exe) {
    EXPECT_EQ(sharder->ServerFor(exe), sharder->ServerFor(L::kSystemDirectory));
  }
  for (FileId shared = L::kSharedBase; shared < L::kSharedBase + 10; ++shared) {
    EXPECT_EQ(sharder->ServerFor(shared), sharder->ServerFor(L::kSharedDirectory));
  }
}

INSTANTIATE_TEST_SUITE_P(ServerCounts, PlacementProperty,
                         ::testing::Values(1, 2, 4, 7, 16));

// Same-seed workload runs route identically under every policy: the
// placement ledger (a pure function of the routing stream) must match.
class PlacementDeterminismProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlacementDeterminismProperty, SameSeedYieldsSamePlacement) {
  for (const ShardingPolicy policy :
       {ShardingPolicy::kModulo, ShardingPolicy::kHash, ShardingPolicy::kRange,
        ShardingPolicy::kDirAffinity}) {
    auto run = [&](std::vector<int64_t>* routed, std::vector<int64_t>* placed) {
      WorkloadParams params;
      params.num_users = 4;
      params.seed = GetParam();
      ClusterConfig cluster;
      cluster.num_clients = 4;
      cluster.num_servers = 3;
      cluster.sharding.policy = policy;
      Generator generator(params, cluster);
      generator.Run(10 * kMinute);
      const PlacementLedger& ledger = generator.cluster().placement_ledger();
      for (ServerId s = 0; s < 3; ++s) {
        routed->push_back(ledger.routed(s));
        placed->push_back(ledger.files_placed(s));
      }
    };
    std::vector<int64_t> routed_a, placed_a, routed_b, placed_b;
    run(&routed_a, &placed_a);
    run(&routed_b, &placed_b);
    EXPECT_EQ(routed_a, routed_b) << ShardingPolicyName(policy);
    EXPECT_EQ(placed_a, placed_b) << ShardingPolicyName(policy);
    EXPECT_GT(routed_a[0] + routed_a[1] + routed_a[2], 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementDeterminismProperty, ::testing::Values(1, 2, 3));

// ---------- Cluster consistency under random schedules ---------------------------

class ConsistencyProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConsistencyProperty, ReadsAlwaysObserveLatestCommittedSize) {
  EventQueue queue;
  ClusterConfig config;
  config.num_clients = 5;
  config.num_servers = 2;
  config.client.memory_bytes = 4 * kMegabyte;
  Cluster cluster(config, queue);
  cluster.StartDaemons();
  Rng rng(GetParam() * 1009 + 3);

  std::map<FileId, int64_t> committed_size;
  SimTime now = 0;
  for (int round = 0; round < 300; ++round) {
    now += static_cast<SimTime>(rng.NextBelow(2 * kSecond));
    queue.RunUntil(now);
    const FileId file = 10 + rng.NextBelow(5);
    Client& client = cluster.client(static_cast<ClientId>(rng.NextBelow(5)));
    if (rng.NextBool(0.5)) {
      const int64_t bytes = 1 + static_cast<int64_t>(rng.NextBelow(60000));
      auto open = client.Open(1, file, OpenMode::kWrite, OpenDisposition::kTruncate, false, now);
      client.Write(open.handle, bytes, now);
      client.Close(open.handle, now);
      committed_size[file] = bytes;
    } else {
      auto open = client.Open(1, file, OpenMode::kRead, OpenDisposition::kNormal, false, now);
      const Record& record = cluster.trace().back();
      ASSERT_EQ(record.kind, RecordKind::kOpen);
      const auto it = committed_size.find(file);
      const int64_t expected = it == committed_size.end() ? 0 : it->second;
      ASSERT_EQ(record.file_size, expected)
          << "round " << round << ": a reader observed stale metadata";
      client.Read(open.handle, expected, now);
      client.Close(open.handle, now);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyProperty, ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------- Sprite's write-sharing rule under random schedules ---------------

// Random opens, closes, one-byte reads and writes and client crashes on
// three files, checked against a model of each file's open list. A file
// turns uncacheable at the open that makes it write-shared (two or more
// clients, at least one of them a writer) and stays uncacheable until its
// open list empties, even after closes or a crash end the sharing: every
// read or write passes through to the server exactly while that holds. A
// crash that ends the sharing while survivors still hold the file is where
// a protocol that re-enables caching once sharing ends would differ.
class WriteSharingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WriteSharingProperty, IoPassesThroughFromSharingUntilTheLastClose) {
  constexpr int kClients = 5;
  constexpr int kFiles = 3;
  constexpr FileId kFirstFile = 10;
  EventQueue queue;
  ClusterConfig config;
  config.num_clients = kClients;
  config.num_servers = 2;
  config.client.memory_bytes = 4 * kMegabyte;
  Cluster cluster(config, queue);
  Rng rng(GetParam() * 7919 + 11);

  SimTime now = 0;
  for (int f = 0; f < kFiles; ++f) {
    Client& client = cluster.client(static_cast<ClientId>(f));
    auto open = client.Open(1, kFirstFile + f, OpenMode::kWrite, OpenDisposition::kNormal,
                            false, now);
    client.Write(open.handle, 2 * kBlockSize, now);
    client.Close(open.handle, now);
  }

  struct Held {
    ClientId client;
    FileId file;
    bool writer;
    HandleId handle;
  };
  struct Opens {
    int readers = 0;
    int writers = 0;
  };
  struct FileModel {
    std::map<ClientId, Opens> opens;
    bool uncacheable = false;
    // A crash ended the write-sharing; cleared with the open list.
    bool crash_ended_sharing = false;
    bool write_shared() const {
      return opens.size() >= 2 && std::any_of(opens.begin(), opens.end(), [](const auto& o) {
               return o.second.writers > 0;
             });
    }
  };
  std::vector<Held> held;
  std::map<FileId, FileModel> model;
  int64_t passed_through = 0;
  int64_t cached = 0;
  int64_t checks_after_crash = 0;  // survivor I/O after a crash ended sharing

  for (int step = 0; step < 500; ++step) {
    now += 1 + static_cast<SimTime>(rng.NextBelow(kSecond));
    const uint64_t action = rng.NextBelow(100);
    if (held.empty() || (action < 20 && held.size() < 8)) {
      const Held h{static_cast<ClientId>(rng.NextBelow(kClients)),
                   kFirstFile + rng.NextBelow(kFiles), rng.NextBool(0.4), 0};
      const auto open = cluster.client(h.client).Open(
          1, h.file, h.writer ? OpenMode::kWrite : OpenMode::kRead, OpenDisposition::kNormal,
          false, now);
      held.push_back(h);
      held.back().handle = open.handle;
      FileModel& m = model[h.file];
      Opens& o = m.opens[h.client];
      ++(h.writer ? o.writers : o.readers);
      m.uncacheable = m.uncacheable || m.write_shared();
    } else if (action < 45) {
      const size_t i = rng.NextBelow(held.size());
      const Held h = held[i];
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      cluster.client(h.client).Close(h.handle, now);
      FileModel& m = model[h.file];
      Opens& o = m.opens[h.client];
      --(h.writer ? o.writers : o.readers);
      if (o.readers == 0 && o.writers == 0) {
        m.opens.erase(h.client);
      }
      m.uncacheable = m.uncacheable && !m.opens.empty();
      m.crash_ended_sharing = m.crash_ended_sharing && !m.opens.empty();
    } else if (action < 95) {
      const Held& h = held[rng.NextBelow(held.size())];
      Client& client = cluster.client(h.client);
      size_t before = 0;
      if (h.writer) {
        before = cluster.trace().size();
        client.Write(h.handle, 1, now);
      } else {
        client.Seek(h.handle, 0, now);  // so the read has a byte to return
        before = cluster.trace().size();
        client.Read(h.handle, 1, now);
      }
      const bool passed = std::any_of(
          cluster.trace().begin() + static_cast<std::ptrdiff_t>(before), cluster.trace().end(),
          [](const Record& r) {
            return r.kind == RecordKind::kSharedRead || r.kind == RecordKind::kSharedWrite;
          });
      const FileModel& m = model[h.file];
      ASSERT_EQ(passed, m.uncacheable) << "step " << step << ": client " << h.client
                                       << (h.writer ? " wrote" : " read") << " file " << h.file;
      ++(passed ? passed_through : cached);
      checks_after_crash += m.crash_ended_sharing && !m.write_shared() ? 1 : 0;
    } else {
      const ClientId client = held[rng.NextBelow(held.size())].client;
      cluster.CrashClient(client, now);
      std::erase_if(held, [client](const Held& h) { return h.client == client; });
      for (auto& [file, m] : model) {
        (void)file;
        const bool was_shared = m.write_shared();
        m.opens.erase(client);
        m.uncacheable = m.uncacheable && !m.opens.empty();
        m.crash_ended_sharing = m.uncacheable && (m.crash_ended_sharing ||
                                                  (was_shared && !m.write_shared()));
      }
    }
  }
  EXPECT_GT(passed_through, 0);
  EXPECT_GT(cached, 0);
  EXPECT_GT(checks_after_crash, 0) << "no survivor I/O after a crash ended write-sharing";
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteSharingProperty, ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace sprite
