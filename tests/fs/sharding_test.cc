// Tests for pluggable server sharding: per-policy placement semantics,
// kModulo bit-identity with the historical `file % n` formula, validation of
// bad configs (including the old modulo code's latent bug class: empty server
// lists and negative FileIds), the placement ledger, skew statistics, and the
// interaction with crash recovery — a reopen storm under kHash must target
// exactly the files the policy homed on the crashed server.

#include "src/fs/sharding.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/fs/cluster.h"

namespace sprite {
namespace {

std::unique_ptr<Sharder> Make(ShardingPolicy policy, int num_servers) {
  ShardingConfig config;
  config.policy = policy;
  return MakeSharder(config, num_servers);
}

// A sweep of realistic ids covering every population the workload allocates,
// including range boundaries.
std::vector<FileId> SampleIds() {
  using L = FileIdLayout;
  return {
      0,
      L::kSystemDirectory,
      L::kExecutableBase,
      L::kExecutableBase + 17,
      L::kMailboxBase,
      L::kMailboxBase + 7,
      L::kDirectoryBase,
      L::kDirectoryBase + 7,
      L::kSharedDirectory,
      L::kSharedBase,
      L::kSharedBase + 3,
      L::kBackingBase,
      L::kBackingBase + 12,
      L::kUserFileBase,
      L::kUserFileBase + 998,                         // user 0's sim input
      L::kUserFileBase + 5 * L::kUserFileStride + 3,  // user 5, file 3
      L::kTempBase,
      L::kTempBase + 123'456,
      kDefaultRangeSpan - 1,
      kDefaultRangeSpan,
      kDefaultRangeSpan + 999,
  };
}

const ShardingPolicy kAllPolicies[] = {ShardingPolicy::kModulo, ShardingPolicy::kHash,
                                       ShardingPolicy::kRange,
                                       ShardingPolicy::kDirAffinity};

// ---------------- kModulo: bit-identity with the legacy formula --------------

// Every committed paper table is pinned to `file % num_servers`; the default
// policy must reproduce it exactly.
TEST(ShardingTest, ModuloMatchesLegacyFormula) {
  for (const int n : {1, 2, 4, 7, 16}) {
    const auto sharder = Make(ShardingPolicy::kModulo, n);
    for (const FileId file : SampleIds()) {
      EXPECT_EQ(sharder->ServerFor(file), file % static_cast<FileId>(n))
          << "file " << file << " with " << n << " servers";
    }
  }
}

// ---------------- Shared guarantees across policies --------------------------

TEST(ShardingTest, EveryPolicyCoversEveryServer) {
  for (const ShardingPolicy policy : kAllPolicies) {
    const int n = 4;
    const auto sharder = Make(policy, n);
    std::vector<bool> hit(n, false);
    // User files across many users, plus temporaries, reach every server
    // under every policy.
    for (FileId user = 0; user < 64; ++user) {
      for (FileId idx = 0; idx < 8; ++idx) {
        hit[sharder->ServerFor(FileIdLayout::kUserFileBase +
                               user * FileIdLayout::kUserFileStride + idx)] = true;
      }
    }
    for (FileId t = 0; t < 64; ++t) {
      hit[sharder->ServerFor(FileIdLayout::kTempBase + t)] = true;
    }
    // kRange needs ids across the whole default span (persistent files all
    // sit in its lowest slice).
    for (FileId i = 0; i < 64; ++i) {
      hit[sharder->ServerFor(kDefaultRangeSpan / 64 * i + i)] = true;
    }
    for (int s = 0; s < n; ++s) {
      EXPECT_TRUE(hit[s]) << ShardingPolicyName(policy) << " never placed on server "
                          << s;
    }
  }
}

// Placement is a pure function of (policy, num_servers, id): two
// independently constructed sharders agree everywhere. This is what makes
// recovery replay and same-seed reruns target the same servers.
TEST(ShardingTest, MappingIsStableAcrossInstances) {
  for (const ShardingPolicy policy : kAllPolicies) {
    for (const int n : {1, 2, 4, 7, 16}) {
      const auto a = Make(policy, n);
      const auto b = Make(policy, n);
      for (const FileId file : SampleIds()) {
        EXPECT_EQ(a->ServerFor(file), b->ServerFor(file))
            << ShardingPolicyName(policy) << " n=" << n << " file " << file;
      }
    }
  }
}

TEST(ShardingTest, HashUsesSplitMix64) {
  const auto sharder = Make(ShardingPolicy::kHash, 7);
  for (const FileId file : SampleIds()) {
    EXPECT_EQ(sharder->ServerFor(file),
              static_cast<ServerId>(SplitMix64(file) % 7));
  }
}

// ---------------- kRange ------------------------------------------------------

TEST(ShardingTest, RangeDefaultSplitsAreMonotone) {
  const int n = 4;
  const auto sharder = Make(ShardingPolicy::kRange, n);
  const FileId slice = kDefaultRangeSpan / n;
  for (int s = 0; s < n; ++s) {
    // First and last id of each uniform slice land on server s.
    EXPECT_EQ(sharder->ServerFor(static_cast<FileId>(s) * slice), s);
    EXPECT_EQ(sharder->ServerFor(static_cast<FileId>(s + 1) * slice - 1), s);
  }
  // Ids beyond the span stay on the last server.
  EXPECT_EQ(sharder->ServerFor(kDefaultRangeSpan + 42), n - 1);
}

// ---------------- kDirAffinity ------------------------------------------------

TEST(ShardingTest, DirAffinityColocatesFilesWithParentDirectory) {
  using L = FileIdLayout;
  const auto sharder = Make(ShardingPolicy::kDirAffinity, 7);
  for (FileId user = 0; user < 32; ++user) {
    const FileId dir = L::kDirectoryBase + user;
    const ServerId home = sharder->ServerFor(dir);
    EXPECT_EQ(sharder->ServerFor(L::kMailboxBase + user), home)
        << "mailbox of user " << user;
    for (FileId idx = 0; idx < 16; ++idx) {
      const FileId file = L::kUserFileBase + user * L::kUserFileStride + idx;
      EXPECT_EQ(sharder->ServerFor(file), home)
          << "file " << idx << " of user " << user;
    }
  }
  // Executables share the system directory's home; shared append files share
  // the shared directory's home.
  EXPECT_EQ(sharder->ServerFor(L::kExecutableBase + 3),
            sharder->ServerFor(L::kSystemDirectory));
  EXPECT_EQ(sharder->ServerFor(L::kSharedBase + 5),
            sharder->ServerFor(L::kSharedDirectory));
}

TEST(ShardingTest, HomeDirectoryOfIsIdempotent) {
  for (const FileId file : SampleIds()) {
    const FileId home = HomeDirectoryOf(file);
    EXPECT_EQ(HomeDirectoryOf(home), home) << "file " << file;
  }
}

// ---------------- The latent modulo bug class ---------------------------------

// The old `file % servers_.size()` would divide by zero on an empty server
// list and silently wrap a negative id to a huge unsigned value. Both are
// now explicit errors.
TEST(ShardingTest, RejectsNonPositiveServerCounts) {
  ShardingConfig config;
  for (const ShardingPolicy policy : kAllPolicies) {
    config.policy = policy;
    EXPECT_THROW(MakeSharder(config, 0), std::invalid_argument)
        << ShardingPolicyName(policy);
    EXPECT_THROW(MakeSharder(config, -3), std::invalid_argument)
        << ShardingPolicyName(policy);
  }
}

TEST(ShardingTest, RejectsNegativeFileIds) {
  for (const ShardingPolicy policy : kAllPolicies) {
    const auto sharder = Make(policy, 4);
    EXPECT_THROW(sharder->ServerFor(static_cast<FileId>(-1)), std::invalid_argument)
        << ShardingPolicyName(policy);
    EXPECT_THROW(sharder->ServerFor(static_cast<FileId>(-5000)), std::invalid_argument)
        << ShardingPolicyName(policy);
  }
}

// ---------------- Policy names ------------------------------------------------

TEST(ShardingTest, PolicyNamesRoundTrip) {
  for (const ShardingPolicy policy : kAllPolicies) {
    ShardingPolicy parsed = ShardingPolicy::kModulo;
    EXPECT_TRUE(ParseShardingPolicy(ShardingPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  ShardingPolicy parsed = ShardingPolicy::kModulo;
  EXPECT_TRUE(ParseShardingPolicy("dir", &parsed));  // alias
  EXPECT_EQ(parsed, ShardingPolicy::kDirAffinity);
  parsed = ShardingPolicy::kHash;
  EXPECT_FALSE(ParseShardingPolicy("round-robin", &parsed));
  EXPECT_EQ(parsed, ShardingPolicy::kHash) << "unknown names leave *out untouched";
}

// ---------------- PlacementLedger ---------------------------------------------

TEST(PlacementLedgerTest, CountsDistinctFilesAndTotalRoutings) {
  PlacementLedger ledger(2);
  ledger.Note(0, 7);
  ledger.Note(0, 7);  // same file again: routed counts, files_placed does not
  ledger.Note(0, 8);
  ledger.Note(1, 9);
  EXPECT_EQ(ledger.files_placed(0), 2);
  EXPECT_EQ(ledger.files_placed(1), 1);
  EXPECT_EQ(ledger.routed(0), 3);
  EXPECT_EQ(ledger.routed(1), 1);
  EXPECT_EQ(ledger.total_routed(), 4);
  ledger.Reset();
  EXPECT_EQ(ledger.files_placed(0), 0);
  EXPECT_EQ(ledger.total_routed(), 0);
}

// ---------------- Skew statistics ---------------------------------------------

TEST(SkewTest, BalancedVectorHasNoSkew) {
  const SkewSummary s = ComputeSkew({5, 5, 5, 5});
  EXPECT_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.max_over_mean, 1.0);
  EXPECT_DOUBLE_EQ(s.cv, 0.0);
}

TEST(SkewTest, ConcentratedVectorShowsSkew) {
  const SkewSummary s = ComputeSkew({0, 0, 12});
  EXPECT_EQ(s.max, 12);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.max_over_mean, 3.0);
  EXPECT_GT(s.cv, 1.0);
}

TEST(SkewTest, EmptyAndZeroVectorsAreDefined) {
  EXPECT_DOUBLE_EQ(ComputeSkew({}).max_over_mean, 0.0);
  EXPECT_DOUBLE_EQ(ComputeSkew({0, 0}).max_over_mean, 0.0);
  EXPECT_DOUBLE_EQ(ComputeSkew({0, 0}).cv, 0.0);
}

// ---------------- Cluster integration -----------------------------------------

ClusterConfig TwoServerCluster(ShardingPolicy policy) {
  ClusterConfig config;
  config.num_clients = 2;
  config.num_servers = 2;
  config.client.memory_bytes = 4 * kMegabyte;
  config.sharding.policy = policy;
  return config;
}

TEST(ClusterShardingTest, ClusterRoutesThroughConfiguredPolicy) {
  EventQueue queue;
  Cluster cluster(TwoServerCluster(ShardingPolicy::kHash), queue);
  for (const FileId file : SampleIds()) {
    EXPECT_EQ(cluster.ServerForFile(file).id(),
              static_cast<ServerId>(SplitMix64(file) % 2));
  }
  EXPECT_EQ(cluster.placement_ledger().total_routed(),
            static_cast<int64_t>(SampleIds().size()));
}

// Regression for the latent bug: routing a negative id through the cluster
// used to wrap modulo the server count and succeed silently.
TEST(ClusterShardingTest, ClusterRejectsNegativeFileIds) {
  EventQueue queue;
  Cluster cluster(TwoServerCluster(ShardingPolicy::kModulo), queue);
  EXPECT_THROW(cluster.ServerForFile(static_cast<FileId>(-1)), std::invalid_argument);
}

TEST(ClusterShardingTest, PlacementGaugeTracksLedger) {
  EventQueue queue;
  ClusterConfig config = TwoServerCluster(ShardingPolicy::kModulo);
  config.observability.metrics = true;
  Cluster cluster(config, queue);
  cluster.ServerForFile(2);  // server 0
  cluster.ServerForFile(4);  // server 0
  cluster.ServerForFile(3);  // server 1
  const MetricsWindow& window = cluster.observability()->metrics().Capture(0);
  const WindowSample* placed0 = window.Find("server.0.files_placed");
  const WindowSample* placed1 = window.Find("server.1.files_placed");
  ASSERT_NE(placed0, nullptr);
  ASSERT_NE(placed1, nullptr);
  EXPECT_EQ(placed0->value, 2);
  EXPECT_EQ(placed1->value, 1);
}

// The recovery interaction the issue calls out: crash a server under kHash
// and the reopen storm must re-register exactly the files the policy homed
// there — no more (files homed elsewhere stay put), no fewer.
TEST(ClusterShardingTest, ReopenStormTargetsPolicyPlacedFiles) {
  EventQueue queue;
  Cluster cluster(TwoServerCluster(ShardingPolicy::kHash), queue);
  Client& client = cluster.client(0);

  // Open a batch of files; the hash policy scatters them across both
  // servers. Track how many land on each.
  const ServerId victim = 0;
  int on_victim = 0;
  int elsewhere = 0;
  std::vector<HandleId> handles;
  for (FileId file = 100; file < 120; ++file) {
    auto open = client.Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                            false, 0);
    handles.push_back(open.handle);
    if (cluster.placement().sharder().ServerFor(file) == victim) {
      ++on_victim;
    } else {
      ++elsewhere;
    }
  }
  ASSERT_GT(on_victim, 0) << "hash placement must put some files on the victim";
  ASSERT_GT(elsewhere, 0) << "and some on the survivor";
  EXPECT_EQ(cluster.server(victim).open_state_count(), on_victim);
  EXPECT_EQ(cluster.server(1).open_state_count(), elsewhere);

  cluster.CrashServer(victim, 10 * kSecond);
  EXPECT_EQ(cluster.server(victim).open_state_count(), 0) << "volatile state lost";

  // The client's next RPC to the rebooted server triggers the epoch
  // handshake; ReplayOpens walks the client's handles and reopens exactly
  // the ones the sharder homes on the victim. Pick a probe file the policy
  // places there so the RPC actually reaches the rebooted server.
  FileId probe_file = 500;
  while (cluster.placement().sharder().ServerFor(probe_file) != victim) {
    ++probe_file;
  }
  auto probe = client.Open(1, probe_file, OpenMode::kRead, OpenDisposition::kNormal,
                           false, 15 * kSecond);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kReopen).calls, on_victim);
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 0);
  // Every crashed-server handle is re-registered (plus the probe itself);
  // the survivor's table never changed.
  EXPECT_EQ(cluster.server(victim).open_state_count(), on_victim + 1);
  EXPECT_EQ(cluster.server(1).open_state_count(), elsewhere);

  client.Close(probe.handle, 16 * kSecond);
  for (const HandleId h : handles) {
    client.Close(h, 16 * kSecond);
  }
  EXPECT_EQ(cluster.server(victim).open_state_count(), 0);
  EXPECT_EQ(cluster.server(1).open_state_count(), 0);
}

}  // namespace
}  // namespace sprite
