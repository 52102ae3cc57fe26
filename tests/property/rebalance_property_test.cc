// Rebalancing property sweeps: randomized sequences of hot-spot migration
// bursts, AddServer steals, and RetireServer evacuations over a Placement
// and a fake host, checked after every step for the routing invariants the
// live cluster depends on — every file routes to exactly one live server, the
// router and the host never disagree on where a file lives, retired
// servers hold nothing and receive nothing, adds steal only a bounded
// slice, and the hot-spot movement budget is never overspent.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/fs/placement.h"
#include "src/fs/rebalance.h"
#include "src/util/rng.h"

namespace sprite {
namespace {

class SequenceHost : public RebalanceHost {
 public:
  SequenceHost(int servers, const Placement* placement)
      : files_(servers), placement_(placement) {}

  void Put(ServerId server, FileId file, int64_t bytes) { files_[server][file] = bytes; }
  void AddEmptyServer() { files_.emplace_back(); }
  int NumServers() const { return static_cast<int>(files_.size()); }

  std::vector<std::pair<FileId, int64_t>> HomedFiles(ServerId server) const override {
    return {files_[server].begin(), files_[server].end()};
  }
  int64_t HomedBytes(ServerId server) const override {
    int64_t total = 0;
    for (const auto& [file, bytes] : files_[server]) {
      total += bytes;
    }
    return total;
  }
  MigrationOutcome Migrate(FileId file, ServerId from, ServerId to_home, SimTime) override {
    const ServerId to = placement_->Active(to_home);
    auto it = files_[from].find(file);
    if (it == files_[from].end() || from == to) {
      return {};
    }
    MigrationOutcome outcome;
    outcome.ok = true;
    outcome.moved_bytes = it->second;
    outcome.latency = 25;
    files_[to][file] = it->second;
    files_[from].erase(it);
    return outcome;
  }

  // The pre-event (file, server) census over live servers, sorted by file
  // id (what Cluster::HomeCensus feeds Rebalancer::Resettle).
  std::vector<std::pair<FileId, ServerId>> Census() const {
    std::map<FileId, ServerId> sorted;
    for (size_t s = 0; s < files_.size(); ++s) {
      if (placement_->IsRetired(static_cast<ServerId>(s))) {
        continue;
      }
      for (const auto& [file, bytes] : files_[s]) {
        sorted[file] = static_cast<ServerId>(s);
      }
    }
    return {sorted.begin(), sorted.end()};
  }

  std::vector<std::map<FileId, int64_t>> files_;
  const Placement* placement_;
};

class RebalanceSequenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RebalanceSequenceProperty, RoutingStaysConsistentUnderRandomTopologyChurn) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 3);
  constexpr int kInitialServers = 3;
  constexpr FileId kFiles = 200;
  constexpr int kMaxServers = 9;

  ShardingConfig shard;
  shard.policy = (seed % 2 == 0) ? ShardingPolicy::kModulo : ShardingPolicy::kHash;
  Placement placement(shard, kInitialServers, /*replicated=*/false);
  SequenceHost host(kInitialServers, &placement);
  RebalanceConfig config;
  config.enabled = true;
  // Odd seeds run with a finite hot-spot budget so the sweep exercises the
  // skip path too.
  config.max_total_bytes = (seed % 2 == 1) ? 64 * kMegabyte : 0;
  Rebalancer reb(config, &placement, &host);

  for (FileId f = 0; f < kFiles; ++f) {
    host.Put(placement.Home(f), f,
             4 * kKilobyte + static_cast<int64_t>(rng.NextBelow(4 * kMegabyte)));
  }

  auto check_invariants = [&](const char* when, int step) {
    for (FileId f = 0; f < kFiles; ++f) {
      const ServerId routed = placement.Active(placement.Home(f));
      ASSERT_NE(routed, kNoServer) << when << " step " << step << " file " << f;
      ASSERT_LT(routed, static_cast<ServerId>(host.NumServers()));
      ASSERT_FALSE(placement.IsRetired(routed))
          << when << " step " << step << ": file " << f << " routed to dead server " << routed;
      int copies = 0;
      for (int s = 0; s < host.NumServers(); ++s) {
        if (host.files_[s].count(f) != 0) {
          ++copies;
          ASSERT_EQ(static_cast<ServerId>(s), routed)
              << when << " step " << step << ": router says " << routed << " but file " << f
              << " lives on " << s;
        }
      }
      ASSERT_EQ(copies, 1) << when << " step " << step << ": file " << f
                           << " must live on exactly one server";
    }
    for (int s = 0; s < host.NumServers(); ++s) {
      if (placement.IsRetired(static_cast<ServerId>(s))) {
        ASSERT_TRUE(host.files_[s].empty())
            << when << " step " << step << ": retired server " << s << " still holds files";
      }
    }
  };
  check_invariants("seed", 0);

  SimTime now = 0;
  for (int step = 1; step <= 40; ++step) {
    now += kMinute;
    const int live_count = [&] {
      int n = 0;
      for (int s = 0; s < host.NumServers(); ++s) {
        n += !placement.IsRetired(static_cast<ServerId>(s));
      }
      return n;
    }();
    switch (rng.NextBelow(4)) {
      case 0:
      case 1: {  // hot-spot burst on a random live server
        const ServerId hot = static_cast<ServerId>(rng.NextBelow(host.NumServers()));
        if (!placement.IsRetired(hot)) {
          HotspotEvent ev;
          ev.episode.server = static_cast<int>(hot);
          reb.OnWindow({ev}, now);
        }
        break;
      }
      case 2: {  // add, bounded-steal
        if (host.NumServers() >= kMaxServers) {
          break;
        }
        const auto census = host.Census();
        host.AddEmptyServer();
        const ServerId added = placement.AddServer();
        const auto moves = reb.Resettle(census, now);
        // Bounded movement: the steal expects |census|/(live+1); even with
        // per-file randomness it stays far from a full reshuffle.
        ASSERT_LE(moves.size(), census.size() * 2 / (live_count + 1) + 8)
            << "add stole more than a bounded slice";
        for (const auto& move : moves) {
          ASSERT_EQ(move.to, added) << "an add only moves files TO the newcomer";
        }
        break;
      }
      case 3: {  // retire, full evacuation
        if (live_count <= 1) {
          break;
        }
        const ServerId victim = static_cast<ServerId>(rng.NextBelow(host.NumServers()));
        if (placement.IsRetired(victim)) {
          break;
        }
        const auto census = host.Census();
        const size_t on_victim = host.files_[victim].size();
        placement.RetireServer(victim);
        const auto moves = reb.Resettle(census, now);
        ASSERT_EQ(moves.size(), on_victim) << "retire must evacuate every file";
        break;
      }
    }
    check_invariants("churn", step);
  }

  if (config.max_total_bytes > 0) {
    EXPECT_LE(reb.moved_bytes(), config.max_total_bytes)
        << "hot-spot movement budget overspent";
  }
  // Re-walking the id space is pure: a second pass routes identically.
  for (FileId f = 0; f < kFiles; ++f) {
    EXPECT_EQ(placement.Home(f), placement.Home(f));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RebalanceSequenceProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace sprite
