// Placement churn property: random AddServer / RetireServer edits, server
// crashes, hot-spot bursts and single-owner client traffic on a replicated,
// rebalancing cluster, checked after every step against the placement map's
// invariants:
//
//   * every file's metadata sits on at most one server, the active of the
//     file's home slot;
//   * every file routes to a live slot, and every live slot's active is live;
//   * a shadowing standby is live, up, and not its slot's active;
//   * no server but the shadowing standby holds a shadow open for a held
//     handle;
//   * a crash that degrades no home preserves exactly the dirty bytes it
//     caught.
//
// A membership edit must rebuild every live slot's shadow, not only those
// whose standby changed: a retire can move a file into another slot served
// by the same server, and that slot's standby never shadowed it. Each seed
// runs twice and the two ledgers must match.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/fs/cluster.h"
#include "src/util/rng.h"

namespace sprite {
namespace {

constexpr int kClients = 3;
constexpr FileId kFilesPerClient = 13;  // client c writes files c + 3k
constexpr FileId kFiles = kClients * kFilesPerClient;

struct Held {
  ClientId client = 0;
  HandleId handle = 0;
  FileId file = 0;
};

std::vector<ServerId> LiveServers(const Cluster& cluster) {
  std::vector<ServerId> live;
  for (int s = 0; s < cluster.num_servers(); ++s) {
    if (!cluster.placement().IsRetired(static_cast<ServerId>(s))) {
      live.push_back(static_cast<ServerId>(s));
    }
  }
  return live;
}

void CheckInvariants(const Cluster& cluster, const std::vector<Held>& held, SimTime now) {
  const Placement& p = cluster.placement();
  std::vector<int> copies(kFiles, 0);
  std::vector<ServerId> holder(kFiles, 0);
  for (int s = 0; s < cluster.num_servers(); ++s) {
    for (const FileId file : cluster.server(static_cast<ServerId>(s)).AllFileIds()) {
      if (file < kFiles) {
        ++copies[file];
        holder[file] = static_cast<ServerId>(s);
      }
    }
  }
  for (FileId f = 0; f < kFiles; ++f) {
    const ServerId home = p.Home(f);
    EXPECT_FALSE(p.IsRetired(home)) << "file " << f << " routes to retired slot " << home;
    EXPECT_LE(copies[f], 1) << "file " << f << " has metadata on several servers";
    if (copies[f] == 1) {
      EXPECT_EQ(holder[f], p.Active(home)) << "file " << f << " sits off its slot's active";
    }
  }
  for (ServerId h = 0; h < static_cast<ServerId>(p.num_servers()); ++h) {
    if (p.IsRetired(h)) {
      continue;
    }
    EXPECT_FALSE(p.IsRetired(p.Active(h))) << "slot " << h << " served by a retired server";
    if (p.Shadowing(h)) {
      const ServerId standby = p.Standby(h);
      EXPECT_FALSE(p.IsRetired(standby)) << "slot " << h << " shadowed by a retired server";
      EXPECT_FALSE(p.IsDown(standby, now)) << "slot " << h << " shadowed by a down server";
      EXPECT_NE(standby, p.Active(h)) << "slot " << h << " shadows itself";
    }
  }
  for (const Held& h : held) {
    const ServerId home = p.Home(h.file);
    for (int s = 0; s < cluster.num_servers(); ++s) {
      if (cluster.server(static_cast<ServerId>(s)).HasShadowOpen(h.file, h.client)) {
        EXPECT_TRUE(p.Shadowing(home) && p.Standby(home) == static_cast<ServerId>(s))
            << "server " << s << " holds a stray shadow of client " << h.client << "'s open of "
            << h.file;
      }
    }
  }
}

RpcLedger RunChurn(uint64_t seed) {
  ClusterConfig config;
  config.num_clients = kClients;
  config.num_servers = 3;
  config.client.memory_bytes = 4 * kMegabyte;
  config.replication.enabled = true;
  config.rebalance.enabled = true;
  config.rebalance.min_victim_bytes = 1;
  EventQueue queue;
  Cluster cluster(config, queue);
  cluster.StartDaemons();
  Rng rng(seed);
  std::vector<Held> held;
  SimTime now = 0;
  for (int step = 0; step < 150 && !::testing::Test::HasFailure(); ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    now += rng.NextInRange(0, 3 * kSecond);
    queue.RunUntil(now);
    const std::vector<ServerId> live = LiveServers(cluster);
    const ServerId some_live = live[rng.NextBelow(live.size())];
    switch (rng.NextBelow(10)) {
      case 0:
        if (cluster.num_servers() < 7) {
          cluster.AddServer();
        }
        break;
      case 1:
        if (live.size() > 2) {
          cluster.RetireServer(some_live);
        }
        break;
      case 2: {
        const int64_t preserved = cluster.failover_preserved_bytes();
        const int64_t degraded = cluster.degraded_crashes();
        const int64_t dirty = cluster.CrashServer(some_live, rng.NextInRange(1, 20) * kSecond);
        if (cluster.degraded_crashes() == degraded) {
          EXPECT_EQ(cluster.failover_preserved_bytes() - preserved, dirty)
              << "a crash of server " << some_live << " lost shadowed bytes";
        }
        break;
      }
      case 3:
        cluster.MigrateOffServer(some_live, now);
        break;
      default: {
        const auto c = static_cast<ClientId>(rng.NextBelow(kClients));
        Client& client = cluster.client(c);
        std::vector<size_t> mine;
        for (size_t i = 0; i < held.size(); ++i) {
          if (held[i].client == c) {
            mine.push_back(i);
          }
        }
        if (!mine.empty() && rng.NextBool(0.3)) {
          const size_t i = mine[rng.NextBelow(mine.size())];
          client.Close(held[i].handle, now);
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
        const FileId file = c + kClients * rng.NextBelow(kFilesPerClient);
        const auto open =
            client.Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal, false, now);
        client.Write(open.handle, rng.NextInRange(1, 64 * kKilobyte), now);
        if (rng.NextBool(0.5)) {
          held.push_back(Held{c, open.handle, file});
        } else {
          client.Close(open.handle, now);
        }
        break;
      }
    }
    CheckInvariants(cluster, held, now);
  }
  return cluster.rpc_ledger();
}

class PlacementChurnProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlacementChurnProperty, EditsKeepRoutingRolesAndShadowsConsistent) {
  const RpcLedger first = RunChurn(GetParam());
  ASSERT_FALSE(::testing::Test::HasFailure());
  const RpcLedger second = RunChurn(GetParam());
  EXPECT_EQ(first, second) << "same seed, same edits, same wire";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementChurnProperty, ::testing::Range<uint64_t>(1, 65));

}  // namespace
}  // namespace sprite
