// Tests for primary/backup replication: the placement map's role
// bookkeeping, synchronous shadow RPCs from the client stubs, crash
// fail-over (state preserved, no epoch bump, no reopen storm), degraded
// correlated failures falling back to classic recovery, rejoin resync /
// failback, and the determinism of replicated faulted runs.

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/fs/cluster.h"
#include "src/fs/placement.h"
#include "src/util/rng.h"

namespace sprite {
namespace {

ClusterConfig ReplCluster(int clients = 2, int servers = 2) {
  ClusterConfig config;
  config.num_clients = clients;
  config.num_servers = servers;
  config.client.memory_bytes = 4 * kMegabyte;
  config.replication.enabled = true;
  return config;
}

// ---------------- Placement roles -------------------------------------------

TEST(PlacementRolesTest, InitialRolesFollowTheBackupOffset) {
  const Placement map(ShardingConfig{}, /*num_servers=*/3, /*replicated=*/true);
  EXPECT_EQ(map.num_servers(), 3);
  for (ServerId h = 0; h < 3; ++h) {
    EXPECT_EQ(map.Active(h), h);
    EXPECT_EQ(map.Standby(h), (h + 1) % 3) << "the next server in ring order";
    EXPECT_TRUE(map.Shadowing(h));
    EXPECT_EQ(map.ActiveHomeCount(h), 1);
  }
  EXPECT_EQ(map.HomesActiveOn(1), std::vector<ServerId>{1});
  EXPECT_EQ(map.HomesStandbyOn(1), std::vector<ServerId>{0});
}

TEST(PlacementRolesTest, PromoteSwapsRolesAndPausesShadowing) {
  Placement map(ShardingConfig{}, /*num_servers=*/2, /*replicated=*/true);
  map.Promote(0);
  EXPECT_EQ(map.Active(0), 1u);
  EXPECT_EQ(map.Standby(0), 0u);
  EXPECT_FALSE(map.Shadowing(0)) << "the old primary's shadow died with it";
  EXPECT_EQ(map.ActiveHomeCount(1), 2) << "server 1 now serves both homes";
  EXPECT_EQ(map.ActiveHomeCount(0), 0);
  map.SetShadowing(0, true);
  EXPECT_TRUE(map.Shadowing(0));
}

TEST(PlacementRolesTest, RejectsUnreplicableConfigs) {
  EXPECT_THROW(Placement(ShardingConfig{}, /*num_servers=*/1, /*replicated=*/true),
               std::invalid_argument)
      << "one server cannot back itself up";
}

TEST(PlacementRolesTest, ClusterRejectsReplicationWithOneServer) {
  EventQueue queue;
  EXPECT_THROW(Cluster(ReplCluster(2, 1), queue), std::invalid_argument);
}

// ---------------- Shadowing -------------------------------------------------

TEST(ReplicationTest, StubsShadowOpensAndWritebacksToTheStandby) {
  EventQueue queue;
  Cluster cluster(ReplCluster(), queue);
  const FileId file = 4;  // modulo sharding: home 0, standby 1
  auto open = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, 0);
  cluster.client(0).Write(open.handle, 5000, 0);
  cluster.client(0).Fsync(open.handle, 0);  // dirty bytes reach server 0, shadowed to 1

  EXPECT_TRUE(cluster.server(1).HasShadowOpen(file, 0));
  EXPECT_EQ(cluster.server(1).shadow_file_count(), 1);
  EXPECT_EQ(cluster.server(1).open_state_count(), 0)
      << "a shadow registration is not a live open";
  // Shadow traffic is real, ledgered wire traffic — the replication tax.
  const RpcLedger& ledger = cluster.rpc_ledger();
  EXPECT_EQ(ledger.stat(RpcKind::kShadowOpen).calls, 1);
  EXPECT_EQ(ledger.stat(RpcKind::kShadowWrite).calls, 2) << "5000 B = two blocks";
  EXPECT_EQ(ledger.stat(RpcKind::kShadowWrite).payload_bytes, 5000);
  EXPECT_GT(ledger.stat(RpcKind::kShadowWrite).net_time, 0);

  cluster.client(0).Close(open.handle, kSecond);
  EXPECT_EQ(ledger.stat(RpcKind::kShadowClose).calls, 1);
  EXPECT_FALSE(cluster.server(1).HasShadowOpen(file, 0));
}

// ---------------- Fail-over -------------------------------------------------

TEST(ReplicationTest, CrashFailsOverWithoutReopenStormAndPreservesState) {
  EventQueue queue;
  Cluster cluster(ReplCluster(), queue);
  const FileId file = 4;  // home 0
  auto open = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, 0);
  cluster.client(0).Write(open.handle, 5000, 0);
  cluster.client(0).Fsync(open.handle, 0);

  cluster.CrashServer(0, 10 * kSecond);
  EXPECT_EQ(cluster.failovers(), 1);
  EXPECT_EQ(cluster.degraded_crashes(), 0);
  EXPECT_EQ(cluster.failover_preserved_bytes(), 5000)
      << "the shadowed dirty bytes survive the crash";
  EXPECT_GT(cluster.total_failover_us(), 0);
    EXPECT_EQ(cluster.placement().Active(0), 1u) << "home 0 promoted onto its standby";
  EXPECT_EQ(cluster.server(1).open_state_count(), 1)
      << "the shadowed open replayed into real open state";
  EXPECT_EQ(cluster.server(1).shadow_file_count(), 0) << "the delta was consumed";

  // No epoch bump, no reopen storm: the client keeps using its handle and the
  // redirect to the promoted backup is invisible to it.
  cluster.client(0).Write(open.handle, 1000, kSecond);
  cluster.client(0).Close(open.handle, 2 * kSecond);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kReopen).calls, 0);
  EXPECT_TRUE(cluster.rpc_ledger().by_epoch.empty());
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 0);
  EXPECT_EQ(cluster.server(1).open_state_count(), 0) << "closed cleanly on the new active";
}

TEST(ReplicationTest, FailoverGapIsDetectionPlusReplayNotOutagePlusGrace) {
  EventQueue queue;
  ClusterConfig config = ReplCluster();
  Cluster cluster(config, queue);
  const FileId file = 4;
  auto open = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, 0);
  cluster.client(0).Write(open.handle, 1000, 0);
  cluster.CrashServer(0, 60 * kSecond);

  // One shadow entry (the open registration): the promoted backup is back in
  // service after detection_delay + 1 * replay_per_entry, long before the
  // 60 s outage (plus the grace window) that an unreplicated client would
  // have ridden out.
  const SimDuration gap = config.replication.detection_delay +
                          1 * config.replication.replay_per_entry;
  EXPECT_EQ(cluster.total_failover_us(), gap);
  const SimDuration latency = cluster.client(0).Open(1, file + 2, OpenMode::kRead,
                                                     OpenDisposition::kNormal, false, 0)
                                  .latency;
  EXPECT_LT(latency, 2 * gap) << "the next request pays the fail-over gap, not the outage";
  EXPECT_GT(latency, gap / 2);
}

// ---------------- Correlated failures ---------------------------------------

TEST(ReplicationTest, CorrelatedCrashDegradesToClassicRecovery) {
  EventQueue queue;
  Cluster cluster(ReplCluster(3, 2), queue);
  const FileId file = 4;  // home 0
  auto open = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, 0);
  cluster.client(0).Write(open.handle, 3000, 0);

  // Server 1 (home 0's standby) dies first: home 1 fails over onto server 0,
  // and home 0's shadow is lost.
  cluster.CrashServer(1, 30 * kSecond);
  EXPECT_EQ(cluster.failovers(), 1);
  EXPECT_FALSE(cluster.placement().Shadowing(0));

  // Server 0 dies while server 1 is still down: no live shadow anywhere, so
  // this is a correlated failure and both homes ride out classic Sprite
  // recovery — epoch bump, reopen storm, grace wait.
  queue.RunUntil(5 * kSecond);
  cluster.CrashServer(0, 10 * kSecond);
  EXPECT_EQ(cluster.degraded_crashes(), 1);
  EXPECT_EQ(cluster.failovers(), 1) << "nothing left to fail over to";

  // The client's first RPC after the reboot replays its open the classic way.
  cluster.client(0).Write(open.handle, 500, 16 * kSecond);
  cluster.client(0).Close(open.handle, 20 * kSecond);
  EXPECT_GT(cluster.rpc_ledger().stat(RpcKind::kReopen).calls, 0);
  EXPECT_FALSE(cluster.rpc_ledger().by_epoch.empty());

  // Both servers eventually rejoin and re-arm each other's shadows.
  queue.RunUntil(31 * kSecond);
  EXPECT_GE(cluster.resyncs(), 2);
  EXPECT_TRUE(cluster.placement().Shadowing(0));
  EXPECT_TRUE(cluster.placement().Shadowing(1));
}

// ---------------- Rejoin, resync, failback ----------------------------------

TEST(ReplicationTest, RejoinResyncsAndASecondCrashFailsBack) {
  EventQueue queue;
  Cluster cluster(ReplCluster(), queue);
  const FileId file = 4;  // home 0
  auto open = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, 0);
  cluster.client(0).Write(open.handle, 2000, 0);
  cluster.client(0).Fsync(open.handle, 0);

  cluster.CrashServer(0, 10 * kSecond);
  EXPECT_EQ(cluster.placement().Active(0), 1u);
  queue.RunUntil(11 * kSecond);
  // The rebooted server 0 is standby for home 0 now; it resynced the live
  // open from the promoted active, so a crash of server 1 fails BACK.
  EXPECT_GE(cluster.resyncs(), 1);
  EXPECT_TRUE(cluster.placement().Shadowing(0));
  EXPECT_TRUE(cluster.server(0).HasShadowOpen(file, 0));

  cluster.CrashServer(1, 10 * kSecond);
  // Server 1 was serving BOTH homes (its own plus the one it absorbed), so
  // its crash is two home fail-overs on top of the original one.
  EXPECT_EQ(cluster.failovers(), 3);
  EXPECT_EQ(cluster.degraded_crashes(), 0);
  EXPECT_EQ(cluster.placement().Active(0), 0u) << "home 0 is back on its original server";
  EXPECT_EQ(cluster.placement().Active(1), 0u) << "home 1 rode along onto the survivor";
  cluster.client(0).Close(open.handle, 13 * kSecond);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kReopen).calls, 0);
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 0);
}

// ---------------- Determinism -----------------------------------------------

RpcLedger RunReplicatedFaultedWorkload() {
  EventQueue queue;
  Cluster cluster(ReplCluster(3, 2), queue);
  FaultSchedule schedule = ParseFaultSchedule("crash:0@20+15,crash:1@60+10");
  ApplyFaultSchedule(cluster, schedule);
  cluster.StartDaemons();
  Rng rng(7);
  SimTime now = 0;
  for (int i = 0; i < 150; ++i) {
    now += static_cast<SimTime>(rng.NextBelow(kSecond));
    queue.RunUntil(now);
    Client& client = cluster.client(static_cast<ClientId>(rng.NextBelow(3)));
    auto open = client.Open(1, rng.NextBelow(10), OpenMode::kReadWrite,
                            OpenDisposition::kNormal, false, now);
    client.Write(open.handle, 1 + static_cast<int64_t>(rng.NextBelow(30000)), now);
    client.Close(open.handle, now);
  }
  queue.RunUntil(now + kMinute);
  return cluster.rpc_ledger();
}

TEST(ReplicationTest, ReplicatedFaultedRunsAreDeterministic) {
  const RpcLedger first = RunReplicatedFaultedWorkload();
  const RpcLedger second = RunReplicatedFaultedWorkload();
  EXPECT_GT(first.TotalCalls(), 0);
  EXPECT_EQ(first, second) << "same seed, same crashes, same ledger";
  EXPECT_GT(first.stat(RpcKind::kShadowOpen).calls, 0) << "the shadow stream ran";
  EXPECT_EQ(first.stat(RpcKind::kReopen).calls, 0)
      << "both crashes found a live shadow: no reopen storm anywhere";
  EXPECT_TRUE(first.by_epoch.empty());
}

}  // namespace
}  // namespace sprite
