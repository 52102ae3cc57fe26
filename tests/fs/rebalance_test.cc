// Adversarial tests for live shard rebalancing: the Rebalancer's policy
// (victim caps, budget, destination choice, bounded resize, dissolved
// bookkeeping) against a fake host, and the Cluster's charged migration
// protocol against open handles, delayed-writeback dirty state, crash
// schedules on every corner of a move (hot server down, source after,
// destination after), replication backup hand-off, live resize with and
// without replication, same-seed determinism, and the off-mode purity gate.

#include "src/fs/rebalance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/fs/cluster.h"
#include "src/fs/placement.h"
#include "src/util/rng.h"

namespace sprite {
namespace {

// ---------------- Fake host: policy unit tests ------------------------------

class FakeHost : public RebalanceHost {
 public:
  FakeHost(int servers, const Placement* placement) : files_(servers), placement_(placement) {}

  void Put(ServerId server, FileId file, int64_t bytes) { files_[server][file] = bytes; }
  void AddEmptyServer() { files_.emplace_back(); }

  std::vector<std::pair<FileId, int64_t>> HomedFiles(ServerId server) const override {
    return {files_[server].begin(), files_[server].end()};  // std::map: sorted by id
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
    outcome.latency = 10;
    files_[to][file] = it->second;
    files_[from].erase(it);
    ++migrate_calls_;
    return outcome;
  }

  ServerId HomeOf(FileId file) const {
    for (size_t s = 0; s < files_.size(); ++s) {
      if (files_[s].count(file) != 0) {
        return static_cast<ServerId>(s);
      }
    }
    return kNoServer;
  }

  // The (file, server) census over live servers, sorted by file id.
  std::vector<std::pair<FileId, ServerId>> Census() const {
    std::vector<std::pair<FileId, ServerId>> census;
    for (size_t s = 0; s < files_.size(); ++s) {
      if (!placement_->IsRetired(static_cast<ServerId>(s))) {
        for (const auto& [file, bytes] : files_[s]) {
          census.emplace_back(file, static_cast<ServerId>(s));
        }
      }
    }
    std::sort(census.begin(), census.end());
    return census;
  }

  std::vector<std::map<FileId, int64_t>> files_;
  const Placement* placement_;
  int migrate_calls_ = 0;
};

HotspotEvent Opened(int server) {
  HotspotEvent ev;
  ev.kind = HotspotEvent::Kind::kOpened;
  ev.episode.server = server;
  return ev;
}

HotspotEvent Closed(int server) {
  HotspotEvent ev;
  ev.kind = HotspotEvent::Kind::kClosed;
  ev.episode.server = server;
  return ev;
}

TEST(RebalancerPolicyTest, BurstMovesHeaviestFilesSpreadOverLightestPeers) {
  Placement placement(ShardingConfig{}, 3, /*replicated=*/false);
  FakeHost host(3, &placement);
  host.Put(0, 100, 10 * kMegabyte);
  host.Put(0, 101, 8 * kMegabyte);
  host.Put(0, 102, 6 * kMegabyte);
  host.Put(0, 103, 5 * kMegabyte);
  host.Put(0, 104, 4 * kMegabyte);
  host.Put(0, 105, 2 * kKilobyte);  // below min_victim_bytes: never moves
  Rebalancer reb(RebalanceConfig{.enabled = true}, &placement, &host);

  EXPECT_EQ(reb.OnWindow({Opened(0)}, kMinute), 4) << "max_files_per_episode caps the burst";
  EXPECT_EQ(reb.migrations(), 4);
  EXPECT_EQ(reb.moved_bytes(), (10 + 8 + 6 + 5) * kMegabyte) << "heaviest four, not id order";
  EXPECT_EQ(host.HomeOf(104), 0u) << "fifth victim stays: file cap reached";
  EXPECT_EQ(host.HomeOf(105), 0u);
  EXPECT_EQ(placement.file_homes(), 4);
  for (FileId f = 100; f <= 103; ++f) {
    EXPECT_NE(placement.Home(f), 0u);
    EXPECT_EQ(placement.Home(f), host.HomeOf(f)) << "router and host agree on file " << f;
  }
  // Destination is re-picked per victim by lightest-bytes, so the burst
  // spreads over both peers instead of dogpiling one.
  EXPECT_GT(host.files_[1].size(), 0u);
  EXPECT_GT(host.files_[2].size(), 0u);
}

TEST(RebalancerPolicyTest, EpisodeByteCapSkipsOversizeVictimButFitsSmaller) {
  Placement placement(ShardingConfig{}, 2, /*replicated=*/false);
  FakeHost host(2, &placement);
  host.Put(0, 200, 40 * kMegabyte);
  host.Put(0, 201, 30 * kMegabyte);
  host.Put(0, 202, 20 * kMegabyte);
  Rebalancer reb(RebalanceConfig{.enabled = true}, &placement, &host);

  // 40 moves; 40+30 would blow the 64 MB episode cap so 201 is skipped, but
  // the smaller 202 still fits (40+20 = 60).
  EXPECT_EQ(reb.OnWindow({Opened(0)}, kMinute), 2);
  EXPECT_EQ(host.HomeOf(200), 1u);
  EXPECT_EQ(host.HomeOf(201), 0u);
  EXPECT_EQ(host.HomeOf(202), 1u);
}

TEST(RebalancerPolicyTest, GlobalBudgetStopsHotSpotMigrations) {
  Placement placement(ShardingConfig{}, 2, /*replicated=*/false);
  FakeHost host(2, &placement);
  host.Put(0, 300, 10 * kMegabyte);
  host.Put(0, 301, 8 * kMegabyte);
  RebalanceConfig config;
  config.enabled = true;
  config.max_total_bytes = 15 * kMegabyte;
  Rebalancer reb(config, &placement, &host);

  EXPECT_EQ(reb.OnWindow({Opened(0)}, kMinute), 1) << "only the 10 MB victim fits the budget";
  EXPECT_EQ(reb.moved_bytes(), 10 * kMegabyte);
  EXPECT_FALSE(reb.BudgetExhausted()) << "5 MB left";
  EXPECT_EQ(reb.OnWindow({Opened(0)}, 2 * kMinute), 0) << "8 MB victim still over budget";
  EXPECT_EQ(host.HomeOf(301), 0u);
  EXPECT_NE(reb.Report().find("budget: 10485760 / 15728640"), std::string::npos);
}

TEST(RebalancerPolicyTest, ClosedEpisodeMarksBurstDissolved) {
  Placement placement(ShardingConfig{}, 2, /*replicated=*/false);
  FakeHost host(2, &placement);
  host.Put(0, 400, 5 * kMegabyte);
  Rebalancer reb(RebalanceConfig{.enabled = true}, &placement, &host);

  EXPECT_EQ(reb.OnWindow({Opened(0)}, kMinute), 1);
  ASSERT_EQ(reb.actions().size(), 1u);
  EXPECT_FALSE(reb.actions()[0].dissolved);
  EXPECT_NE(reb.Report().find("still hot at end of run"), std::string::npos);

  reb.OnWindow({Closed(0)}, 5 * kMinute);
  EXPECT_TRUE(reb.actions()[0].dissolved);
  EXPECT_NE(reb.Report().find("hot spot dissolved"), std::string::npos);
  EXPECT_NE(reb.Report().find("hot spots dissolved: 1/1 bursts"), std::string::npos);
}

TEST(RebalancerPolicyTest, DownOrDeadHotServerIsLeftAlone) {
  Placement placement(ShardingConfig{}, 2, /*replicated=*/false);
  FakeHost host(2, &placement);
  host.Put(0, 500, 5 * kMegabyte);
  Rebalancer reb(RebalanceConfig{.enabled = true}, &placement, &host);

  placement.ExtendOutage(0, 2 * kMinute);
  EXPECT_EQ(reb.OnWindow({Opened(0)}, kMinute), 0) << "never pull from a crashed server";
  placement.ExtendOutage(1, 3 * kMinute);
  EXPECT_EQ(reb.OnWindow({Opened(0)}, 2 * kMinute), 0) << "no live destination";
  EXPECT_EQ(host.migrate_calls_, 0);
}

TEST(RebalancerPolicyTest, AddServerStealsABoundedSliceOnly) {
  constexpr int kFiles = 300;
  Placement placement(ShardingConfig{}, 2, /*replicated=*/false);
  FakeHost host(2, &placement);
  for (FileId f = 0; f < kFiles; ++f) {
    host.Put(placement.Home(f), f, 8 * kKilobyte);
  }
  const auto census = host.Census();
  Rebalancer reb(RebalanceConfig{.enabled = true}, &placement, &host);

  host.AddEmptyServer();
  ASSERT_EQ(placement.AddServer(), 2u);
  const auto moves = reb.Resettle(census, kMinute);
  // The steal is ~1/(live+1) = 1/3 of the id space, not a full reshuffle.
  EXPECT_GT(moves.size(), kFiles / 6u);
  EXPECT_LT(moves.size(), kFiles / 2u);
  for (const auto& move : moves) {
    EXPECT_EQ(move.to, 2u) << "an add only pulls files TO the newcomer";
    EXPECT_EQ(host.HomeOf(move.file), 2u);
  }
  for (FileId f = 0; f < kFiles; ++f) {
    EXPECT_EQ(placement.Home(f), host.HomeOf(f)) << "file " << f;
  }
  EXPECT_EQ(reb.migrations(), 0) << "resize moves are not hot-spot migrations";
  EXPECT_EQ(static_cast<size_t>(reb.resize_moved_bytes()), moves.size() * 8 * kKilobyte);
}

TEST(RebalancerPolicyTest, RetireEvacuatesEverythingAndRewritesStaleOverrides) {
  Placement placement(ShardingConfig{}, 3, /*replicated=*/false);
  FakeHost host(3, &placement);
  for (FileId f = 0; f < 60; ++f) {
    // Below min_victim_bytes: hot-spot bursts skip these, retire must not.
    host.Put(placement.Home(f), f, 2 * kKilobyte);
  }
  Rebalancer reb(RebalanceConfig{.enabled = true}, &placement, &host);

  // Install a file home pointing at server 2 via a hot-spot burst on 0.
  host.Put(1, 1000, kMegabyte);  // bias: make server 2 the lightest destination
  host.Put(0, 999, 5 * kMegabyte);
  ASSERT_EQ(reb.OnWindow({Opened(0)}, kMinute), 1);
  ASSERT_EQ(placement.Home(999), 2u);

  const auto census = host.Census();
  const size_t on_retiree = host.files_[2].size();
  placement.RetireServer(2);
  const auto moves = reb.Resettle(census, 2 * kMinute);
  EXPECT_EQ(moves.size(), on_retiree) << "a retire evacuates every file, no budget";
  EXPECT_TRUE(host.files_[2].empty());
  for (FileId f = 0; f < 60; ++f) {
    EXPECT_NE(placement.Home(f), 2u) << "nothing routes to a retired server";
    EXPECT_EQ(placement.Home(f), host.HomeOf(f)) << "file " << f;
  }
  EXPECT_EQ(placement.file_homes(), 1);
  EXPECT_NE(placement.Home(999), 2u) << "the stale file home was rewritten off the retiree";
  EXPECT_EQ(placement.Home(999), host.HomeOf(999));
}

// ---------------- Cluster: the charged protocol -----------------------------

ClusterConfig RebCluster(int clients = 2, int servers = 3) {
  ClusterConfig config;
  config.num_clients = clients;
  config.num_servers = servers;
  config.client.memory_bytes = 4 * kMegabyte;
  config.rebalance.enabled = true;
  return config;
}

// Creates `file` with `bytes` of durable content homed per current routing.
void Seed(Cluster& cluster, FileId file, int64_t bytes, SimTime now) {
  auto open = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, now);
  cluster.client(0).Write(open.handle, bytes, now);
  cluster.client(0).Fsync(open.handle, now);
  cluster.client(0).Close(open.handle, now);
}

TEST(RebalanceClusterTest, MigrateWhileOpenKeepsHandleValidAndMovesOpenState) {
  EventQueue queue;
  Cluster cluster(RebCluster(), queue);
  const FileId file = 3;  // modulo, 3 servers: home 0
  Seed(cluster, file, 64 * kKilobyte, 0);

  auto open = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, kSecond);
  cluster.client(0).Write(open.handle, 32 * kKilobyte, kSecond);  // dirty, delayed writeback

  EXPECT_EQ(cluster.MigrateOffServer(0, 2 * kSecond), 1);
  ASSERT_NE(cluster.rebalancer(), nullptr);
  EXPECT_EQ(cluster.placement().file_homes(), 1);
  const ServerId dest = cluster.placement().Home(file);
  EXPECT_NE(dest, 0u);
  EXPECT_EQ(cluster.server(dest).open_state_count(), 1)
      << "the live open registration travelled with the home";
  EXPECT_EQ(cluster.server(0).open_state_count(), 0);
  EXPECT_FALSE(cluster.server(0).FileExists(file));
  EXPECT_TRUE(cluster.server(dest).FileExists(file));

  // The client keeps using the same handle: the delayed dirty data lands on
  // the new home, the close is accepted there, and nothing went stale.
  cluster.client(0).Fsync(open.handle, 3 * kSecond);
  cluster.client(0).Close(open.handle, 4 * kSecond);
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 0);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kReopen).calls, 0);
  EXPECT_EQ(cluster.server(dest).open_state_count(), 0) << "closed cleanly on the new home";

  // The move itself was charged wire traffic.
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kMigrateState).calls, 1);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kMigrateCommit).calls, 1);
}

TEST(RebalanceClusterTest, CrashScheduleNeverStrandsAFileOrLosesDirtyBytes) {
  EventQueue queue;
  Cluster cluster(RebCluster(), queue);
  const FileId file = 3;  // home 0
  Seed(cluster, file, 64 * kKilobyte, 0);

  // Hot server crashed: the burst is refused outright, nothing half-moves.
  cluster.CrashServer(0, 5 * kSecond);
  EXPECT_EQ(cluster.MigrateOffServer(0, kSecond), 0);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kMigrateState).calls, 0);
  queue.RunUntil(20 * kSecond);  // reboot + recovery grace

  // Put fresh dirty bytes on the source's cache, then migrate: the protocol
  // flushes them to the source disk before the image moves.
  auto open = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, 20 * kSecond);
  cluster.client(0).Write(open.handle, 32 * kKilobyte, 20 * kSecond);
  cluster.client(0).Fsync(open.handle, 20 * kSecond);  // dirty now sits in server 0's cache
  cluster.client(0).Close(open.handle, 21 * kSecond);
  EXPECT_EQ(cluster.MigrateOffServer(0, 22 * kSecond), 1);
  const ServerId dest = cluster.placement().Home(file);
  EXPECT_GT(cluster.rpc_ledger().stat(RpcKind::kMigrateDirty).payload_bytes, 0)
      << "the flushed extents were charged to the wire";

  // Source crashes right after the move: the migrated file's dirty bytes
  // were flushed pre-move, so nothing of it is lost...
  EXPECT_EQ(cluster.CrashServer(0, 5 * kSecond), 0);
  // ...and the file still routes to its (live) new home.
  EXPECT_EQ(cluster.ServerForFile(file).id(), dest);
  EXPECT_TRUE(cluster.server(dest).FileExists(file));

  // Destination crashes next: the imported image is disk metadata, so the
  // file survives, stays routable, and reopens there after recovery.
  cluster.CrashServer(dest, 5 * kSecond);
  EXPECT_TRUE(cluster.server(dest).FileExists(file));
  EXPECT_EQ(cluster.ServerForFile(file).id(), dest);
  queue.RunUntil(60 * kSecond);
  auto reopened = cluster.client(1).Open(1, file, OpenMode::kRead, OpenDisposition::kNormal,
                                         false, 60 * kSecond);
  cluster.client(1).Close(reopened.handle, 61 * kSecond);
  EXPECT_EQ(cluster.client(1).stale_handle_count(), 0);
}

TEST(RebalanceClusterTest, MigrationUnderReplicationMovesTheBackupToo) {
  ClusterConfig config = RebCluster();
  config.replication.enabled = true;
  EventQueue queue;
  Cluster cluster(config, queue);
  const FileId file = 3;  // home slot 0, standby slot 1
  Seed(cluster, file, 64 * kKilobyte, 0);

  auto open = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, kSecond);
  cluster.client(0).Write(open.handle, 8 * kKilobyte, kSecond);
  cluster.client(0).Fsync(open.handle, kSecond);
  EXPECT_TRUE(cluster.server(1).HasShadowOpen(file, 0)) << "pre-move shadow on slot 0's standby";

  EXPECT_EQ(cluster.MigrateOffServer(0, 2 * kSecond), 1);
  const ServerId new_home = cluster.placement().Home(file);
  const ServerId new_standby = cluster.placement().Standby(new_home);
  EXPECT_TRUE(cluster.server(new_standby).HasShadowOpen(file, 0))
      << "the backup followed the home: the new standby shadows the live open";
  if (new_standby != 1) {
    EXPECT_FALSE(cluster.server(1).HasShadowOpen(file, 0)) << "the old standby dropped it";
  }

  // Crash the new home: fail-over must find the shadow on the NEW standby —
  // no reopen storm, handle stays valid, dirty bytes survive.
  cluster.CrashServer(new_home, 10 * kSecond);
  EXPECT_GE(cluster.failovers(), 1);
  EXPECT_EQ(cluster.degraded_crashes(), 0);
  cluster.client(0).Write(open.handle, 4 * kKilobyte, 11 * kSecond);
  cluster.client(0).Close(open.handle, 12 * kSecond);
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 0);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kReopen).calls, 0);
}

TEST(RebalanceClusterTest, AddAndRetireKeepEveryFileRoutableOnLiveServers) {
  EventQueue queue;
  Cluster cluster(RebCluster(2, 2), queue);
  constexpr FileId kFiles = 24;
  for (FileId f = 0; f < kFiles; ++f) {
    Seed(cluster, f, 16 * kKilobyte, 0);
  }

  const ServerId added = cluster.AddServer();
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(cluster.num_servers(), 3);
  EXPECT_GT(cluster.server(added).AllFileIds().size(), 0u) << "the newcomer stole a slice";
  EXPECT_LT(cluster.server(added).AllFileIds().size(), kFiles / 2) << "...a bounded one";

  cluster.RetireServer(0);
  EXPECT_TRUE(cluster.server(0).AllFileIds().empty()) << "retire evacuates everything";
  for (FileId f = 0; f < kFiles; ++f) {
    const ServerId home = cluster.ServerForFile(f).id();
    EXPECT_NE(home, 0u) << "file " << f << " routed to the retiree";
    EXPECT_TRUE(cluster.server(home).FileExists(f)) << "file " << f;
  }
  // The evacuated files stay usable end to end.
  auto open = cluster.client(1).Open(1, 0, OpenMode::kReadWrite, OpenDisposition::kNormal,
                                     false, kSecond);
  cluster.client(1).Write(open.handle, 4 * kKilobyte, kSecond);
  cluster.client(1).Close(open.handle, 2 * kSecond);
  EXPECT_EQ(cluster.client(1).stale_handle_count(), 0);

  EXPECT_THROW(cluster.RetireServer(0), std::logic_error) << "already retired";
  EXPECT_THROW(cluster.RetireServer(7), std::logic_error) << "unknown server";
}

TEST(RebalanceClusterTest, AddedServerGetsALinkRecorderUnderContention) {
  // Regression: the per-link queueing recorders were sized once when
  // observability attached, so a server added later on a contended network
  // had its link queueing silently dropped.
  EventQueue queue;
  ClusterConfig config = RebCluster(2, 2);
  config.network.contention = true;
  config.observability.metrics = true;
  Cluster cluster(config, queue);
  const ServerId added = cluster.AddServer();
  FileId file = 0;
  while (file < 1000 && cluster.ServerForFile(file).id() != added) {
    ++file;
  }
  ASSERT_EQ(cluster.ServerForFile(file).id(), added);
  Seed(cluster, file, 16 * kKilobyte, kSecond);

  const MetricsRegistry& metrics = cluster.observability()->metrics();
  EXPECT_NE(metrics.FindLatency("net.link.0.queued_us"), nullptr);
  const LatencyRecorder* rec = metrics.FindLatency("net.link.2.queued_us");
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(cluster.rpc_ledger().by_server.at(added).calls, 0);
  EXPECT_GT(rec->count(), 0) << "every exchange to the new server records its queueing";
}

// ---------------- Determinism and the off-mode gate --------------------------

RpcLedger RunRebalancedWorkload(std::string* report) {
  EventQueue queue;
  Cluster cluster(RebCluster(3, 2), queue);
  cluster.StartDaemons();
  Rng rng(11);
  SimTime now = 0;
  for (int i = 0; i < 120; ++i) {
    now += static_cast<SimTime>(rng.NextBelow(kSecond));
    queue.RunUntil(now);
    Client& client = cluster.client(static_cast<ClientId>(rng.NextBelow(3)));
    auto open = client.Open(1, rng.NextBelow(12), OpenMode::kReadWrite,
                            OpenDisposition::kNormal, false, now);
    client.Write(open.handle, 1 + static_cast<int64_t>(rng.NextBelow(30000)), now);
    client.Close(open.handle, now);
    if (i == 40) {
      cluster.MigrateOffServer(0, now);
    }
    if (i == 60) {
      cluster.AddServer();
    }
    if (i == 80) {
      cluster.RetireServer(1);
    }
  }
  queue.RunUntil(now + kMinute);
  *report = cluster.RebalanceReport();
  return cluster.rpc_ledger();
}

TEST(RebalanceClusterTest, SameSeedRebalancedRunsAreByteIdentical) {
  std::string first_report;
  std::string second_report;
  const RpcLedger first = RunRebalancedWorkload(&first_report);
  const RpcLedger second = RunRebalancedWorkload(&second_report);
  EXPECT_GT(first.TotalCalls(), 0);
  EXPECT_EQ(first, second) << "same seed, same migrations, same wire";
  EXPECT_EQ(first_report, second_report);
  EXPECT_GT(first.stat(RpcKind::kMigrateCommit).calls, 0) << "the resize sweeps really moved";
}

TEST(RebalanceClusterTest, OffModeHasNoRebalanceMachinery) {
  ClusterConfig config = RebCluster();
  config.rebalance.enabled = false;
  EventQueue queue;
  Cluster cluster(config, queue);
  EXPECT_EQ(cluster.rebalancer(), nullptr);
  EXPECT_NE(cluster.RebalanceReport().find("rebalancing disabled"), std::string::npos);
  EXPECT_THROW(cluster.MigrateOffServer(0, 0), std::logic_error);
  EXPECT_THROW(cluster.AddServer(), std::logic_error);
  EXPECT_THROW(cluster.RetireServer(0), std::logic_error);

  Seed(cluster, 3, 64 * kKilobyte, 0);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kMigrateState).calls, 0);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kMigrateDirty).calls, 0);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kMigrateCommit).calls, 0);
}

// ---------------- Resize under replication ----------------------------------

ClusterConfig ReplicatedRebCluster(int clients, int servers) {
  ClusterConfig config = RebCluster(clients, servers);
  config.replication.enabled = true;
  return config;
}

// Opens `file` for write on client 0, writes `bytes` and fsyncs them, so
// they sit dirty in the serving server's cache, shadowed by its standby.
Client::OpenResult HoldDirty(Cluster& cluster, FileId file, int64_t bytes, SimTime now) {
  auto open = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, now);
  cluster.client(0).Write(open.handle, bytes, now);
  cluster.client(0).Fsync(open.handle, now);
  return open;
}

ServerId ServingServer(const Cluster& cluster, FileId file) {
  return cluster.placement().Active(cluster.placement().Home(file));
}

void ExpectEveryFileRoutable(Cluster& cluster, FileId files) {
  for (FileId f = 0; f < files; ++f) {
    const ServerId server = cluster.ServerForFile(f).id();
    EXPECT_FALSE(cluster.placement().IsRetired(server)) << "file " << f;
    EXPECT_TRUE(cluster.server(server).FileExists(f)) << "file " << f;
  }
}

TEST(RebalanceClusterTest, AddThenRetireUnderReplicationKeepsTheRingAndFailsOver) {
  EventQueue queue;
  Cluster cluster(ReplicatedRebCluster(2, 3), queue);
  constexpr FileId kFiles = 24;
  for (FileId f = 0; f < kFiles; ++f) {
    Seed(cluster, f, 16 * kKilobyte, 0);
  }
  const FileId file = 4;
  const auto open = HoldDirty(cluster, file, 8 * kKilobyte, kSecond);

  EXPECT_EQ(cluster.AddServer(), 3u);
  EXPECT_EQ(cluster.placement().Standby(2), 3u) << "the newcomer backs up its ring predecessor";
  EXPECT_EQ(cluster.placement().Standby(3), 0u);
  cluster.RetireServer(1);
  EXPECT_TRUE(cluster.server(1).AllFileIds().empty()) << "the retiree holds no file";
  ExpectEveryFileRoutable(cluster, kFiles);

  cluster.client(0).Write(open.handle, 4 * kKilobyte, 2 * kSecond);
  cluster.client(0).Fsync(open.handle, 2 * kSecond);
  const int64_t dirty = cluster.CrashServer(ServingServer(cluster, file), 10 * kSecond);
  EXPECT_GT(dirty, 0);
  EXPECT_EQ(cluster.failovers(), 1);
  EXPECT_EQ(cluster.degraded_crashes(), 0);
  EXPECT_EQ(cluster.failover_preserved_bytes(), dirty) << "the rebuilt shadow covered it all";
  cluster.client(0).Write(open.handle, 4 * kKilobyte, 3 * kSecond);
  cluster.client(0).Close(open.handle, 4 * kSecond);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kReopen).calls, 0);
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 0);
}

TEST(RebalanceClusterTest, NewServerCrashingRightAfterItsStealFailsOver) {
  EventQueue queue;
  Cluster cluster(ReplicatedRebCluster(2, 3), queue);
  constexpr FileId kFiles = 24;
  for (FileId f = 0; f < kFiles; ++f) {
    Seed(cluster, f, 16 * kKilobyte, 0);
  }
  const ServerId added = cluster.AddServer();
  FileId stolen = 0;
  while (stolen < kFiles && ServingServer(cluster, stolen) != added) {
    ++stolen;
  }
  ASSERT_LT(stolen, kFiles) << "the newcomer stole nothing";
  const auto open = HoldDirty(cluster, stolen, 8 * kKilobyte, 0);

  const int64_t dirty = cluster.CrashServer(added, 10 * kSecond);
  EXPECT_GT(dirty, 0);
  EXPECT_EQ(cluster.failovers(), 1);
  EXPECT_EQ(cluster.degraded_crashes(), 0);
  EXPECT_EQ(cluster.failover_preserved_bytes(), dirty);
  ExpectEveryFileRoutable(cluster, kFiles);
  cluster.client(0).Write(open.handle, 4 * kKilobyte, kSecond);
  cluster.client(0).Close(open.handle, 2 * kSecond);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kReopen).calls, 0);
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 0);
}

TEST(RebalanceClusterTest, FailoverRightAfterARetirePreservesTheMovedFile) {
  EventQueue queue;
  Cluster cluster(ReplicatedRebCluster(2, 4), queue);
  constexpr FileId kFiles = 24;
  for (FileId f = 0; f < kFiles; ++f) {
    Seed(cluster, f, 16 * kKilobyte, 0);
  }
  const FileId file = 1;  // modulo, 4 servers: home 1
  const auto open = HoldDirty(cluster, file, 8 * kKilobyte, 0);

  cluster.RetireServer(1);
  const ServerId moved_to = ServingServer(cluster, file);
  EXPECT_NE(moved_to, 1u) << "the file moved off the retiree";
  EXPECT_EQ(cluster.server(moved_to).open_state_count(), 1) << "its open travelled along";
  cluster.client(0).Write(open.handle, 4 * kKilobyte, 0);
  cluster.client(0).Fsync(open.handle, 0);
  const int64_t dirty = cluster.CrashServer(moved_to, 10 * kSecond);
  EXPECT_GT(dirty, 0);
  EXPECT_EQ(cluster.degraded_crashes(), 0);
  EXPECT_EQ(cluster.failover_preserved_bytes(), dirty);
  cluster.client(0).Close(open.handle, kSecond);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kReopen).calls, 0);
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 0);
}

TEST(RebalanceClusterTest, RetiringTheServerThatAbsorbedAHomeHandsItBack) {
  EventQueue queue;
  Cluster cluster(ReplicatedRebCluster(2, 3), queue);
  const FileId file = 3;  // modulo, 3 servers: home 0
  const auto open = HoldDirty(cluster, file, 8 * kKilobyte, 0);

  cluster.CrashServer(0, 5 * kSecond);
  ASSERT_EQ(cluster.placement().Active(0), 1u) << "home 0 failed over onto server 1";
  queue.RunUntil(10 * kSecond);  // server 0 rejoins as home 0's standby
  ASSERT_TRUE(cluster.placement().Shadowing(0));

  cluster.RetireServer(1);
  EXPECT_EQ(cluster.placement().Active(0), 0u) << "home 0 went back to server 0";
  EXPECT_EQ(cluster.server(0).open_state_count(), 1) << "with its open";
  EXPECT_TRUE(cluster.server(0).FileExists(file));
  cluster.client(0).Close(open.handle, 11 * kSecond);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kReopen).calls, 0);
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 0);
  EXPECT_EQ(cluster.server(0).open_state_count(), 0) << "closed cleanly on server 0";
}

// Regression: after a fail-over one server serves two homes, and a burst off
// it picked its other home as the lightest destination, so every victim's
// move was a no-op and the burst stalled.
TEST(RebalanceClusterTest, BurstSkipsHomesTheHotServerAlsoServes) {
  EventQueue queue;
  Cluster cluster(ReplicatedRebCluster(2, 3), queue);
  for (const FileId f : {1, 4}) {
    Seed(cluster, f, kMegabyte, 0);  // server 1
  }
  for (const FileId f : {2, 5, 8, 11}) {
    Seed(cluster, f, 2 * kMegabyte, 0);  // server 2
  }
  cluster.CrashServer(0, 5 * kSecond);  // home 0 fails over onto server 1
  queue.RunUntil(20 * kSecond);
  EXPECT_EQ(cluster.MigrateOffServer(1, 20 * kSecond), 2);
  EXPECT_EQ(cluster.server(1).HomedFiles().size(), 0u);
}

}  // namespace
}  // namespace sprite
