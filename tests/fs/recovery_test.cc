// Tests for the server crash-recovery protocol: volatile state loss, the
// reopen storm and stale-handle surfacing, asymmetric partitions and the
// stale-data tracker, fault-schedule parsing, and the determinism /
// observability-neutrality guarantees the paper tables depend on.

#include "src/fs/recovery.h"

#include <gtest/gtest.h>

#include "src/fs/cluster.h"
#include "src/util/rng.h"

namespace sprite {
namespace {

ClusterConfig SmallCluster(int clients = 2, int servers = 1) {
  ClusterConfig config;
  config.num_clients = clients;
  config.num_servers = servers;
  config.client.memory_bytes = 4 * kMegabyte;
  return config;
}

// ---------------- Crash: exact loss semantics --------------------------------

// A server crash mid-delayed-write loses exactly the blocks the cleaner had
// not flushed: dirty bytes sitting in the *server's* cache vanish, while
// dirty data still in a client's cache survives and is replayed via reopen.
TEST(RecoveryTest, ServerCrashLosesExactlyUnflushedServerBlocks) {
  EventQueue queue;
  Cluster cluster(SmallCluster(), queue);  // no daemons: nothing flushes
  const FileId file = 7;
  auto open = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, 0);
  cluster.client(0).Write(open.handle, 5000, 0);
  cluster.client(0).Fsync(open.handle, 0);  // 5000 dirty bytes now in the server cache
  cluster.client(0).Write(open.handle, 3000, 0);  // 3000 more, still client-side

  const int64_t lost = cluster.CrashServer(0, 10 * kSecond);
  EXPECT_EQ(lost, 5000) << "exactly the fsynced-but-unflushed server blocks";
  EXPECT_EQ(cluster.server(0).epoch(), 2u);
  EXPECT_EQ(cluster.server(0).open_state_count(), 0) << "open-state table is volatile";

  // The client continues after the reboot: its first RPC triggers the epoch
  // handshake, the handle is reopened (the dirty 3000 bytes are version-
  // consistent, so nothing is dropped), and the close proceeds normally.
  cluster.client(0).Close(open.handle, 13 * kSecond);
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 0);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kReopen).calls, 1);
  EXPECT_EQ(cluster.rpc_ledger().by_epoch.count(2), 1u) << "post-reboot traffic is epoch 2";
  EXPECT_EQ(cluster.server(0).open_state_count(), 0) << "reopened, then closed";
}

// ---------------- Reopen storms drain before normal service ------------------

TEST(RecoveryTest, ReopenStormDrainsBeforeNormalService) {
  EventQueue queue;
  Cluster cluster(SmallCluster(), queue);
  auto open = cluster.client(0).Open(1, 7, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, 0);
  cluster.client(0).Write(open.handle, 1000, 0);
  cluster.CrashServer(0, 10 * kSecond);

  // The client's first operation at the reboot instant replays its one open
  // handle (served during grace) and then waits out the rest of the grace
  // window before its own RPC is served: latency == grace + wire time.
  const SimDuration net = cluster.network().RpcTime(kControlRpcBytes);
  auto second = cluster.client(0).Open(1, 8, OpenMode::kRead, OpenDisposition::kNormal,
                                       false, 10 * kSecond);
  EXPECT_EQ(second.latency, cluster.config().rpc.recovery_grace + net);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kReopen).calls, 1);
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 0);
  cluster.client(0).Close(open.handle, 13 * kSecond);
  cluster.client(0).Close(second.handle, 13 * kSecond);
}

// ---------------- Stale handles ----------------------------------------------

// A conflicting writer gets in before the crashed client's reopen: the
// client's delayed writes belong to a superseded version, so the reopen
// fails, the dirty data is dropped, and the handle surfaces kStaleHandle —
// which the workload layer retries as a fresh open.
TEST(RecoveryTest, ConflictingWriterMakesReopenStale) {
  EventQueue queue;
  Cluster cluster(SmallCluster(), queue);
  const FileId file = 7;
  auto a = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                  false, 0);
  cluster.client(0).Write(a.handle, 2000, 0);  // dirty, delayed write
  cluster.CrashServer(0, 10 * kSecond);

  // Client 1 reaches the rebooted server first and rewrites the file; the
  // close bumps the version past client 0's cached dirty data.
  auto b = cluster.client(1).Open(2, file, OpenMode::kWrite, OpenDisposition::kTruncate,
                                  false, 13 * kSecond);
  cluster.client(1).Write(b.handle, 100, 13 * kSecond);
  cluster.client(1).Close(b.handle, 13 * kSecond);

  // Client 0's next RPC triggers its reopen storm; the reopen loses.
  cluster.client(0).Open(1, 8, OpenMode::kRead, OpenDisposition::kNormal, false,
                         14 * kSecond);
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 1);
  // I/O on a stale handle is a no-op (not a crash) until the workload layer
  // consumes the stale record.
  EXPECT_EQ(cluster.client(0).Read(a.handle, 100, 14 * kSecond), 0);

  // The workload layer's retry path: TakeStaleHandle yields everything
  // needed for a fresh open, and the fresh open succeeds.
  const auto info = cluster.client(0).TakeStaleHandle(a.handle);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->file, file);
  EXPECT_EQ(info->user, 1u);
  EXPECT_EQ(info->mode, OpenMode::kWrite);
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 0);
  auto retry = cluster.client(0).Open(info->user, info->file, info->mode,
                                      OpenDisposition::kNormal, info->migrated,
                                      15 * kSecond);
  cluster.client(0).Write(retry.handle, 500, 15 * kSecond);
  cluster.client(0).Close(retry.handle, 15 * kSecond);
  // A taken handle is gone for good; taking it again yields nothing (the
  // workload layer swaps in the fresh handle and never touches it again).
  EXPECT_FALSE(cluster.client(0).TakeStaleHandle(a.handle).has_value());
}

// ---------------- Asymmetric partitions --------------------------------------

TEST(RecoveryTest, PartitionDropsCallbacksAndFlagsStaleReads) {
  EventQueue queue;
  Cluster cluster(SmallCluster(), queue);
  const FileId file = 7;
  // Client 0 caches the file's blocks while healthy.
  auto r = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                  false, 0);
  cluster.client(0).Write(r.handle, 8000, 0);
  cluster.client(0).Close(r.handle, 0);
  auto r2 = cluster.client(0).Open(1, file, OpenMode::kRead, OpenDisposition::kNormal,
                                   false, kSecond);
  cluster.client(0).Read(r2.handle, 8000, kSecond);

  // Partition client 0 from the server, then let client 1 start writing the
  // same file: the server's cache-disable callback to client 0 is dropped,
  // so client 0 keeps serving possibly-stale data from its cache.
  cluster.PartitionClients(0, 0, 0, 10 * kSecond, 30 * kSecond);
  auto w = cluster.client(1).Open(2, file, OpenMode::kWrite, OpenDisposition::kNormal,
                                  false, 15 * kSecond);
  cluster.client(1).Write(w.handle, 100, 15 * kSecond);
  EXPECT_GE(cluster.stale_tracker().dropped_callbacks(), 1);
  EXPECT_TRUE(cluster.stale_tracker().IsFlagged(0, file));

  cluster.client(0).Seek(r2.handle, 0, 16 * kSecond);
  cluster.client(0).Read(r2.handle, 4000, 16 * kSecond);  // cache hit: silently stale
  EXPECT_GE(cluster.stale_tracker().stale_reads(), 1);
  EXPECT_EQ(cluster.stale_tracker().clients_affected().size(), 1u);

  // After the heal, re-syncing the file clears the flag.
  cluster.client(1).Close(w.handle, 17 * kSecond);
  cluster.client(0).Close(r2.handle, 31 * kSecond);
  auto fresh = cluster.client(0).Open(1, file, OpenMode::kRead, OpenDisposition::kNormal,
                                      false, 32 * kSecond);
  EXPECT_FALSE(cluster.stale_tracker().IsFlagged(0, file));
  cluster.client(0).Close(fresh.handle, 32 * kSecond);
}

// ---------------- Determinism & observability neutrality ---------------------

RpcLedger RunWithSchedule(const FaultSchedule& schedule, bool observe) {
  EventQueue queue;
  ClusterConfig config = SmallCluster(3, 1);
  config.observability.metrics = observe;
  config.observability.tracing = observe;
  Cluster cluster(config, queue);
  ApplyFaultSchedule(cluster, schedule);
  cluster.StartDaemons();
  Rng rng(7);
  SimTime now = 0;
  std::vector<HandleId> handles(3, 0);
  std::vector<ClientId> owners(3, 0);
  for (int i = 0; i < 200; ++i) {
    now += static_cast<SimTime>(rng.NextBelow(kSecond));
    queue.RunUntil(now);
    const ClientId c = static_cast<ClientId>(rng.NextBelow(3));
    Client& client = cluster.client(c);
    const int slot = static_cast<int>(rng.NextBelow(3));
    if (handles[slot] != 0) {
      // Mirrors the workload layer: a handle that went stale across a crash
      // is surrendered and retried as a fresh open.
      Client& owner = cluster.client(owners[slot]);
      if (const auto stale = owner.TakeStaleHandle(handles[slot])) {
        auto retry = owner.Open(stale->user, stale->file, stale->mode,
                                OpenDisposition::kNormal, stale->migrated, now);
        owner.Write(retry.handle, 100, now);
        owner.Close(retry.handle, now);
      } else {
        owner.Close(handles[slot], now);
      }
      handles[slot] = 0;
    }
    auto open = client.Open(1, rng.NextBelow(10), OpenMode::kReadWrite,
                            OpenDisposition::kNormal, false, now);
    client.Write(open.handle, 1 + static_cast<int64_t>(rng.NextBelow(30000)), now);
    handles[slot] = open.handle;
    owners[slot] = c;
  }
  queue.RunUntil(now + kMinute);
  return cluster.rpc_ledger();
}

TEST(RecoveryTest, CrashScheduleRunsAreDeterministic) {
  FaultSchedule schedule;
  schedule.crashes.push_back({0, 20 * kSecond, 15 * kSecond});
  schedule.partitions.push_back({1, 2, 0, 60 * kSecond, 20 * kSecond});
  const RpcLedger first = RunWithSchedule(schedule, /*observe=*/false);
  const RpcLedger second = RunWithSchedule(schedule, /*observe=*/false);
  EXPECT_GT(first.TotalCalls(), 0);
  EXPECT_EQ(first, second) << "same seed, same crash schedule, same ledger";
  EXPECT_GT(first.stat(RpcKind::kReopen).calls, 0) << "the crash must be felt";
  EXPECT_FALSE(first.by_epoch.empty());
}

TEST(RecoveryTest, ObservabilityDoesNotPerturbFaultedRuns) {
  FaultSchedule schedule;
  schedule.crashes.push_back({0, 20 * kSecond, 15 * kSecond});
  const RpcLedger dark = RunWithSchedule(schedule, /*observe=*/false);
  const RpcLedger lit = RunWithSchedule(schedule, /*observe=*/true);
  EXPECT_EQ(dark, lit) << "metrics/tracing must not change simulated behavior";
}

// ---------------- Fault-schedule parsing -------------------------------------

TEST(FaultScheduleTest, ParsesCrashAndPartitionEvents) {
  const FaultSchedule s = ParseFaultSchedule("crash:1@30+20,part:0-4x2@100+60");
  ASSERT_EQ(s.crashes.size(), 1u);
  EXPECT_EQ(s.crashes[0].server, 1u);
  EXPECT_EQ(s.crashes[0].at, 30 * kSecond);
  EXPECT_EQ(s.crashes[0].down_for, 20 * kSecond);
  ASSERT_EQ(s.partitions.size(), 1u);
  EXPECT_EQ(s.partitions[0].first_client, 0u);
  EXPECT_EQ(s.partitions[0].last_client, 4u);
  EXPECT_EQ(s.partitions[0].server, 2u);
  EXPECT_EQ(s.partitions[0].at, 100 * kSecond);
  EXPECT_EQ(s.partitions[0].heal_after, 60 * kSecond);
  EXPECT_TRUE(ParseFaultSchedule("").empty());
}

TEST(FaultScheduleTest, ParsesCorrelatedCrashGroups) {
  // A '+'-joined server list before the '@' crashes together: one CrashEvent
  // per member, identical window — the correlated-failure input that defeats
  // primary/backup replication.
  const FaultSchedule s = ParseFaultSchedule("crash:0+2+3@30+20,crash:1@90+5");
  ASSERT_EQ(s.crashes.size(), 4u);
  EXPECT_EQ(s.crashes[0].server, 0u);
  EXPECT_EQ(s.crashes[1].server, 2u);
  EXPECT_EQ(s.crashes[2].server, 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(s.crashes[i].at, 30 * kSecond);
    EXPECT_EQ(s.crashes[i].down_for, 20 * kSecond);
  }
  EXPECT_EQ(s.crashes[3].server, 1u);
  EXPECT_EQ(s.crashes[3].at, 90 * kSecond);
}

TEST(FaultScheduleTest, ParsesClientCrashEvents) {
  const FaultSchedule s = ParseFaultSchedule("ccrash:2@45,crash:0@60+10");
  ASSERT_EQ(s.client_crashes.size(), 1u);
  EXPECT_EQ(s.client_crashes[0].client, 2u);
  EXPECT_EQ(s.client_crashes[0].at, 45 * kSecond);
  ASSERT_EQ(s.crashes.size(), 1u);
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(ParseFaultSchedule("ccrash:0@1").crashes.empty());
}

TEST(FaultScheduleTest, RejectsMalformedSpecs) {
  EXPECT_THROW(ParseFaultSchedule("crash:1"), std::invalid_argument);
  EXPECT_THROW(ParseFaultSchedule("crash:x@1+1"), std::invalid_argument);
  EXPECT_THROW(ParseFaultSchedule("part:0x2@1+1"), std::invalid_argument);
  EXPECT_THROW(ParseFaultSchedule("boom:0@1+1"), std::invalid_argument);
  // Crash-group malformations: a duplicated member, a dangling '+', and a
  // group with no '@' window.
  EXPECT_THROW(ParseFaultSchedule("crash:0+0@1+1"), std::invalid_argument);
  EXPECT_THROW(ParseFaultSchedule("crash:0+@1+1"), std::invalid_argument);
  EXPECT_THROW(ParseFaultSchedule("crash:0+1+2"), std::invalid_argument);
  // Client-crash malformations: missing '@', trailing junk, no duration arm.
  EXPECT_THROW(ParseFaultSchedule("ccrash:1"), std::invalid_argument);
  EXPECT_THROW(ParseFaultSchedule("ccrash:1@"), std::invalid_argument);
  EXPECT_THROW(ParseFaultSchedule("ccrash:1@5+2"), std::invalid_argument);
}

TEST(FaultScheduleTest, ApplyRejectsOutOfRangeIds) {
  EventQueue queue;
  Cluster cluster(SmallCluster(2, 1), queue);
  FaultSchedule bad_server;
  bad_server.crashes.push_back({5, kSecond, kSecond});
  EXPECT_THROW(ApplyFaultSchedule(cluster, bad_server), std::invalid_argument);
  FaultSchedule bad_client;
  bad_client.partitions.push_back({0, 9, 0, kSecond, kSecond});
  EXPECT_THROW(ApplyFaultSchedule(cluster, bad_client), std::invalid_argument);
  FaultSchedule bad_ccrash;
  bad_ccrash.client_crashes.push_back({7, kSecond});
  EXPECT_THROW(ApplyFaultSchedule(cluster, bad_ccrash), std::invalid_argument);
}

TEST(FaultScheduleTest, AppliedClientCrashFires) {
  EventQueue queue;
  Cluster cluster(SmallCluster(2, 1), queue);
  auto open = cluster.client(0).Open(1, 7, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, 0);
  cluster.client(0).Write(open.handle, 1000, 0);
  ApplyFaultSchedule(cluster, ParseFaultSchedule("ccrash:0@5"));
  queue.RunUntil(6 * kSecond);
  EXPECT_EQ(cluster.client(0).open_handle_count(), 0) << "the reboot dropped every handle";
  EXPECT_EQ(cluster.server(0).open_state_count(), 0) << "the server was told";
}

// ---------------- Client reboot inside a server's grace window ----------------

// A client that crash-reboots while its server is still in the post-crash
// grace window must not resurrect its pre-crash handles: the reboot emptied
// its open table, so the epoch handshake replays nothing, and the old
// handles stay dead instead of surfacing as stale.
TEST(RecoveryTest, ClientRebootDuringGraceWindowResurrectsNothing) {
  EventQueue queue;
  Cluster cluster(SmallCluster(), queue);
  auto open = cluster.client(0).Open(1, 7, OpenMode::kWrite, OpenDisposition::kNormal,
                                     false, 0);
  cluster.client(0).Write(open.handle, 3000, 0);

  cluster.CrashServer(0, 10 * kSecond);
  // The server reboots at 10 s and then serves only reopen traffic for the
  // grace window; the client's reboot lands inside that window.
  queue.RunUntil(10 * kSecond);
  cluster.CrashClient(0, 10 * kSecond);
  EXPECT_EQ(cluster.client(0).open_handle_count(), 0);

  // First post-reboot RPC runs the epoch handshake; with no surviving
  // handles the reopen storm is empty.
  const SimTime after = 10 * kSecond + cluster.config().rpc.recovery_grace + kSecond;
  auto fresh = cluster.client(0).Open(1, 8, OpenMode::kRead, OpenDisposition::kNormal,
                                      false, after);
  EXPECT_EQ(cluster.rpc_ledger().stat(RpcKind::kReopen).calls, 0);
  EXPECT_EQ(cluster.client(0).stale_handle_count(), 0) << "dead, not stale";
  EXPECT_EQ(cluster.server(0).open_state_count(), 1) << "only the fresh open";

  // The pre-crash handle is below the crash watermark: I/O on it is a no-op
  // and it never reappears in any server table.
  EXPECT_EQ(cluster.client(0).Read(open.handle, 100, after + kSecond), 0);
  EXPECT_FALSE(cluster.client(0).TakeStaleHandle(open.handle).has_value());
  cluster.client(0).Close(fresh.handle, after + kSecond);
  EXPECT_EQ(cluster.server(0).open_state_count(), 0);
}

}  // namespace
}  // namespace sprite
