// Tests for the typed RPC transport: per-kind ledger accounting, the
// client-side ServerStub, fault injection (timeouts, bounded exponential
// backoff, blocked waits), trace replay, and determinism of the ledger
// across identical cluster runs.

#include "src/fs/rpc.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "src/fs/cluster.h"
#include "src/util/rng.h"

namespace sprite {
namespace {

// ---------------- Kind classification ---------------------------------------

TEST(RpcKindTest, ChargedKindsOccupyTheWire) {
  // Every kind's row in the kind table, pinned through the behavior it
  // drives so the table cannot reclassify a kind silently: the name, the
  // service lane (read back as the async service time), whether the kind
  // occupies the wire by default, whether it skips the client fault path
  // (callbacks), and whether batching defers it.
  enum Lane { kNoLane, kControl, kData };
  struct Row {
    RpcKind kind;
    const char* name;
    Lane lane;
    bool callback;
    bool batchable;
  };
  const Row rows[] = {
      {RpcKind::kOpen, "open", kControl, false, false},
      {RpcKind::kClose, "close", kControl, false, false},
      {RpcKind::kCreate, "create", kNoLane, false, true},
      {RpcKind::kDelete, "delete", kNoLane, false, true},
      {RpcKind::kTruncate, "truncate", kNoLane, false, true},
      {RpcKind::kGetAttr, "getattr", kNoLane, false, true},
      {RpcKind::kReadBlock, "read-block", kData, false, false},
      {RpcKind::kWriteBlock, "write-block", kData, false, false},
      {RpcKind::kUncachedRead, "uncached-read", kData, false, false},
      {RpcKind::kUncachedWrite, "uncached-write", kData, false, false},
      {RpcKind::kPageIn, "page-in", kData, false, false},
      {RpcKind::kPageOut, "page-out", kData, false, false},
      {RpcKind::kReadDir, "read-dir", kData, false, false},
      {RpcKind::kReopen, "reopen", kControl, false, false},
      {RpcKind::kRecallDirty, "recall-dirty", kNoLane, true, true},
      {RpcKind::kCacheDisable, "cache-disable", kNoLane, true, true},
      {RpcKind::kDiscardFile, "discard-file", kNoLane, true, true},
      // Replication shadow traffic is real wire traffic (the cost of running
      // primary/backup is the point of measuring it), yet batchable.
      {RpcKind::kShadowOpen, "shadow-open", kControl, false, true},
      {RpcKind::kShadowClose, "shadow-close", kControl, false, true},
      {RpcKind::kShadowWrite, "shadow-write", kData, false, true},
      {RpcKind::kBatch, "batch", kControl, false, false},
      {RpcKind::kMigrateState, "migrate-state", kControl, false, false},
      {RpcKind::kMigrateDirty, "migrate-dirty", kData, false, false},
      {RpcKind::kMigrateCommit, "migrate-commit", kControl, false, false},
  };
  ASSERT_EQ(std::size(rows), static_cast<size_t>(kRpcKindCount));

  RpcConfig async;
  async.async = true;
  async.control_service_time = 7;
  async.data_service_time = 11;
  EventQueue queue;
  Server server(0, ServerConfig{}, DiskConfig{});
  server.EnableServiceQueue(async, queue);
  RpcConfig batching;
  batching.batching = true;
  for (size_t i = 0; i < std::size(rows); ++i) {
    const Row& row = rows[i];
    SCOPED_TRACE(row.name);
    EXPECT_EQ(static_cast<size_t>(row.kind), i) << "rows follow enum order";
    EXPECT_STREQ(RpcKindName(row.kind), row.name);
    const SimDuration service = row.lane == kControl ? 7 : row.lane == kData ? 11 : 0;
    EXPECT_EQ(server.AdmitRequest(row.kind, 0, /*priority=*/true).service, service);

    // A kind occupies the wire exactly when it has a service lane.
    RpcTransport plain{NetworkConfig{}};
    EXPECT_EQ(plain.Call(row.kind, 0, 0, 0, 0) > 0, row.lane != kNoLane);

    RpcTransport faulted{NetworkConfig{}};
    faulted.SetServerUnavailable(0, 0, kSecond);
    faulted.Call(row.kind, 0, 0, 0, 0);
    EXPECT_EQ(faulted.ledger().stat(row.kind).timeouts == 0, row.callback);
    EXPECT_EQ(RpcKindInfoOf(row.kind).callback(), row.callback);

    RpcTransport batched{NetworkConfig{}, batching};
    batched.Call(row.kind, 0, 0, 0, 0);
    EXPECT_EQ(batched.ledger().batched_ops, row.batchable ? 1 : 0);
  }
}

TEST(RpcKindTest, CallbackKinds) {
  EXPECT_TRUE(RpcKindInfoOf(RpcKind::kRecallDirty).callback());
  EXPECT_TRUE(RpcKindInfoOf(RpcKind::kCacheDisable).callback());
  EXPECT_TRUE(RpcKindInfoOf(RpcKind::kDiscardFile).callback());
  EXPECT_FALSE(RpcKindInfoOf(RpcKind::kOpen).callback());
  EXPECT_FALSE(RpcKindInfoOf(RpcKind::kGetAttr).callback());
}

TEST(RpcKindTest, EveryKindHasAName) {
  for (int k = 0; k < kRpcKindCount; ++k) {
    EXPECT_STRNE(RpcKindName(static_cast<RpcKind>(k)), "unknown");
  }
}

// ---------------- Transport accounting ---------------------------------------

TEST(RpcTransportTest, InProcessTransportCountsButCostsNothing) {
  RpcTransport transport;  // no Network model
  EXPECT_EQ(transport.network(), nullptr);
  const SimDuration latency = transport.Call(RpcKind::kReadBlock, 3, 1, kBlockSize, 0);
  EXPECT_EQ(latency, 0);
  const RpcStat& s = transport.ledger().stat(RpcKind::kReadBlock);
  EXPECT_EQ(s.calls, 1);
  EXPECT_EQ(s.payload_bytes, kBlockSize);
  EXPECT_EQ(s.net_time, 0);
  EXPECT_EQ(transport.ledger().by_client.at(3).calls, 1);
  EXPECT_EQ(transport.ledger().by_server.at(1).calls, 1);
}

TEST(RpcTransportTest, NetworkedTransportChargesWire) {
  RpcTransport transport{NetworkConfig{}};
  const Network reference{NetworkConfig{}};
  const SimDuration latency = transport.Call(RpcKind::kReadBlock, 0, 0, kBlockSize, 0);
  EXPECT_EQ(latency, reference.RpcTime(kBlockSize));
  EXPECT_EQ(transport.network()->rpc_count(), 1);
  EXPECT_EQ(transport.network()->bytes_carried(), kBlockSize);
  EXPECT_EQ(transport.ledger().stat(RpcKind::kReadBlock).net_time, latency);
  // Ledger-only kinds never touch the wire.
  EXPECT_EQ(transport.Call(RpcKind::kGetAttr, 0, 0, 0, 0), 0);
  EXPECT_EQ(transport.network()->rpc_count(), 1);
  EXPECT_EQ(transport.ledger().stat(RpcKind::kGetAttr).calls, 1);
}

TEST(RpcTransportTest, ResetLedgerClearsEverything) {
  RpcTransport transport;
  transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, 0);
  ASSERT_EQ(transport.ledger().TotalCalls(), 1);
  transport.ResetLedger();
  EXPECT_EQ(transport.ledger().TotalCalls(), 0);
  EXPECT_TRUE(transport.ledger().by_client.empty());
  EXPECT_EQ(transport.ledger(), RpcLedger{});
}

// ---------------- ServerStub ------------------------------------------------

class RpcStubTest : public ::testing::Test {
 protected:
  RpcStubTest()
      : server_(0, ServerConfig{}, DiskConfig{}),
        stub_(/*client=*/2, server_, transport_) {}

  const RpcStat& stat(RpcKind kind) const { return transport_.ledger().stat(kind); }

  RpcTransport transport_;
  Server server_;
  ServerStub stub_;
};

TEST_F(RpcStubTest, EveryOperationLandsInTheLedger) {
  stub_.CreateFile(7, false, 0);
  EXPECT_TRUE(stub_.FileExists(7, 0));
  EXPECT_EQ(stub_.FileSize(7, 0), 0);

  const auto open = stub_.Open(7, OpenMode::kRead, false, 1);
  EXPECT_EQ(open.latency, 0) << "in-process transport is free";
  stub_.FetchBlock(7, 0, /*paging=*/false, 1);
  stub_.FetchBlock(7, 1, /*paging=*/true, 1);
  stub_.Writeback(7, 0, 1000, /*paging=*/false, 2);
  stub_.Writeback(7, 1, 2000, /*paging=*/true, 2);
  stub_.PassThroughRead(7, 64, 3);
  stub_.PassThroughWrite(7, 32, 3);
  stub_.ReadDirectory(9, 2048, 4);
  stub_.Close(7, OpenMode::kRead, false, 0, 5);
  stub_.TruncateFile(7, 6);
  stub_.DeleteFile(7, 7);

  EXPECT_EQ(stat(RpcKind::kCreate).calls, 1);
  EXPECT_EQ(stat(RpcKind::kGetAttr).calls, 2);
  EXPECT_EQ(stat(RpcKind::kOpen).calls, 1);
  EXPECT_EQ(stat(RpcKind::kOpen).payload_bytes, kControlRpcBytes);
  EXPECT_EQ(stat(RpcKind::kReadBlock).payload_bytes, kBlockSize);
  EXPECT_EQ(stat(RpcKind::kPageIn).payload_bytes, kBlockSize);
  EXPECT_EQ(stat(RpcKind::kWriteBlock).payload_bytes, 1000);
  EXPECT_EQ(stat(RpcKind::kPageOut).payload_bytes, 2000);
  EXPECT_EQ(stat(RpcKind::kUncachedRead).payload_bytes, 64);
  EXPECT_EQ(stat(RpcKind::kUncachedWrite).payload_bytes, 32);
  EXPECT_EQ(stat(RpcKind::kReadDir).payload_bytes, 2048);
  EXPECT_EQ(stat(RpcKind::kClose).calls, 1);
  EXPECT_EQ(stat(RpcKind::kTruncate).calls, 1);
  EXPECT_EQ(stat(RpcKind::kDelete).calls, 1);
  EXPECT_EQ(transport_.ledger().TotalCalls(), 14);
  EXPECT_EQ(transport_.ledger().by_client.at(2).calls, 14);

  // Table 7's byte view of the ledger matches the server's own counters.
  const ServerCounters derived = ServerTrafficFromLedger(transport_.ledger());
  EXPECT_EQ(derived.file_read_bytes, server_.counters().file_read_bytes);
  EXPECT_EQ(derived.file_write_bytes, server_.counters().file_write_bytes);
  EXPECT_EQ(derived.paging_read_bytes, server_.counters().paging_read_bytes);
  EXPECT_EQ(derived.paging_write_bytes, server_.counters().paging_write_bytes);
  EXPECT_EQ(derived.shared_read_bytes, server_.counters().shared_read_bytes);
  EXPECT_EQ(derived.shared_write_bytes, server_.counters().shared_write_bytes);
  EXPECT_EQ(derived.dir_read_bytes, server_.counters().dir_read_bytes);
}

// ---------------- Fault injection -------------------------------------------

// Worked example: timeout 500 ms, backoff 100 ms doubling to a 2 s cap,
// 3 retries, server down for the first 10 s, call issued at t=0.
//   attempt 1 at 0      -> timeout (+500), retry backoff 100
//   attempt 2 at 600ms  -> timeout (+500), retry backoff 200
//   attempt 3 at 1300ms -> timeout (+500), retry backoff 400
//   attempt 4 at 2200ms -> timeout (+500); budget spent, block until 10 s
RpcConfig TightRpcConfig() {
  RpcConfig config;
  config.timeout = 500 * kMillisecond;
  config.max_retries = 3;
  config.backoff_initial = 100 * kMillisecond;
  config.backoff_max = 2 * kSecond;
  return config;
}

TEST(RpcFaultTest, LongOutageExhaustsRetriesThenBlocks) {
  RpcTransport transport{NetworkConfig{}, TightRpcConfig()};
  transport.SetServerUnavailable(0, 0, 10 * kSecond);
  const SimDuration net = Network{NetworkConfig{}}.RpcTime(kControlRpcBytes);
  const SimDuration latency = transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, 0);
  EXPECT_EQ(latency, 10 * kSecond + net) << "waits until recovery, then the RPC goes through";
  const RpcStat& s = transport.ledger().stat(RpcKind::kOpen);
  EXPECT_EQ(s.timeouts, 4);
  EXPECT_EQ(s.retries, 3);
  EXPECT_EQ(s.blocked_waits, 1);
  EXPECT_EQ(s.wait_time, 10 * kSecond);
  EXPECT_EQ(s.net_time, net);
}

TEST(RpcFaultTest, ShortOutageEndsDuringBackoff) {
  RpcTransport transport{NetworkConfig{}, TightRpcConfig()};
  transport.SetServerUnavailable(0, 0, 700 * kMillisecond);
  const SimDuration net = Network{NetworkConfig{}}.RpcTime(kControlRpcBytes);
  // Two timeouts (at 0 and ~600 ms) and two jittered backoffs; the jitter is
  // at most a quarter of each base backoff, so the second retry still lands
  // inside the outage and the third attempt (at >= 1300 ms) succeeds without
  // spending the whole retry budget.
  const SimDuration jittered0 = RpcTransport::JitteredBackoffForAttempt(TightRpcConfig(), 0, 0);
  const SimDuration jittered1 = RpcTransport::JitteredBackoffForAttempt(TightRpcConfig(), 0, 1);
  const SimDuration latency = transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, 0);
  EXPECT_EQ(latency, 1000 * kMillisecond + jittered0 + jittered1 + net);
  const RpcStat& s = transport.ledger().stat(RpcKind::kOpen);
  EXPECT_EQ(s.timeouts, 2);
  EXPECT_EQ(s.retries, 2);
  EXPECT_EQ(s.blocked_waits, 0);
}

TEST(RpcFaultTest, CallsOutsideTheOutageAreUnaffected) {
  RpcTransport transport{NetworkConfig{}, TightRpcConfig()};
  transport.SetServerUnavailable(0, kSecond, 2 * kSecond);
  const SimDuration net = Network{NetworkConfig{}}.RpcTime(kControlRpcBytes);
  EXPECT_EQ(transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, 5 * kSecond), net);
  // A different server is never delayed.
  EXPECT_EQ(transport.Call(RpcKind::kOpen, 0, 1, kControlRpcBytes, kSecond), net);
  EXPECT_EQ(transport.ledger().stat(RpcKind::kOpen).timeouts, 0);
}

TEST(RpcFaultTest, CallbacksSkipFaultWaits) {
  // A down server issues no callbacks, so callback kinds are never delayed.
  RpcTransport transport{NetworkConfig{}, TightRpcConfig()};
  transport.SetServerUnavailable(0, 0, 10 * kSecond);
  EXPECT_EQ(transport.Call(RpcKind::kRecallDirty, 0, 0, 0, kSecond), 0);
  EXPECT_EQ(transport.ledger().stat(RpcKind::kRecallDirty).timeouts, 0);
}

TEST(RpcFaultTest, FaultWindowsAreHalfOpen) {
  // Regression for the dangling-outage edge: every fault interval is
  // [from, until), so a request issued exactly at `until` sees a healthy
  // server. A closed interval would charge it a full timeout/backoff cycle.
  RpcTransport transport{NetworkConfig{}, TightRpcConfig()};
  transport.SetServerUnavailable(0, kSecond, 2 * kSecond);
  transport.SetPartition(2, 1, kSecond, 2 * kSecond);
  const SimDuration net = Network{NetworkConfig{}}.RpcTime(kControlRpcBytes);
  EXPECT_EQ(transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, 2 * kSecond), net);
  EXPECT_EQ(transport.Call(RpcKind::kOpen, 2, 1, kControlRpcBytes, 2 * kSecond), net);
  EXPECT_EQ(transport.ledger().stat(RpcKind::kOpen).timeouts, 0);
  // Issued exactly at `from`: inside the window.
  EXPECT_GT(transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, kSecond), net);
  // Callback drops during a partition follow the same convention.
  EXPECT_TRUE(transport.CallbackDropped(1, 2, 9, /*flags_stale=*/true, kSecond));
  EXPECT_FALSE(transport.CallbackDropped(1, 2, 9, /*flags_stale=*/true, 2 * kSecond));
}

TEST(RpcFaultTest, PartitionDelaysOnlyThePartitionedClient) {
  RpcTransport transport{NetworkConfig{}, TightRpcConfig()};
  transport.SetPartition(1, 0, 0, 10 * kSecond);
  const SimDuration net = Network{NetworkConfig{}}.RpcTime(kControlRpcBytes);
  // Another client reaches the same server untouched: the partition is
  // asymmetric per (client, server) pair, not a server outage.
  EXPECT_EQ(transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, kSecond), net);
  // The partitioned client pays the full retry/blocked-wait sequence and is
  // served at the heal time.
  const SimDuration latency = transport.Call(RpcKind::kOpen, 1, 0, kControlRpcBytes, 0);
  EXPECT_EQ(latency, 10 * kSecond + net);
  EXPECT_EQ(transport.ledger().by_client.at(1).blocked_waits, 1);
  EXPECT_EQ(transport.ledger().by_client.at(0).timeouts, 0);
}

// ---------------- Retry backoff sequence --------------------------------------

TEST(RpcBackoffTest, DefaultsProduceExactClampedDoublingSequence) {
  // Regression for the backoff computation: the old code recomputed the
  // doubling from scratch each attempt and could overshoot before clamping.
  // Pin the exact per-attempt values with the defaults (initial 100 ms,
  // cap 2 s).
  const RpcConfig config;  // backoff_initial = 100 ms, backoff_max = 2 s
  EXPECT_EQ(RpcTransport::BackoffForAttempt(config, 0), 100 * kMillisecond);
  EXPECT_EQ(RpcTransport::BackoffForAttempt(config, 1), 200 * kMillisecond);
  EXPECT_EQ(RpcTransport::BackoffForAttempt(config, 2), 400 * kMillisecond);
  EXPECT_EQ(RpcTransport::BackoffForAttempt(config, 3), 800 * kMillisecond);
  EXPECT_EQ(RpcTransport::BackoffForAttempt(config, 4), 1600 * kMillisecond);
  // The next doubling would be 3200 ms; it clamps to the cap and stays there.
  EXPECT_EQ(RpcTransport::BackoffForAttempt(config, 5), 2 * kSecond);
  EXPECT_EQ(RpcTransport::BackoffForAttempt(config, 6), 2 * kSecond);
}

TEST(RpcBackoffTest, ClampsAtCapWithoutOvershoot) {
  RpcConfig config;
  config.backoff_initial = 600 * kMillisecond;
  config.backoff_max = kSecond;
  // 600 ms, then 1200 ms would overshoot: the clamp holds it at exactly 1 s.
  EXPECT_EQ(RpcTransport::BackoffForAttempt(config, 0), 600 * kMillisecond);
  EXPECT_EQ(RpcTransport::BackoffForAttempt(config, 1), kSecond);
  EXPECT_EQ(RpcTransport::BackoffForAttempt(config, 2), kSecond);
}

TEST(RpcBackoffTest, DegenerateConfigs) {
  // An initial above the cap starts clamped.
  RpcConfig above;
  above.backoff_initial = 5 * kSecond;
  above.backoff_max = kSecond;
  EXPECT_EQ(RpcTransport::BackoffForAttempt(above, 0), kSecond);
  EXPECT_EQ(RpcTransport::BackoffForAttempt(above, 3), kSecond);
  // A zero initial never grows (doubling zero is zero; no spin at the cap).
  RpcConfig zero;
  zero.backoff_initial = 0;
  EXPECT_EQ(RpcTransport::BackoffForAttempt(zero, 0), 0);
  EXPECT_EQ(RpcTransport::BackoffForAttempt(zero, 4), 0);
}

TEST(RpcBackoffTest, JitterIsDeterministicAndBounded) {
  // Retries from different clients after the same outage must not march in
  // lockstep; the jitter that breaks the thundering herd is seeded from the
  // (client, attempt) pair so a rerun of the same seed reproduces it exactly.
  const RpcConfig config;
  for (ClientId client = 0; client < 8; ++client) {
    for (int attempt = 0; attempt < 6; ++attempt) {
      const SimDuration base = RpcTransport::BackoffForAttempt(config, attempt);
      const SimDuration jittered = RpcTransport::JitteredBackoffForAttempt(config, client, attempt);
      EXPECT_GE(jittered, base);
      EXPECT_LE(jittered, base + base / 4);
      EXPECT_EQ(jittered, RpcTransport::JitteredBackoffForAttempt(config, client, attempt))
          << "same seed, same jitter";
    }
  }
}

TEST(RpcBackoffTest, JitterDesynchronizesClients) {
  // The point of the jitter: clients retrying after the same outage spread
  // out instead of hammering the rebooted server in the same microsecond.
  const RpcConfig config;
  std::set<SimDuration> first_backoffs;
  for (ClientId client = 0; client < 16; ++client) {
    first_backoffs.insert(RpcTransport::JitteredBackoffForAttempt(config, client, 0));
  }
  EXPECT_GT(first_backoffs.size(), 12u) << "16 clients should rarely collide";
}

TEST(RpcBackoffTest, JitterPinnedSequence) {
  // Pin the exact jittered values for client 0 with the default config
  // (initial 100 ms). Any change to the seeding or span arithmetic shifts
  // every committed fault-run baseline; this pin makes that visible here
  // instead of in a sim-hash diff.
  const RpcConfig config;
  EXPECT_EQ(RpcTransport::JitteredBackoffForAttempt(config, 0, 0),
            100 * kMillisecond + 18304);
  EXPECT_EQ(RpcTransport::JitteredBackoffForAttempt(config, 0, 1),
            200 * kMillisecond + 22253);
  EXPECT_EQ(RpcTransport::JitteredBackoffForAttempt(config, 1, 0),
            100 * kMillisecond + 827);
  // A zero base takes no jitter at all (no busy-spin on degenerate configs).
  RpcConfig zero;
  zero.backoff_initial = 0;
  EXPECT_EQ(RpcTransport::JitteredBackoffForAttempt(zero, 0, 0), 0);
}

// ---------------- Crash epochs and the reopen handshake -----------------------

TEST(RpcRecoveryTest, EpochHandshakeRunsReopenStormThenGraceWait) {
  RpcTransport transport{NetworkConfig{}, TightRpcConfig()};
  int storms = 0;
  transport.SetReopenHandler(0, [&](ServerId server, SimTime now) -> SimDuration {
    ++storms;
    EXPECT_EQ(server, 0u);
    EXPECT_GE(now, 10 * kSecond) << "the storm runs after the reboot, not before";
    return 50 * kMillisecond;
  });
  transport.ScheduleServerCrash(0, 0, 10 * kSecond, /*new_epoch=*/2);
  const SimDuration net = Network{NetworkConfig{}}.RpcTime(kControlRpcBytes);
  // A call issued at t=0 waits out the outage, detects the new epoch, runs
  // the reopen storm, then waits for the grace window to close (the 50 ms
  // storm fits inside the 2 s window).
  const SimDuration latency = transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, 0);
  EXPECT_EQ(latency, 10 * kSecond + transport.config().recovery_grace + net);
  EXPECT_EQ(storms, 1);
  // The same client is now current: no second storm, no waits.
  EXPECT_EQ(transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, 13 * kSecond), net);
  EXPECT_EQ(storms, 1);
}

TEST(RpcRecoveryTest, ReopenTrafficIsServedDuringGrace) {
  RpcTransport transport{NetworkConfig{}, TightRpcConfig()};
  transport.ScheduleServerCrash(0, 0, 10 * kSecond, /*new_epoch=*/2);
  const SimDuration net = Network{NetworkConfig{}}.RpcTime(kControlRpcBytes);
  // At the reboot instant a reopen goes straight through...
  EXPECT_EQ(transport.Call(RpcKind::kReopen, 0, 0, kControlRpcBytes, 10 * kSecond), net);
  // ...while a normal request from another client waits for the grace
  // window to close before being served.
  EXPECT_EQ(transport.Call(RpcKind::kOpen, 1, 0, kControlRpcBytes, 10 * kSecond),
            transport.config().recovery_grace + net);
  // Both calls are charged to the server's new epoch.
  EXPECT_EQ(transport.ledger().by_epoch.at(2).calls, 2);
}

TEST(RpcRecoveryTest, PlainOutagesDoNotCreateEpochBookkeeping) {
  // The per-epoch ledger breakdown appears only once a crash has been
  // scheduled; plain unavailability and fault-free runs keep the ledger
  // (and its formatted output) byte-identical to the pre-crash format.
  RpcTransport transport{NetworkConfig{}, TightRpcConfig()};
  transport.SetServerUnavailable(0, 0, kSecond);
  transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, 2 * kSecond);
  EXPECT_TRUE(transport.ledger().by_epoch.empty());
  EXPECT_EQ(FormatRpcLedger(transport.ledger()).find("epoch"), std::string::npos);
}

// ---------------- Cluster integration ----------------------------------------

ClusterConfig SmallCluster(int clients = 3, int servers = 2) {
  ClusterConfig config;
  config.num_clients = clients;
  config.num_servers = servers;
  config.client.memory_bytes = 4 * kMegabyte;
  return config;
}

TEST(RpcClusterTest, ClientOperationsFlowThroughTheTransport) {
  EventQueue queue;
  Cluster cluster(SmallCluster(), queue);
  cluster.StartDaemons();
  auto open = cluster.client(0).Open(1, 2, OpenMode::kWrite, OpenDisposition::kNormal, false,
                                     queue.now());
  cluster.client(0).Write(open.handle, 1000, queue.now());
  cluster.client(0).Close(open.handle, queue.now());
  queue.RunUntil(40 * kSecond);  // let the cleaner daemon write back

  const RpcLedger& ledger = cluster.rpc_ledger();
  EXPECT_EQ(ledger.stat(RpcKind::kCreate).calls, 1);
  EXPECT_EQ(ledger.stat(RpcKind::kOpen).calls, 1);
  EXPECT_EQ(ledger.stat(RpcKind::kClose).calls, 1);
  EXPECT_GE(ledger.stat(RpcKind::kGetAttr).calls, 1);
  EXPECT_EQ(ledger.stat(RpcKind::kWriteBlock).payload_bytes, 1000);
  // The ledger and the servers' kernel counters are two views of one stream.
  const ServerCounters derived = ServerTrafficFromLedger(ledger);
  const ServerCounters kernel = cluster.AggregateServerCounters();
  EXPECT_EQ(derived.file_write_bytes, kernel.file_write_bytes);
  EXPECT_EQ(derived.TotalBytes(), kernel.TotalBytes());
}

TEST(RpcClusterTest, ConsistencyCallbacksAreLedgered) {
  EventQueue queue;
  Cluster cluster(SmallCluster(2, 1), queue);
  const FileId file = 5;
  auto a = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal, false, 0);
  cluster.client(0).Write(a.handle, 1000, 0);
  auto b = cluster.client(1).Open(2, file, OpenMode::kReadWrite, OpenDisposition::kNormal, false,
                                  1);
  cluster.client(1).Write(b.handle, 100, 2);
  cluster.client(0).Write(a.handle, 100, 3);
  const RpcLedger& ledger = cluster.rpc_ledger();
  EXPECT_EQ(ledger.stat(RpcKind::kCacheDisable).calls, 2)
      << "both sharers were told to stop caching, via the transport";
  EXPECT_EQ(ledger.stat(RpcKind::kUncachedWrite).payload_bytes, 200);
  cluster.client(0).Close(a.handle, 4);
  cluster.client(1).Close(b.handle, 5);
}

TEST(RpcClusterTest, LedgerIsDeterministicAcrossRuns) {
  auto run = [](SimTime outage_until) {
    EventQueue queue;
    Cluster cluster(SmallCluster(), queue);
    if (outage_until > 0) {
      cluster.transport().SetServerUnavailable(0, 0, outage_until);
    }
    cluster.StartDaemons();
    Rng rng(7);
    SimTime now = 0;
    for (int i = 0; i < 100; ++i) {
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
  };
  const RpcLedger healthy1 = run(0);
  const RpcLedger healthy2 = run(0);
  EXPECT_GT(healthy1.TotalCalls(), 0);
  EXPECT_EQ(healthy1, healthy2) << "same seed, same ledger, byte for byte";

  // With a fault injected the run still completes, deterministically, and
  // the recovery work is visible in the ledger.
  const RpcLedger faulted1 = run(30 * kSecond);
  const RpcLedger faulted2 = run(30 * kSecond);
  EXPECT_EQ(faulted1, faulted2);
  int64_t timeouts = 0;
  for (const RpcStat& s : faulted1.by_kind) {
    timeouts += s.timeouts;
  }
  EXPECT_GT(timeouts, 0) << "the outage must have been felt";
  EXPECT_NE(faulted1, healthy1);
}

// ---------------- Trace replay & formatting ----------------------------------

TEST(RpcClusterTest, ReplayedTraceMatchesControlRpcCounts) {
  EventQueue queue;
  Cluster cluster(SmallCluster(), queue);
  for (int c = 0; c < 3; ++c) {
    auto open = cluster.client(c).Open(10 + c, 100 + c, OpenMode::kWrite,
                                       OpenDisposition::kNormal, false, c);
    cluster.client(c).Write(open.handle, 6000, c);
    cluster.client(c).Close(open.handle, c);
  }
  const TraceLog trace = cluster.TakeTrace();
  int64_t opens = 0;
  int64_t creates = 0;
  for (const Record& r : trace) {
    opens += r.kind == RecordKind::kOpen ? 1 : 0;
    creates += r.kind == RecordKind::kCreate ? 1 : 0;
  }
  const RpcLedger replay = ReplayTraceLedger(trace);
  EXPECT_EQ(replay.stat(RpcKind::kOpen).calls, opens);
  EXPECT_EQ(replay.stat(RpcKind::kCreate).calls, creates);
  // 6000 bytes per client arrive as two block-RPCs carrying the exact bytes.
  EXPECT_EQ(replay.stat(RpcKind::kWriteBlock).calls, 6);
  EXPECT_EQ(replay.stat(RpcKind::kWriteBlock).payload_bytes, 18000);
  EXPECT_GT(replay.stat(RpcKind::kOpen).net_time, 0) << "replay models wire time analytically";
}

TEST(RpcLedgerTest, FormatRendersPerKindRowsAndTotals) {
  RpcTransport transport;
  transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, 0);
  transport.Call(RpcKind::kReadBlock, 0, 0, kBlockSize, 0);
  const std::string out = FormatRpcLedger(transport.ledger());
  EXPECT_NE(out.find("open"), std::string::npos);
  EXPECT_NE(out.find("read-block"), std::string::npos);
  EXPECT_NE(out.find("total"), std::string::npos);
  EXPECT_NE(out.find("server 0"), std::string::npos);
  EXPECT_EQ(out.find("page-out"), std::string::npos) << "zero rows are omitted";
}

}  // namespace
}  // namespace sprite
