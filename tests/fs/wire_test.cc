// Tests for the honest-wire transport layer: piggybacking, batching,
// RegisterServer validation, and end-to-end ledger/critical-path
// reconciliation under the contended network model. The off-mode tests pin
// the legacy behavior (ledger-only RPCs stay free) that every committed
// baseline depends on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "src/fs/cluster.h"
#include "src/fs/counters.h"
#include "src/fs/net.h"
#include "src/fs/recovery.h"
#include "src/fs/rpc.h"
#include "src/fs/server.h"
#include "src/obs/observability.h"
#include "src/sim/event_queue.h"
#include "src/workload/generator.h"

namespace sprite {
namespace {

// ---------------------------------------------------------------------------
// RegisterServer validation (transport-layer bug sweep).

TEST(WireTest, RegisterServerValidatesAgainstExpectedCount) {
  RpcTransport transport;
  transport.SetExpectedServers(2);
  EXPECT_NO_THROW(transport.RegisterServer(0, nullptr));
  EXPECT_NO_THROW(transport.RegisterServer(1, nullptr));
  // Regression: an out-of-range id used to silently grow the server table,
  // so a typo'd id was absorbed instead of reported.
  EXPECT_THROW(transport.RegisterServer(2, nullptr), std::invalid_argument);
  EXPECT_THROW(transport.RegisterServer(100, nullptr), std::invalid_argument);
}

TEST(WireTest, RegisterServerStaysPermissiveWithoutExpectedCount) {
  // Bare test rigs that never call SetExpectedServers keep the old
  // resize-on-demand behavior.
  RpcTransport transport;
  EXPECT_NO_THROW(transport.RegisterServer(7, nullptr));
}

// ---------------------------------------------------------------------------
// Honest wire: charged control exchanges and piggybacking.

TEST(WireTest, DefaultModeKeepsControlRpcsFree) {
  RpcTransport transport(NetworkConfig{}, RpcConfig{});
  EXPECT_EQ(transport.Call(RpcKind::kGetAttr, 0, 0, 0, 0), 0);
  const RpcLedger& ledger = transport.ledger();
  EXPECT_EQ(ledger.stat(RpcKind::kGetAttr).net_time, 0);
  EXPECT_EQ(ledger.piggybacked_ops, 0);
  EXPECT_EQ(ledger.charged_control_ops, 0);
  EXPECT_EQ(ledger.batched_ops, 0);
  EXPECT_EQ(transport.network()->rpc_count(), 0);
}

TEST(WireTest, HonestWireChargesIsolatedControlRpcs) {
  RpcConfig rpc;
  rpc.honest_wire = true;
  RpcTransport transport(NetworkConfig{}, rpc);
  const SimDuration expected = Network(NetworkConfig{}).RpcTime(kControlRpcBytes);
  // No recent exchange on the (0,0) pair: the getattr pays a real
  // control-sized round trip.
  EXPECT_EQ(transport.Call(RpcKind::kGetAttr, 0, 0, 0, 0), expected);
  const RpcLedger& ledger = transport.ledger();
  EXPECT_EQ(ledger.stat(RpcKind::kGetAttr).net_time, expected);
  EXPECT_EQ(ledger.charged_control_ops, 1);
  EXPECT_EQ(ledger.piggybacked_ops, 0);
  EXPECT_EQ(transport.network()->rpc_count(), 1);
}

TEST(WireTest, PiggybackRidesARecentExchange) {
  RpcConfig rpc;
  rpc.honest_wire = true;  // default window: 50 ms
  RpcTransport transport(NetworkConfig{}, rpc);
  // A charged open exchange establishes the window on pair (0,0).
  const SimDuration open_latency =
      transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, 0);
  ASSERT_GT(open_latency, 0);
  // Inside the window: the control op rides for free.
  EXPECT_EQ(transport.Call(RpcKind::kGetAttr, 0, 0, 0,
                           open_latency + 10 * kMillisecond),
            0);
  EXPECT_EQ(transport.ledger().piggybacked_ops, 1);
  // A different client pair never saw an exchange: it pays.
  EXPECT_GT(transport.Call(RpcKind::kGetAttr, 1, 0, 0,
                           open_latency + 10 * kMillisecond),
            0);
  EXPECT_EQ(transport.ledger().charged_control_ops, 1);
  // Outside the window on the original pair: pays again, and that charged
  // exchange re-opens the window for the op right behind it.
  const SimTime late = open_latency + 200 * kMillisecond;
  const SimDuration charged = transport.Call(RpcKind::kGetAttr, 0, 0, 0, late);
  EXPECT_GT(charged, 0);
  EXPECT_EQ(transport.Call(RpcKind::kDelete, 0, 0, 0, late + charged + 1), 0);
  EXPECT_EQ(transport.ledger().piggybacked_ops, 2);
  EXPECT_EQ(transport.ledger().charged_control_ops, 2);
}

// ---------------------------------------------------------------------------
// Batching: coalescing, window expiry, and flush accounting.

TEST(WireTest, BatchingCoalescesControlRpcsIntoOneExchange) {
  RpcConfig rpc;
  rpc.batching = true;
  rpc.batch_max_ops = 4;
  RpcTransport transport(NetworkConfig{}, rpc);
  // Three deferred ops: nothing on the wire yet, callers see zero latency.
  EXPECT_EQ(transport.Call(RpcKind::kGetAttr, 0, 0, 0, 0), 0);
  EXPECT_EQ(transport.Call(RpcKind::kCreate, 0, 0, 0, 1 * kMillisecond), 0);
  EXPECT_EQ(transport.Call(RpcKind::kDelete, 0, 0, 0, 2 * kMillisecond), 0);
  EXPECT_EQ(transport.network()->rpc_count(), 0);
  // The fourth fills the batch; its caller absorbs the flush: one wire
  // exchange carrying four control-sized payloads.
  const SimDuration flush =
      transport.Call(RpcKind::kTruncate, 0, 0, 0, 3 * kMillisecond);
  EXPECT_EQ(flush, Network(NetworkConfig{}).RpcTime(4 * kControlRpcBytes));
  EXPECT_EQ(transport.network()->rpc_count(), 1);
  const RpcLedger& ledger = transport.ledger();
  EXPECT_EQ(ledger.batched_ops, 4);
  EXPECT_EQ(ledger.batches, 1);
  // The flush lands on the kBatch ledger row; the member ops keep their
  // own rows with zero net time (no double-charging).
  EXPECT_EQ(ledger.stat(RpcKind::kBatch).calls, 1);
  EXPECT_EQ(ledger.stat(RpcKind::kBatch).net_time, flush);
  EXPECT_EQ(ledger.stat(RpcKind::kBatch).payload_bytes, 0);
  EXPECT_EQ(ledger.stat(RpcKind::kGetAttr).net_time, 0);
  EXPECT_EQ(ledger.stat(RpcKind::kTruncate).net_time, 0);
}

TEST(WireTest, BatchWindowExpiryFlushesLazily) {
  RpcConfig rpc;
  rpc.batching = true;  // default window: 20 ms, max 8 ops
  RpcTransport transport(NetworkConfig{}, rpc);
  EXPECT_EQ(transport.Call(RpcKind::kGetAttr, 0, 0, 0, 0), 0);
  EXPECT_EQ(transport.Call(RpcKind::kGetAttr, 0, 0, 0, 5 * kMillisecond), 0);
  // 30 ms later the pending batch is stale: the next batched op pays the
  // flush of the old batch and opens a new one holding itself.
  const SimDuration flush =
      transport.Call(RpcKind::kGetAttr, 0, 0, 0, 30 * kMillisecond);
  EXPECT_EQ(flush, Network(NetworkConfig{}).RpcTime(2 * kControlRpcBytes));
  EXPECT_EQ(transport.ledger().batches, 1);
  EXPECT_EQ(transport.ledger().batched_ops, 3);
  EXPECT_EQ(transport.network()->rpc_count(), 1);
}

TEST(WireTest, FlushAllWireDrainsPendingBatches) {
  RpcConfig rpc;
  rpc.batching = true;
  RpcTransport transport(NetworkConfig{}, rpc);
  transport.Call(RpcKind::kGetAttr, 0, 0, 0, 0);
  transport.Call(RpcKind::kGetAttr, 1, 1, 0, 0);
  EXPECT_EQ(transport.network()->rpc_count(), 0);
  // Measurement boundary: both per-pair batches go out.
  transport.FlushAllWire(10 * kMillisecond);
  EXPECT_EQ(transport.ledger().batches, 2);
  EXPECT_EQ(transport.network()->rpc_count(), 2);
  // Idempotent when nothing is pending.
  transport.FlushAllWire(20 * kMillisecond);
  EXPECT_EQ(transport.ledger().batches, 2);
}

// ---------------------------------------------------------------------------
// Stage interactions: the wire policy decides whether a call reaches the
// service queue and which link its exchange queues on.

ObservabilityConfig MetricsAndTracing() {
  ObservabilityConfig config;
  config.metrics = true;
  config.tracing = true;
  return config;
}

// A bare transport with one server, wired the way the Cluster wires them,
// plus a metrics/tracing sink on both.
struct AsyncWireRig {
  explicit AsyncWireRig(const RpcConfig& rpc, const NetworkConfig& net = {})
      : obs(MetricsAndTracing()),
        transport(net, rpc),
        server(0, ServerConfig{}, DiskConfig{}) {
    if (rpc.async) {
      server.EnableServiceQueue(rpc, queue);
    }
    server.AttachObservability(&obs);
    transport.SetExpectedServers(1);
    transport.AttachObservability(&obs);
    transport.RegisterServer(0, &server);
  }
  // Admissions so far: the queue-wait recorder samples every one.
  int64_t admissions() const {
    const LatencyRecorder* rec = obs.metrics().FindLatency("server.0.queue_us");
    return rec == nullptr ? 0 : rec->count();
  }

  Observability obs;
  EventQueue queue;
  RpcTransport transport;
  Server server;
};

TEST(WireTest, AsyncHonestWireControlExchangeSkipsTheServiceQueue) {
  RpcConfig rpc;
  rpc.async = true;
  rpc.honest_wire = true;
  AsyncWireRig rig(rpc);
  // No recent exchange: the getattr pays its own control exchange, but a
  // lane-less kind never holds the server's service lane.
  const SimDuration latency = rig.transport.Call(RpcKind::kGetAttr, 0, 0, 0, 0);
  const RpcStat& getattr = rig.transport.ledger().stat(RpcKind::kGetAttr);
  EXPECT_EQ(rig.transport.ledger().charged_control_ops, 1);
  EXPECT_GT(getattr.net_time, 0);
  EXPECT_EQ(getattr.queue_time, 0);
  EXPECT_EQ(getattr.service_time, 0);
  EXPECT_EQ(latency, getattr.net_time);
  EXPECT_EQ(rig.admissions(), 0);
  EXPECT_EQ(rig.server.visit_count(), 0u) << "no visit to the service queue";

  // A kind with a lane on the same transport is admitted.
  rig.transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, latency);
  EXPECT_EQ(rig.admissions(), 1);
  EXPECT_EQ(rig.transport.ledger().stat(RpcKind::kOpen).service_time, rpc.control_service_time);
  EXPECT_EQ(rig.server.visit_count(), 1u);
}

TEST(WireTest, AsyncBatchingAdmitsEachFlushOnceAtControlServiceTime) {
  RpcConfig rpc;
  rpc.async = true;
  rpc.batching = true;
  rpc.batch_max_ops = 3;
  AsyncWireRig rig(rpc);
  // Two full batches; members include the data-lane shadow write, which as
  // a batch member must not hold the lane either.
  const RpcKind members[] = {RpcKind::kGetAttr, RpcKind::kShadowWrite, RpcKind::kCreate,
                             RpcKind::kDelete,  RpcKind::kShadowOpen,  RpcKind::kGetAttr};
  SimTime now = 0;
  for (const RpcKind kind : members) {
    now += rig.transport.Call(kind, 0, 0, kind == RpcKind::kShadowWrite ? kBlockSize : 0, now);
    now += kMillisecond;
  }
  const RpcLedger& ledger = rig.transport.ledger();
  EXPECT_EQ(ledger.batched_ops, 6);
  EXPECT_EQ(ledger.batches, 2);
  for (const RpcKind kind : members) {
    EXPECT_EQ(ledger.stat(kind).queue_time, 0) << RpcKindName(kind);
    EXPECT_EQ(ledger.stat(kind).service_time, 0) << RpcKindName(kind);
  }
  EXPECT_EQ(ledger.stat(RpcKind::kBatch).service_time, 2 * rpc.control_service_time);
  EXPECT_EQ(rig.admissions(), 2) << "one admission per flush, none per member";
  EXPECT_EQ(rig.server.visit_count(), 2u);
}

TEST(WireTest, ContendedBatchFlushRecordsLinkQueueing) {
  RpcConfig rpc;
  rpc.batching = true;
  rpc.batch_max_ops = 1;  // every batched op flushes at once
  NetworkConfig net;
  net.contention = true;
  AsyncWireRig rig(rpc, net);
  // A 64 KB fetch holds the (0, 0) link; a getattr issued behind it flushes
  // its batch onto the busy link and queues.
  rig.transport.Call(RpcKind::kReadBlock, 0, 0, 16 * kBlockSize, 0);
  const SimDuration flush = rig.transport.Call(RpcKind::kGetAttr, 0, 0, 0, kMillisecond);
  EXPECT_EQ(rig.transport.ledger().batches, 1);
  EXPECT_EQ(flush, rig.transport.ledger().stat(RpcKind::kBatch).net_time);
  EXPECT_GT(flush, Network(net).RpcTime(kControlRpcBytes)) << "the flush waited for the link";

  const LatencyRecorder* link = rig.obs.metrics().FindLatency("net.link.0.queued_us");
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->count(), 2) << "the fetch and the flush";
  EXPECT_GT(link->total(), 0);
  int batch_queued = 0;
  for (const Span& span : rig.obs.tracer().spans()) {
    if (std::string_view(span.name) == "net.queued" && span.num_args == 2 &&
        span.args[1].value == static_cast<int64_t>(RpcKind::kBatch)) {
      ++batch_queued;
      EXPECT_EQ(span.start, kMillisecond);
      EXPECT_EQ(span.duration, link->total());
    }
  }
  EXPECT_EQ(batch_queued, 1);
}

// ---------------------------------------------------------------------------
// End-to-end: full workload runs through the Generator.

WorkloadParams QuickParams() {
  WorkloadParams params;
  params.num_users = 8;
  params.seed = 42;
  return params;
}

ClusterConfig WireCluster() {
  ClusterConfig config;
  config.num_clients = 4;
  config.num_servers = 2;
  return config;
}

TEST(WireTest, OffModeWorkloadLeavesWireCountersUntouched) {
  Generator generator(QuickParams(), WireCluster());
  generator.Run(10 * kMinute, 2 * kMinute);
  const RpcLedger& ledger = generator.cluster().rpc_ledger();
  EXPECT_EQ(ledger.piggybacked_ops, 0);
  EXPECT_EQ(ledger.charged_control_ops, 0);
  EXPECT_EQ(ledger.batched_ops, 0);
  EXPECT_EQ(ledger.batches, 0);
  EXPECT_EQ(ledger.stat(RpcKind::kBatch).calls, 0);
  // Ledger-only kinds stay free, and the formatted ledger shows no wire
  // footer — exactly the committed-baseline shape.
  EXPECT_EQ(ledger.stat(RpcKind::kGetAttr).net_time, 0);
  const std::string formatted = FormatRpcLedger(ledger);
  EXPECT_EQ(formatted.find("wire:"), std::string::npos);
}

TEST(WireTest, LedgerReconcilesWithCriticalPathUnderBatching) {
  ClusterConfig config = WireCluster();
  config.rpc.honest_wire = true;
  config.rpc.batching = true;
  config.network.contention = true;
  config.observability.critical_path = true;
  Generator generator(QuickParams(), config);
  generator.Run(10 * kMinute, 2 * kMinute);
  const RpcLedger& ledger = generator.cluster().rpc_ledger();
  EXPECT_GT(ledger.batches, 0);
  EXPECT_GT(ledger.batched_ops, ledger.batches);
  const Observability* obs = generator.cluster().observability();
  ASSERT_NE(obs, nullptr);
  // Every batch flush feeds the critical-path collector the same net /
  // queue / service terms it charges to the ledger, so the reconciliation
  // in the report must be microsecond-exact.
  const std::string report = FormatCriticalPath(obs->critical_path(), ledger);
  EXPECT_EQ(report.find("MISMATCH"), std::string::npos) << report;
}

RpcLedger RunShadowBatchedFailover() {
  ClusterConfig config = WireCluster();
  config.rpc.batching = true;
  config.replication.enabled = true;
  Generator generator(QuickParams(), config);
  ApplyFaultSchedule(generator.cluster(),
                     ParseFaultSchedule("crash:0@240+30,crash:1@420+20"));
  generator.Run(10 * kMinute, 2 * kMinute);
  return generator.cluster().rpc_ledger();
}

TEST(WireTest, ShadowBatchStreamIsDeterministicUnderFailover) {
  // The replication shadow stream (kShadowOpen/Write/Close) is batchable;
  // with servers crashing and failing over mid-run, two identical runs must
  // still produce identical ledgers, batch counts included.
  const RpcLedger a = RunShadowBatchedFailover();
  const RpcLedger b = RunShadowBatchedFailover();
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.batches, 0);
  // The shadow stream actually went through the batch path: its rows carry
  // no direct wire time.
  EXPECT_EQ(a.stat(RpcKind::kShadowWrite).net_time, 0);
}

}  // namespace
}  // namespace sprite
