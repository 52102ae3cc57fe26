// Tests for the event-driven RPC completion mode (RpcConfig::async): the
// per-server FIFO service queue, queue-wait accounting through the ledger
// and the server.N.queue_us recorder, the depth gauge's count of arrived,
// uncompleted visits, reopen-priority admission during the recovery grace
// window, and determinism / non-perturbation with observability attached.

#include "src/fs/rpc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "src/fs/cluster.h"
#include "src/fs/server.h"
#include "src/obs/observability.h"
#include "src/sim/event_queue.h"
#include "src/workload/generator.h"

namespace sprite {
namespace {

RpcConfig AsyncRpcConfig() {
  RpcConfig config;
  config.async = true;
  return config;
}

// A bare server + transport pair wired the way the Cluster wires them.
struct AsyncRig {
  explicit AsyncRig(const RpcConfig& rpc)
      : transport(NetworkConfig{}, rpc), server(0, ServerConfig{}, DiskConfig{}) {
    server.EnableServiceQueue(rpc, queue);
    transport.RegisterServer(0, &server);
  }

  EventQueue queue;
  RpcTransport transport;
  Server server;
};

ObservabilityConfig MetricsOnly() {
  ObservabilityConfig config;
  config.metrics = true;
  config.snapshot_interval = kMinute;
  return config;
}

TEST(RpcAsyncTest, ConcurrentCallsOverlapAndTheSecondQueues) {
  AsyncRig rig(AsyncRpcConfig());
  const SimDuration net = Network{NetworkConfig{}}.RpcTime(kBlockSize);
  const SimDuration service = AsyncRpcConfig().data_service_time;

  // Two clients fetch a block at the same instant. The first is served on
  // arrival; the second waits one full service time in the server's queue.
  const SimDuration first = rig.transport.Call(RpcKind::kReadBlock, 0, 0, kBlockSize, 0);
  const SimDuration second = rig.transport.Call(RpcKind::kReadBlock, 1, 0, kBlockSize, 0);
  EXPECT_EQ(first, net + service);
  EXPECT_EQ(second, net + service + service);

  // Overlap: both complete by max(first, second), strictly earlier than a
  // serial transport would finish them back to back.
  EXPECT_LT(std::max(first, second), first + second);

  const RpcStat& stat = rig.transport.ledger().stat(RpcKind::kReadBlock);
  EXPECT_EQ(stat.queue_time, service) << "only the second arrival queued";
  EXPECT_EQ(stat.service_time, 2 * service);
  EXPECT_EQ(rig.transport.ledger().by_server.at(0).queue_time, service);
}

TEST(RpcAsyncTest, QueueWaitIsRecordedForTheSecondArrivalOnly) {
  Observability obs(MetricsOnly());
  AsyncRig rig(AsyncRpcConfig());
  rig.server.AttachObservability(&obs);
  rig.transport.Call(RpcKind::kReadBlock, 0, 0, kBlockSize, 0);
  rig.transport.Call(RpcKind::kReadBlock, 1, 0, kBlockSize, 0);

  const LatencyRecorder* rec = obs.metrics().FindLatency("server.0.queue_us");
  ASSERT_NE(rec, nullptr);
  // Both admissions are recorded (zeros included), so the count doubles as
  // an admission counter; only the second contributes wait.
  EXPECT_EQ(rec->count(), 2);
  EXPECT_EQ(rec->total(), AsyncRpcConfig().data_service_time);
}

TEST(RpcAsyncTest, SerialClientNeverQueuesBehindItself) {
  Observability obs(MetricsOnly());
  AsyncRig rig(AsyncRpcConfig());
  rig.server.AttachObservability(&obs);

  // One client issuing each request after the previous one completed: every
  // queue wait is exactly zero.
  SimTime now = 0;
  for (int i = 0; i < 20; ++i) {
    now += rig.transport.Call(RpcKind::kReadBlock, 0, 0, kBlockSize, now);
  }
  const LatencyRecorder* rec = obs.metrics().FindLatency("server.0.queue_us");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->count(), 20);
  EXPECT_EQ(rec->total(), 0);
  EXPECT_EQ(rec->Quantile(0.50), 0);
  EXPECT_EQ(rec->Quantile(0.99), 0);
  EXPECT_EQ(rig.transport.ledger().stat(RpcKind::kReadBlock).queue_time, 0);
}

TEST(RpcAsyncTest, DepthGaugeFollowsArrivalAndCompletionEvents) {
  AsyncRig rig(AsyncRpcConfig());
  const SimDuration net = Network{NetworkConfig{}}.RpcTime(kBlockSize);
  const SimDuration service = AsyncRpcConfig().data_service_time;
  rig.transport.Call(RpcKind::kReadBlock, 0, 0, kBlockSize, 0);
  rig.transport.Call(RpcKind::kReadBlock, 1, 0, kBlockSize, 0);
  EXPECT_EQ(rig.server.QueueDepth(), 0) << "the clock has not reached the arrivals yet";

  // Both requests arrive at the server at `net`; completions at net+service
  // and net+2*service. No event marks them, so the clock advances by
  // deadline; a completion at the deadline itself has passed.
  rig.queue.RunUntil(net + service / 2);
  EXPECT_EQ(rig.server.QueueDepth(), 2);
  rig.queue.RunUntil(net + service + service / 2);
  EXPECT_EQ(rig.server.QueueDepth(), 1);
  rig.queue.RunUntil(net + 2 * service);
  EXPECT_EQ(rig.server.QueueDepth(), 0);
}

TEST(RpcAsyncTest, DepthLimitBoundsResidencyWithoutChangingFifoTiming) {
  // Under FIFO service a depth bound stalls the *sender* until a slot
  // frees, which never changes when the request is served — it only bounds
  // how many requests sit at the server. Latencies must be identical.
  RpcConfig deep = AsyncRpcConfig();
  deep.max_queue_depth = 64;
  RpcConfig shallow = AsyncRpcConfig();
  shallow.max_queue_depth = 1;
  AsyncRig a(deep);
  AsyncRig b(shallow);
  for (int i = 0; i < 10; ++i) {
    const SimDuration la = a.transport.Call(RpcKind::kReadBlock, i % 3, 0, kBlockSize, 0);
    const SimDuration lb = b.transport.Call(RpcKind::kReadBlock, i % 3, 0, kBlockSize, 0);
    EXPECT_EQ(la, lb) << "request " << i;
  }
  EXPECT_EQ(a.transport.ledger(), b.transport.ledger());
}

TEST(RpcAsyncTest, AdmitRequestGivesPriorityAdmissionsTheArrivalSlot) {
  EventQueue queue;
  Server server(0, ServerConfig{}, DiskConfig{});
  server.EnableServiceQueue(AsyncRpcConfig(), queue);
  const SimDuration control = AsyncRpcConfig().control_service_time;
  const SimDuration data = AsyncRpcConfig().data_service_time;

  // A normal request occupies the server until 100 + data...
  const Server::Admission normal = server.AdmitRequest(RpcKind::kReadBlock, 100, false);
  EXPECT_EQ(normal.start, 100);
  EXPECT_EQ(normal.queue_wait(), 0);
  // ...yet a priority reopen jumps the queue and starts at its arrival...
  const Server::Admission reopen = server.AdmitRequest(RpcKind::kReopen, 100, true);
  EXPECT_EQ(reopen.start, 100);
  EXPECT_EQ(reopen.queue_wait(), 0);
  // ...while the next normal request waits out the busy period.
  const Server::Admission later = server.AdmitRequest(RpcKind::kReadBlock, 100, false);
  EXPECT_EQ(later.start, 100 + data);
  EXPECT_EQ(later.queue_wait(), data);

  // A priority admission still advances the busy horizon: traffic arriving
  // after a reopen storm queues behind it.
  const Server::Admission storm = server.AdmitRequest(RpcKind::kReopen, 10000, true);
  EXPECT_EQ(storm.start, 10000);
  const Server::Admission after = server.AdmitRequest(RpcKind::kReadBlock, 10000, false);
  EXPECT_EQ(after.start, 10000 + control);
  EXPECT_EQ(after.queue_wait(), control);
}

TEST(RpcAsyncTest, ReopenJumpsTheQueueDuringGraceAndLaterTrafficWaits) {
  RpcConfig rpc = AsyncRpcConfig();
  rpc.control_service_time = 50 * kMillisecond;  // make the storm's shadow visible
  AsyncRig rig(rpc);
  rig.transport.ScheduleServerCrash(0, 0, 10 * kSecond, /*new_epoch=*/2);
  const SimDuration net = Network{NetworkConfig{}}.RpcTime(kControlRpcBytes);
  const SimDuration grace = rig.transport.config().recovery_grace;
  const SimTime grace_end = 10 * kSecond + grace;

  // A reopen arriving just inside the grace window is served immediately —
  // zero queue wait — even though it lands on the service queue.
  const SimTime reopen_issue = grace_end - net - 100;
  const SimDuration reopen_latency =
      rig.transport.Call(RpcKind::kReopen, 0, 0, kControlRpcBytes, reopen_issue);
  EXPECT_EQ(reopen_latency, net + rpc.control_service_time);
  EXPECT_EQ(rig.transport.ledger().stat(RpcKind::kReopen).queue_time, 0);

  // Normal traffic right after the window closes queues behind the storm's
  // residual service time.
  const SimDuration open_latency =
      rig.transport.Call(RpcKind::kOpen, 1, 0, kControlRpcBytes, grace_end);
  const SimDuration expected_queue = rpc.control_service_time - 100 - net;
  EXPECT_EQ(open_latency, net + expected_queue + rpc.control_service_time);
  EXPECT_EQ(rig.transport.ledger().stat(RpcKind::kOpen).queue_time, expected_queue);
}

// ---------------- Whole-cluster determinism and non-perturbation -------------

WorkloadParams QuickParams() {
  WorkloadParams p;
  p.num_users = 8;
  p.seed = 42;
  return p;
}

ClusterConfig AsyncCluster(bool metrics, bool tracing) {
  ClusterConfig c;
  c.num_clients = 8;
  c.num_servers = 2;
  c.rpc.async = true;
  c.observability.metrics = metrics;
  c.observability.tracing = tracing;
  c.observability.snapshot_interval = kMinute;
  return c;
}

TEST(RpcAsyncClusterTest, SameSeedAsyncRunsAreIdentical) {
  Generator a(QuickParams(), AsyncCluster(/*metrics=*/true, /*tracing=*/true));
  Generator b(QuickParams(), AsyncCluster(/*metrics=*/true, /*tracing=*/true));
  const TraceLog trace_a = a.Run(10 * kMinute, /*warmup=*/2 * kMinute);
  const TraceLog trace_b = b.Run(10 * kMinute, /*warmup=*/2 * kMinute);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(a.cluster().rpc_ledger(), b.cluster().rpc_ledger());
  const auto spans_a = a.cluster().observability()->tracer().spans();
  const auto spans_b = b.cluster().observability()->tracer().spans();
  ASSERT_EQ(spans_a.size(), spans_b.size());
  auto it_b = spans_b.begin();
  size_t i = 0;
  for (const Span& span_a : spans_a) {
    ASSERT_TRUE(span_a == *it_b) << "span " << i << " differs";
    ++it_b;
    ++i;
  }
}

TEST(RpcAsyncClusterTest, ObservabilityDoesNotPerturbAsyncRuns) {
  Generator observed(QuickParams(), AsyncCluster(/*metrics=*/true, /*tracing=*/true));
  Generator bare(QuickParams(), AsyncCluster(/*metrics=*/false, /*tracing=*/false));
  const TraceLog observed_trace = observed.Run(10 * kMinute, /*warmup=*/2 * kMinute);
  const TraceLog bare_trace = bare.Run(10 * kMinute, /*warmup=*/2 * kMinute);
  EXPECT_EQ(bare.cluster().observability(), nullptr);
  EXPECT_EQ(observed_trace, bare_trace);
  EXPECT_EQ(observed.cluster().rpc_ledger(), bare.cluster().rpc_ledger());

  // The observed async run did accumulate queueing — the thing the mode is
  // for — and exported it through the standard instruments.
  const RpcLedger& ledger = observed.cluster().rpc_ledger();
  SimDuration total_queue = 0;
  for (const RpcStat& s : ledger.by_kind) {
    total_queue += s.queue_time;
  }
  EXPECT_GT(total_queue, 0) << "8 users on 2 servers must contend";
  const LatencyRecorder* rec =
      observed.cluster().observability()->metrics().FindLatency("server.0.queue_us");
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->count(), 0);
  bool saw_queued_span = false;
  for (const Span& s : observed.cluster().observability()->tracer().spans()) {
    // string_view: literal addresses differ across translation units when
    // the build does not merge string constants (e.g. sanitizers).
    if (std::string_view(s.name) == "rpc.queued") {
      saw_queued_span = true;
      break;
    }
  }
  EXPECT_TRUE(saw_queued_span);
}

TEST(RpcAsyncClusterTest, AsyncLedgerRendersQueueAndServiceColumns) {
  Generator generator(QuickParams(), AsyncCluster(/*metrics=*/false, /*tracing=*/false));
  generator.Run(10 * kMinute, /*warmup=*/2 * kMinute);
  const std::string table = FormatRpcLedger(generator.cluster().rpc_ledger());
  EXPECT_NE(table.find("Queue (ms)"), std::string::npos);
  EXPECT_NE(table.find("Service (ms)"), std::string::npos);

  // Sync ledgers keep the historical column set, byte for byte.
  RpcTransport sync_transport;
  sync_transport.Call(RpcKind::kOpen, 0, 0, kControlRpcBytes, 0);
  const std::string sync_table = FormatRpcLedger(sync_transport.ledger());
  EXPECT_EQ(sync_table.find("Queue (ms)"), std::string::npos);
  EXPECT_EQ(sync_table.find("Service (ms)"), std::string::npos);
}

}  // namespace
}  // namespace sprite
