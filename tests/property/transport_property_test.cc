// Property tests over the transport mode product: every combination of wire
// policy (free, piggyback, batch), completion mode (sync, async), network
// model (analytic, contended and lossy) and fault schedule (none, crashes
// and a partition under replication) must keep the RPC ledger, its
// per-client and per-server breakdowns and the critical path in exact
// agreement, and must replay bit-identically from the same seed.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/fs/recovery.h"
#include "src/fs/rpc.h"
#include "src/obs/observability.h"
#include "src/workload/generator.h"

namespace sprite {
namespace {

enum class WirePolicy { kFree, kPiggyback, kBatch };

struct TransportCase {
  WirePolicy wire = WirePolicy::kFree;
  bool async = false;
  bool contended = false;
  bool faults = false;
};

struct TransportRun {
  RpcLedger ledger;
  CriticalPathCollector::PhaseTotals critical;
};

TransportRun RunTransportCase(const TransportCase& c) {
  WorkloadParams params;
  params.num_users = 8;
  params.seed = 1991;
  ClusterConfig config;
  config.num_clients = 4;
  config.num_servers = 3;
  config.rpc.honest_wire = c.wire == WirePolicy::kPiggyback;
  config.rpc.batching = c.wire == WirePolicy::kBatch;
  config.rpc.async = c.async;
  config.network.contention = c.contended;
  config.network.loss_rate = c.contended ? 0.004 : 0.0;
  config.replication.enabled = c.faults;
  config.observability.critical_path = true;
  Generator generator(params, config);
  if (c.faults) {
    ApplyFaultSchedule(generator.cluster(),
                       ParseFaultSchedule("crash:1@200+60,part:0-1x0@300+60,ccrash:2@350"));
  }
  generator.Run(10 * kMinute, 2 * kMinute);
  return {generator.cluster().rpc_ledger(),
          generator.cluster().observability()->critical_path().Sum()};
}

void Add(RpcStat& total, const RpcStat& s) {
  total.calls += s.calls;
  total.payload_bytes += s.payload_bytes;
  total.net_time += s.net_time;
  total.wait_time += s.wait_time;
  total.queue_time += s.queue_time;
  total.service_time += s.service_time;
  total.retries += s.retries;
  total.timeouts += s.timeouts;
  total.blocked_waits += s.blocked_waits;
}

template <typename Breakdown>
RpcStat SumOf(const Breakdown& breakdown) {
  RpcStat total;
  for (const auto& entry : breakdown) {
    Add(total, entry.second);
  }
  return total;
}

class TransportModeProperty
    : public ::testing::TestWithParam<std::tuple<WirePolicy, bool, bool, bool>> {
 protected:
  TransportCase Case() const {
    const auto& [wire, async, contended, faults] = GetParam();
    return TransportCase{wire, async, contended, faults};
  }
};

TEST_P(TransportModeProperty, LedgerBreakdownsAndCriticalPathAgree) {
  const TransportCase c = Case();
  const TransportRun run = RunTransportCase(c);
  const RpcLedger& ledger = run.ledger;

  RpcStat by_kind;
  int64_t callbacks = 0;
  for (size_t k = 0; k < kRpcKinds.size(); ++k) {
    Add(by_kind, ledger.by_kind[k]);
    callbacks += kRpcKinds[k].callback() ? ledger.by_kind[k].calls : 0;
  }
  ASSERT_GT(by_kind.calls, 0);
  EXPECT_EQ(SumOf(ledger.by_client), by_kind);
  EXPECT_EQ(SumOf(ledger.by_server), by_kind);

  EXPECT_EQ(run.critical.rpcs, by_kind.calls);
  EXPECT_EQ(run.critical.callbacks, callbacks);
  EXPECT_EQ(run.critical.rpc_wait, by_kind.wait_time);
  EXPECT_EQ(run.critical.wire, by_kind.net_time);
  EXPECT_EQ(run.critical.queue, by_kind.queue_time);
  EXPECT_EQ(run.critical.service, by_kind.service_time);

  // Each switch really took effect in this run.
  EXPECT_EQ(ledger.batches > 0, c.wire == WirePolicy::kBatch);
  EXPECT_EQ(ledger.piggybacked_ops + ledger.charged_control_ops > 0,
            c.wire == WirePolicy::kPiggyback);
  EXPECT_EQ(by_kind.service_time > 0, c.async);
  EXPECT_EQ(by_kind.wait_time > 0, c.faults);

  const TransportRun again = RunTransportCase(c);
  EXPECT_TRUE(again.ledger == ledger) << "same seed, same ledger";
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<WirePolicy, bool, bool, bool>>& info) {
  const auto& [wire, async, contended, faults] = info.param;
  const char* wire_name = wire == WirePolicy::kFree        ? "Free"
                          : wire == WirePolicy::kPiggyback ? "Piggyback"
                                                           : "Batch";
  return std::string(wire_name) + (async ? "Async" : "Sync") +
         (contended ? "Contended" : "Analytic") + (faults ? "Faults" : "Healthy");
}

INSTANTIATE_TEST_SUITE_P(
    Modes, TransportModeProperty,
    ::testing::Combine(::testing::Values(WirePolicy::kFree, WirePolicy::kPiggyback,
                                         WirePolicy::kBatch),
                       ::testing::Bool(), ::testing::Bool(), ::testing::Bool()),
    CaseName);

}  // namespace
}  // namespace sprite
