// End-to-end checks of the observability wiring: determinism, the
// non-perturbation invariant (instrumentation must not change what the
// simulation does), and agreement between the span/metric streams and the
// RPC ledger they mirror.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/fs/cluster.h"
#include "src/fs/counters.h"
#include "src/fs/rpc.h"
#include "src/obs/observability.h"
#include "src/workload/generator.h"

namespace sprite {
namespace {

WorkloadParams QuickParams() {
  WorkloadParams p;
  p.num_users = 8;
  p.seed = 42;
  return p;
}

ClusterConfig ObsCluster(bool metrics, bool tracing) {
  ClusterConfig c;
  c.num_clients = 8;
  c.num_servers = 2;
  c.observability.metrics = metrics;
  c.observability.tracing = tracing;
  c.observability.snapshot_interval = kMinute;
  return c;
}

struct ObsRun {
  TraceLog trace;
  RpcLedger ledger;
  std::vector<Span> spans;
  std::vector<MetricsWindow> windows;
  std::string windows_text;  // every window in FormatMetricsWindow's format
};

ObsRun RunObserved(bool metrics = true, bool tracing = true) {
  Generator generator(QuickParams(), ObsCluster(metrics, tracing));
  ObsRun run;
  run.trace = generator.Run(10 * kMinute, /*warmup=*/2 * kMinute);
  run.ledger = generator.cluster().rpc_ledger();
  const Observability* obs = generator.cluster().observability();
  if (obs != nullptr) {
    run.spans.assign(obs->tracer().spans().begin(), obs->tracer().spans().end());
    for (size_t i = 0; i < obs->series().size(); ++i) {
      run.windows.push_back(obs->series().window(i));
      run.windows_text += FormatMetricsWindow(obs->series().window(i));
    }
  }
  return run;
}

TEST(ObservabilityTest, SameSeedRunsProduceIdenticalStreams) {
  const ObsRun a = RunObserved();
  const ObsRun b = RunObserved();
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.ledger, b.ledger);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (size_t i = 0; i < a.spans.size(); ++i) {
    ASSERT_TRUE(a.spans[i] == b.spans[i]) << "span " << i << " differs";
  }
  ASSERT_FALSE(a.windows.empty());
  EXPECT_EQ(a.windows_text, b.windows_text);
}

TEST(ObservabilityTest, InstrumentationDoesNotPerturbTheSimulation) {
  const ObsRun observed = RunObserved(/*metrics=*/true, /*tracing=*/true);

  Generator bare(QuickParams(), ObsCluster(/*metrics=*/false, /*tracing=*/false));
  const TraceLog bare_trace = bare.Run(10 * kMinute, /*warmup=*/2 * kMinute);
  EXPECT_EQ(bare.cluster().observability(), nullptr);

  EXPECT_EQ(observed.trace, bare_trace);
  EXPECT_EQ(observed.ledger, bare.cluster().rpc_ledger());
}

TEST(ObservabilityTest, RpcSpanCountsMatchLedgerCalls) {
  const ObsRun run = RunObserved();
  std::map<std::string, int64_t> span_calls;
  for (const Span& s : run.spans) {
    const std::string cat = s.category;
    if (cat == "rpc" || cat == "rpc.callback") {
      ++span_calls[s.name];
    }
  }
  int64_t spanned_total = 0;
  for (int k = 0; k < kRpcKindCount; ++k) {
    const RpcKind kind = static_cast<RpcKind>(k);
    const int64_t calls = run.ledger.stat(kind).calls;
    EXPECT_EQ(span_calls[RpcKindName(kind)], calls) << RpcKindName(kind);
    spanned_total += span_calls[RpcKindName(kind)];
  }
  EXPECT_EQ(spanned_total, run.ledger.TotalCalls());
  // The workload must actually exercise the core wire kinds.
  EXPECT_GT(span_calls["open"], 0);
  EXPECT_GT(span_calls["close"], 0);
  EXPECT_GT(span_calls["read-block"], 0);
  EXPECT_GT(span_calls["write-block"], 0);
  EXPECT_GT(span_calls["read-dir"], 0);
}

TEST(ObservabilityTest, LatencyRecordersAgreeWithLedgerTotals) {
  Generator generator(QuickParams(), ObsCluster(/*metrics=*/true, /*tracing=*/false));
  generator.Run(10 * kMinute, /*warmup=*/2 * kMinute);
  const RpcLedger& ledger = generator.cluster().rpc_ledger();
  const MetricsRegistry& metrics = generator.cluster().observability()->metrics();
  for (int k = 0; k < kRpcKindCount; ++k) {
    const RpcKind kind = static_cast<RpcKind>(k);
    const LatencyRecorder* rec =
        metrics.FindLatency(std::string("rpc.") + RpcKindName(kind) + ".latency_us");
    if (kind == RpcKind::kShadowOpen || kind == RpcKind::kShadowClose ||
        kind == RpcKind::kShadowWrite || kind == RpcKind::kBatch ||
        kind == RpcKind::kMigrateState || kind == RpcKind::kMigrateDirty ||
        kind == RpcKind::kMigrateCommit) {
      // Replication, batching, and rebalancing are off here, so the shadow,
      // batch-flush, and migration kinds register no recorder: a permanent
      // zero row would change the metrics-window output of every default run.
      EXPECT_EQ(rec, nullptr) << RpcKindName(kind);
      continue;
    }
    ASSERT_NE(rec, nullptr) << RpcKindName(kind);
    const RpcStat& stat = ledger.stat(kind);
    EXPECT_EQ(rec->count(), stat.calls) << RpcKindName(kind);
    // The recorded latency is the full client-observed time: wire + fault
    // waits + (async mode only) server queue wait and service time.
    EXPECT_EQ(rec->total(), stat.net_time + stat.wait_time + stat.queue_time + stat.service_time)
        << RpcKindName(kind);
  }
  const std::string summary = FormatRpcLatencySummary(metrics);
  EXPECT_NE(summary.find("read-block"), std::string::npos);
}

TEST(ObservabilityTest, PeriodicSnapshotsCoverTheMeasuredWindow) {
  const ObsRun run = RunObserved(/*metrics=*/true, /*tracing=*/false);
  // Warmup windows are discarded with the warmup counters; the measured
  // 10-minute window then captures every simulated minute.
  ASSERT_GE(run.windows.size(), 8u);
  for (size_t i = 1; i < run.windows.size(); ++i) {
    EXPECT_EQ(run.windows[i].end - run.windows[i - 1].end, kMinute);
    EXPECT_EQ(run.windows[i].start, run.windows[i - 1].end);
  }
  // Cluster-registered instruments all appear in a window.
  const MetricsWindow& last = run.windows.back();
  EXPECT_NE(last.Find("sim.queue.dispatched"), nullptr);
  EXPECT_NE(last.Find("rpc.read-block.latency_us"), nullptr);
  EXPECT_NE(last.Find("cache.miss_fills"), nullptr);
}

TEST(ObservabilityTest, ReplayedWindowsCoverEveryCall) {
  Generator generator(QuickParams(), ObsCluster(/*metrics=*/false, /*tracing=*/false));
  const TraceLog trace = generator.Run(10 * kMinute + 30 * kSecond, /*warmup=*/2 * kMinute);
  ASSERT_FALSE(trace.empty());
  ObservabilityConfig config;
  config.metrics = true;
  Observability obs(config);
  const RpcLedger ledger = ReplayTraceLedger(trace, NetworkConfig{}, &obs, kMinute);
  const MetricsTimeSeries& series = obs.series();
  ASSERT_GT(series.size(), 1u);
  ASSERT_EQ(series.windows_evicted(), 0);
  int64_t calls = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    const WindowSample* w = series.window(i).Find("rpc.calls");
    ASSERT_NE(w, nullptr);
    calls += w->delta;
    EXPECT_EQ(series.window(i).final_partial, i + 1 == series.size());
  }
  EXPECT_GT(ledger.TotalCalls(), 0);
  EXPECT_EQ(calls, ledger.TotalCalls());
  // The first window opens at the first record, not at t = 0, and every
  // later boundary falls on the one-minute grid a live collector fires on.
  EXPECT_GT(trace.front().time, kMinute);
  EXPECT_EQ(series.window(0).start, trace.front().time);
  for (size_t i = 0; i + 1 < series.size(); ++i) {
    EXPECT_EQ(series.window(i).end % kMinute, 0) << "window " << i;
  }
  // The last window closes at the last record, off the one-minute grid.
  EXPECT_NE(trace.back().time % kMinute, 0);
  EXPECT_EQ(series.latest()->end, trace.back().time);
  // Only the kinds a kernel-call trace can imply have latency recorders.
  std::vector<std::string> latencies;
  for (const WindowSample& w : series.latest()->samples) {
    if (w.name.starts_with("rpc.") && w.name.ends_with(".latency_us")) {
      latencies.push_back(w.name.substr(4, w.name.size() - 4 - 11));
    }
  }
  EXPECT_EQ(latencies,
            (std::vector<std::string>{"open", "close", "create", "delete", "truncate",
                                      "read-block", "write-block", "uncached-read",
                                      "uncached-write", "read-dir"}));
}

TEST(ObservabilityTest, FinalPartialWindowOnlyWhenRunLengthNotAMultiple) {
  // 12 minutes total is an exact multiple of the one-minute interval: the
  // boundary snapshot fires from the periodic daemon (RunUntil's deadline is
  // inclusive) and the finalizer must not double-capture.
  Generator even(QuickParams(), ObsCluster(/*metrics=*/true, /*tracing=*/false));
  even.Run(10 * kMinute, /*warmup=*/2 * kMinute);
  const MetricsTimeSeries& even_series = even.cluster().observability()->series();
  ASSERT_GT(even_series.size(), 0u);
  EXPECT_FALSE(even_series.latest()->final_partial);
  EXPECT_EQ(even_series.latest()->end, even.queue().now());
  // Warmup reset re-baselines the series, so the first measured window
  // starts at the warmup boundary.
  EXPECT_EQ(even_series.window(0).start, 2 * kMinute);

  // A run length that is not a multiple leaves a trailing 30-second tail;
  // the finalizer captures it as a marked partial window.
  Generator odd(QuickParams(), ObsCluster(/*metrics=*/true, /*tracing=*/false));
  odd.Run(10 * kMinute + 30 * kSecond, /*warmup=*/2 * kMinute);
  const MetricsTimeSeries& odd_series = odd.cluster().observability()->series();
  ASSERT_GT(odd_series.size(), 0u);
  EXPECT_TRUE(odd_series.latest()->final_partial);
  EXPECT_EQ(odd_series.latest()->end, odd.queue().now());
  EXPECT_EQ(odd_series.latest()->end - odd_series.latest()->start, 30 * kSecond);
}

TEST(ObservabilityTest, CriticalPathReconcilesExactlyWithTheLedger) {
  ClusterConfig config = ObsCluster(/*metrics=*/true, /*tracing=*/false);
  config.observability.critical_path = true;
  config.rpc.async = true;  // exercise the queue/service phases too
  Generator generator(QuickParams(), config);
  generator.Run(10 * kMinute, /*warmup=*/2 * kMinute);
  const Observability* obs = generator.cluster().observability();
  ASSERT_NE(obs, nullptr);
  const RpcLedger& ledger = generator.cluster().rpc_ledger();

  int64_t ledger_calls = 0;
  int64_t ledger_callbacks = 0;
  SimDuration ledger_wait = 0;
  SimDuration ledger_net = 0;
  SimDuration ledger_queue = 0;
  SimDuration ledger_service = 0;
  for (int k = 0; k < kRpcKindCount; ++k) {
    const RpcKind kind = static_cast<RpcKind>(k);
    const RpcStat& stat = ledger.stat(kind);
    ledger_calls += stat.calls;  // collector counts callbacks among rpcs too
    if (RpcKindInfoOf(kind).callback()) {
      ledger_callbacks += stat.calls;
    }
    ledger_wait += stat.wait_time;
    ledger_net += stat.net_time;
    ledger_queue += stat.queue_time;
    ledger_service += stat.service_time;
  }

  const CriticalPathCollector::PhaseTotals sum = obs->critical_path().Sum();
  EXPECT_GT(sum.ops, 0);
  EXPECT_EQ(sum.rpcs, ledger_calls);
  EXPECT_EQ(sum.callbacks, ledger_callbacks);
  EXPECT_EQ(sum.rpc_wait, ledger_wait);
  EXPECT_EQ(sum.wire, ledger_net);
  EXPECT_EQ(sum.queue, ledger_queue);
  EXPECT_EQ(sum.service, ledger_service);

  // Per-op rows exist for the core kernel calls, and the rendered table's
  // reconciliation lines all pass.
  EXPECT_GT(obs->critical_path().totals(OpKind::kRead).ops, 0);
  EXPECT_GT(obs->critical_path().totals(OpKind::kWrite).ops, 0);
  EXPECT_GT(obs->critical_path().totals(OpKind::kOpen).ops, 0);
  const std::string table = FormatCriticalPath(obs->critical_path(), ledger);
  EXPECT_NE(table.find("reconcile rpcs:"), std::string::npos);
  EXPECT_NE(table.find("OK"), std::string::npos);
  EXPECT_EQ(table.find("MISMATCH"), std::string::npos);
}

TEST(ObservabilityTest, CriticalPathAndHotspotDoNotPerturbTheSimulation) {
  ClusterConfig full = ObsCluster(/*metrics=*/true, /*tracing=*/true);
  full.observability.critical_path = true;
  full.observability.hotspot = true;
  Generator observed(QuickParams(), full);
  const TraceLog observed_trace = observed.Run(10 * kMinute, /*warmup=*/2 * kMinute);

  Generator bare(QuickParams(), ObsCluster(/*metrics=*/false, /*tracing=*/false));
  const TraceLog bare_trace = bare.Run(10 * kMinute, /*warmup=*/2 * kMinute);

  EXPECT_EQ(observed_trace, bare_trace);
  EXPECT_EQ(observed.cluster().rpc_ledger(), bare.cluster().rpc_ledger());
}

// The sharding hot-spot scenario from bench/ablation_sharding and CliSmoke.obs:
// heavy workload (simulation tasks dominate) on the event-driven transport
// with 2 servers. Modulo placement aims every user's simulation input at one
// server; hash placement spreads them on the same seed.
WorkloadParams HeavyParams() {
  WorkloadParams p;
  p.num_users = 8;
  p.seed = 1991;
  for (auto& group : p.groups) {
    group.task_weights[static_cast<int>(TaskKind::kSimulate)] *= 4.0;
    group.sim_input_bytes *= 2;
  }
  return p;
}

ClusterConfig HotspotCluster(ShardingPolicy policy) {
  ClusterConfig c;
  c.num_clients = 4;
  c.num_servers = 2;
  c.rpc.async = true;
  c.sharding.policy = policy;
  c.observability.metrics = true;
  c.observability.hotspot = true;
  c.observability.snapshot_interval = kMinute;
  return c;
}

TEST(ObservabilityTest, HotspotFlagsModuloSkewAndStaysQuietUnderHash) {
  Generator modulo(HeavyParams(), HotspotCluster(ShardingPolicy::kModulo));
  modulo.Run(10 * kMinute, /*warmup=*/2 * kMinute);
  const HotspotDetector* det = modulo.cluster().hotspot();
  ASSERT_NE(det, nullptr);
  ASSERT_FALSE(det->episodes().empty());
  EXPECT_EQ(det->episodes()[0].server, 0);  // all sim inputs share residue 0 mod 2
  EXPECT_GE(det->episodes()[0].windows, HotspotConfig{}.sustain_windows);
  EXPECT_NE(modulo.cluster().HotspotReport().find("server 0: HOT"), std::string::npos);

  Generator hashed(HeavyParams(), HotspotCluster(ShardingPolicy::kHash));
  hashed.Run(10 * kMinute, /*warmup=*/2 * kMinute);
  ASSERT_NE(hashed.cluster().hotspot(), nullptr);
  EXPECT_TRUE(hashed.cluster().hotspot()->episodes().empty());
  EXPECT_NE(hashed.cluster().HotspotReport().find("no hot spots detected"),
            std::string::npos);
}

TEST(ObservabilityTest, HotspotEpisodesAreDeterministicAcrossRuns) {
  auto run_episodes = [] {
    Generator g(HeavyParams(), HotspotCluster(ShardingPolicy::kModulo));
    g.Run(10 * kMinute, /*warmup=*/2 * kMinute);
    return g.cluster().hotspot()->episodes();
  };
  const std::vector<HotspotEpisode> a = run_episodes();
  const std::vector<HotspotEpisode> b = run_episodes();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].server, b[i].server);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].windows, b[i].windows);
    EXPECT_EQ(a[i].peak_queue_p99, b[i].peak_queue_p99);
    EXPECT_EQ(a[i].peak_queue_depth, b[i].peak_queue_depth);
  }
}

TEST(ObservabilityTest, ServerAndCacheSpansUseTheirOwnTracks) {
  const ObsRun run = RunObserved();
  bool saw_server_span = false;
  bool saw_cache_span = false;
  for (const Span& s : run.spans) {
    const std::string cat = s.category;
    if (cat == "server") {
      saw_server_span = true;
      EXPECT_GE(s.track.pid, kServerPidBase);
    } else if (cat == "cache") {
      saw_cache_span = true;
      EXPECT_GE(s.track.pid, kClientPidBase);
      EXPECT_LT(s.track.pid, kServerPidBase);
    }
  }
  EXPECT_TRUE(saw_server_span);
  EXPECT_TRUE(saw_cache_span);
}

}  // namespace
}  // namespace sprite
