// sprite-analyze: run the paper's Section-4 analyses over a trace file.
//
// Usage:
//   sprite_analyze [options] <trace-file>
//   sprite_analyze --simulate [options]
//
// Reads a trace written by sprite_tracegen (binary by default, --text for
// the text format) and prints the BSD-study-revisited report: summary,
// activity, access patterns, run lengths, sizes, open times, lifetimes, and
// the consistency simulations. With --rpc-ledger it also replays the trace
// through the RPC transport model and prints the per-kind ledger table.
//
// Observability options:
//   --metrics              collect and print metrics: the windowed time
//                          series (sprite-metrics v2: per-window deltas,
//                          rates, and windowed latency percentiles; DESIGN.md
//                          "Observability v2"), then per-RPC-kind
//                          p50/p90/p99 latency percentiles. Trace replay
//                          windows the trace time the same way and closes
//                          with a final_partial window at the last record.
//   --metrics-interval N   metrics window period in seconds (default 60;
//                          implies --metrics)
//   --metrics-out FILE     write the metric streams (--metrics windows,
//                          --critical-path, --hotspot-report, --rebalance)
//                          to FILE instead of interleaving them with the
//                          paper tables on stdout; --metrics-out=FILE also
//                          accepted. Rejected when none of those is asked for
//   --critical-path        collect per-operation critical-path frames and
//                          print the "where the time goes" table attributing
//                          end-to-end op latency to RPC wait / wire / queue /
//                          service / disk phases, cross-checked against the
//                          RPC ledger (requires --simulate)
//   --hotspot-report       run the windowed hot-spot detector over the
//                          per-server series and print flagged episodes
//                          (implies --metrics; requires --simulate)
//   --rebalance            enable live shard rebalancing (DESIGN.md §11):
//                          hot-spot episodes trigger charged home migrations
//                          off the flagged server mid-run. Implies --metrics
//                          and the hot-spot detector; prints the rebalance
//                          report (migration bursts, moved bytes, whether
//                          each hot spot dissolved) and the kMigrate* RPC
//                          totals (requires --simulate)
//   --trace-out FILE       write spans as Chrome trace-event JSON, loadable
//                          in Perfetto (ui.perfetto.dev); --trace-out=FILE
//                          also accepted. Gauges/counters export as per-track
//                          counter series alongside the spans.
//
// With a trace-file input the observability data is reconstructed by the
// ledger replay, which can only see trace-visible RPC kinds (paging never
// appears in kernel-call traces). --simulate instead runs a live cluster
// under the synthetic workload (same knobs as sprite_tracegen: --users,
// --clients, --servers, --minutes, --warmup, --seed, --heavy), where every
// RPC kind crosses the instrumented transport, then analyzes the trace that
// run produced.
//
// Event-driven transport (requires --simulate):
//   --async                run the cluster with RpcConfig::async: RPC
//                          completion moves onto the event queue and each
//                          server serializes requests through a FIFO
//                          service queue, so concurrent RPCs overlap and a
//                          loaded server accumulates queueing delay
//                          (server.N.queue_us / server.N.queue_depth in
//                          --metrics; Queue/Service columns in
//                          --rpc-ledger; "rpc.queued" spans in --trace-out)
//
// Honest wire and contended network (requires --simulate):
//   --honest-wire          ledger-only control RPCs (getattr, create/delete/
//                          truncate, consistency callbacks) stop being free:
//                          one issued within the piggyback window of the last
//                          exchange on its (client, server) pair rides it for
//                          free, otherwise it pays a full control exchange
//                          ("wire:" footer in --rpc-ledger)
//   --rpc-batching         defer small control RPCs — and the --replication
//                          shadow stream — into per-(client, server) batches
//                          that flush as single "batch" wire exchanges
//                          (implies the honest-wire cost model for them)
//   --net-contention       per-link + shared-medium queueing on the wire:
//                          overlapping transfers wait, measurable as
//                          net.link.N.queued_us in --metrics and
//                          "net.queued" spans in --trace-out
//   --net-loss RATE        deterministic per-transfer loss probability on the
//                          contended wire (implies --net-contention); each
//                          loss pays a retransmit timeout plus a resend
//
// Server sharding (requires --simulate):
//   --shard-policy NAME    file -> server placement policy: modulo (the
//                          default, the historical `file % servers`
//                          partition), hash (splitmix64 decluster), range
//                          (contiguous FileId ranges), dir-affinity (a file
//                          follows its parent directory, so a user's
//                          directory/mailbox/files co-locate)
//   --shard-report         print the per-server placement/load table after
//                          the standard tables: distinct files placed,
//                          routed lookups, homed bytes, RPC calls, queue
//                          percentiles (async + metrics runs), and skew
//                          summaries (max/mean, coefficient of variation)
//
// Fault injection (requires --simulate):
//   --crash-schedule SPEC  comma-separated deterministic fault events:
//                            crash:<server>[+<server>...]@<at_sec>+<down_sec>
//                            part:<first>-<last>x<server>@<at_sec>+<dur_sec>
//                            ccrash:<client>@<at_sec>
//                          Times are seconds from the start of the run
//                          (warmup included). Server crashes lose volatile
//                          open state and trigger client reopen storms; a
//                          '+'-joined server group crashes together
//                          (correlated failure); partitions drop consistency
//                          callbacks to the named clients (silent cache
//                          staleness); ccrash crash-reboots one client
//                          (cold caches, dropped handles). A recovery
//                          summary section is printed after the standard
//                          tables.
//   --replication          primary/backup server replication: each home's
//                          primary shadows open registrations and dirty
//                          writebacks to a deterministic backup (real,
//                          ledgered shadow-* RPC traffic), and a crash with
//                          a live shadow FAILS OVER — the backup is promoted
//                          and replays the shadow delta instead of the
//                          epoch-bump reopen storm. Correlated crashes that
//                          kill every replica degrade to classic recovery.
//                          Fail-over counts and latency appear in the
//                          recovery summary (and recovery.failover_us under
//                          --metrics).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/analysis/accesses.h"
#include "src/analysis/activity.h"
#include "src/fs/recovery.h"
#include "src/analysis/lifetimes.h"
#include "src/analysis/patterns.h"
#include "src/consistency/overhead.h"
#include "src/consistency/polling.h"
#include "src/fs/rpc.h"
#include "src/fs/sharding.h"
#include "src/obs/observability.h"
#include "src/trace/codec.h"
#include "src/trace/summary.h"
#include "src/trace/text_format.h"
#include "src/util/table.h"
#include "src/workload/generator.h"

using namespace sprite;

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: sprite_analyze [--text] [--interval SECONDS] [--rpc-ledger]\n"
      "                      [--metrics] [--metrics-interval SECONDS]\n"
      "                      [--metrics-out FILE] [--trace-out FILE] TRACE\n"
      "       sprite_analyze --simulate [--users N] [--clients N] [--servers N]\n"
      "                      [--minutes N] [--warmup N] [--seed N] [--heavy]\n"
      "                      [--async] [--crash-schedule SPEC] [--replication]\n"
      "                      [--honest-wire] [--rpc-batching]\n"
      "                      [--net-contention] [--net-loss RATE]\n"
      "                      [--shard-policy modulo|hash|range|dir-affinity]\n"
      "                      [--shard-report] [--critical-path] [--hotspot-report]\n"
      "                      [--rebalance] [observability options as above]\n");
}

void PrintMetrics(const Observability& obs, FILE* sink) {
  // Windowed time series (deltas/rates plus windowed latency percentiles).
  // The final window carries final_partial=1 when the run length was not a
  // multiple of the window period, and always for a replayed trace.
  const MetricsTimeSeries& series = obs.series();
  std::fprintf(sink,
               "\n== Metrics (sprite-metrics v2, windowed; see DESIGN.md "
               "\"Observability v2\") ==\n");
  if (series.windows_evicted() > 0) {
    std::fprintf(sink, "# %lld oldest windows evicted (ring capacity %zu)\n",
                 static_cast<long long>(series.windows_evicted()), MetricsTimeSeries::kCapacity);
  }
  for (size_t i = 0; i < series.size(); ++i) {
    std::fprintf(sink, "%s", FormatMetricsWindow(series.window(i)).c_str());
  }
  std::fprintf(sink, "\n== RPC latency percentiles (from recorded spans) ==\n%s",
               FormatRpcLatencySummary(obs.metrics()).c_str());
}

bool WriteTraceJson(const Observability& obs, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  obs.tracer().WriteChromeTrace(out, obs.metrics_enabled() ? &obs.metrics() : nullptr);
  std::fprintf(stderr, "wrote %zu spans to %s\n", obs.tracer().spans().size(), path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool text = false;
  bool rpc_ledger = false;
  bool metrics = false;
  bool simulate = false;
  bool async_rpc = false;
  bool replication = false;
  bool honest_wire = false;
  bool rpc_batching = false;
  bool net_contention = false;
  double net_loss = 0.0;
  bool heavy = false;
  bool shard_report = false;
  bool critical_path = false;
  bool hotspot_report = false;
  bool rebalance = false;
  ShardingPolicy shard_policy = ShardingPolicy::kModulo;
  SimDuration interval = 10 * kMinute;
  SimDuration metrics_interval = kMinute;
  std::string trace_out;
  std::string metrics_out;
  std::string crash_schedule_spec;
  std::string path;
  int users = 20;
  int clients = -1;
  int servers = 4;
  int minutes = 90;
  int warmup = 30;
  uint64_t seed = 1991;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_int = [&](int& out) {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      out = std::atoi(argv[++i]);
    };
    // A client count or a period of zero or less is rejected here, before
    // anything is simulated, not deep inside the run.
    auto next_positive = [&](int& out) {
      next_int(out);
      if (out <= 0) {
        std::fprintf(stderr, "%s must be positive, got %s\n", arg.c_str(), argv[i]);
        std::exit(2);
      }
    };
    if (arg == "--text") {
      text = true;
    } else if (arg == "--rpc-ledger") {
      rpc_ledger = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--simulate") {
      simulate = true;
    } else if (arg == "--async") {
      async_rpc = true;
    } else if (arg == "--replication") {
      replication = true;
    } else if (arg == "--honest-wire") {
      honest_wire = true;
    } else if (arg == "--rpc-batching") {
      rpc_batching = true;
    } else if (arg == "--net-contention") {
      net_contention = true;
    } else if ((arg == "--net-loss" && i + 1 < argc) || arg.rfind("--net-loss=", 0) == 0) {
      const std::string rate = arg == "--net-loss"
                                   ? std::string(argv[++i])
                                   : arg.substr(std::strlen("--net-loss="));
      net_loss = std::atof(rate.c_str());
      if (net_loss < 0.0 || net_loss >= 1.0) {
        std::fprintf(stderr, "--net-loss wants a rate in [0, 1), got %s\n", rate.c_str());
        return 2;
      }
      net_contention = true;
    } else if (arg == "--heavy") {
      heavy = true;
    } else if (arg == "--interval") {
      int seconds = 0;
      next_positive(seconds);
      interval = static_cast<SimDuration>(seconds) * kSecond;
    } else if (arg == "--metrics-interval") {
      metrics = true;
      int seconds = 0;
      next_positive(seconds);
      metrics_interval = static_cast<SimDuration>(seconds) * kSecond;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::strlen("--metrics-out="));
    } else if (arg == "--critical-path") {
      critical_path = true;
    } else if (arg == "--hotspot-report") {
      hotspot_report = true;
    } else if (arg == "--rebalance") {
      rebalance = true;
    } else if (arg == "--shard-report") {
      shard_report = true;
    } else if ((arg == "--shard-policy" && i + 1 < argc) || arg.rfind("--shard-policy=", 0) == 0) {
      const std::string name = arg == "--shard-policy"
                                   ? std::string(argv[++i])
                                   : arg.substr(std::strlen("--shard-policy="));
      if (!ParseShardingPolicy(name, &shard_policy)) {
        std::fprintf(stderr, "unknown --shard-policy %s (want modulo|hash|range|dir-affinity)\n",
                     name.c_str());
        return 2;
      }
    } else if (arg == "--crash-schedule" && i + 1 < argc) {
      crash_schedule_spec = argv[++i];
    } else if (arg.rfind("--crash-schedule=", 0) == 0) {
      crash_schedule_spec = arg.substr(std::strlen("--crash-schedule="));
    } else if (arg == "--users") {
      next_int(users);
    } else if (arg == "--clients") {
      next_positive(clients);
    } else if (arg == "--servers") {
      next_int(servers);
    } else if (arg == "--minutes") {
      next_int(minutes);
    } else if (arg == "--warmup") {
      next_int(warmup);
    } else if (arg == "--seed") {
      int s = 0;
      next_int(s);
      seed = static_cast<uint64_t>(s);
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      Usage();
      return 2;
    } else {
      path = arg;
    }
  }
  if ((!simulate && path.empty()) || (simulate && !path.empty())) {
    Usage();
    return 2;
  }
  // Options that only a live cluster can honour.
  const std::pair<bool, const char*> live_only[] = {
      {!crash_schedule_spec.empty(), "--crash-schedule requires --simulate"},
      {async_rpc, "--async requires --simulate"},
      {replication, "--replication requires --simulate"},
      {honest_wire || rpc_batching || net_contention,
       "--honest-wire/--rpc-batching/--net-contention require --simulate"},
      {shard_report || shard_policy != ShardingPolicy::kModulo,
       "--shard-policy / --shard-report require --simulate"},
      {critical_path || hotspot_report, "--critical-path / --hotspot-report require --simulate"},
      {rebalance, "--rebalance requires --simulate"},
  };
  for (const auto& [given, message] : live_only) {
    if (given && !simulate) {
      std::fprintf(stderr, "%s\n", message);
      Usage();
      return 2;
    }
  }
  if (!metrics_out.empty() && !metrics && !critical_path && !hotspot_report && !rebalance) {
    std::fprintf(stderr,
                 "--metrics-out writes no stream without --metrics, --metrics-interval, "
                 "--critical-path, --hotspot-report or --rebalance\n");
    Usage();
    return 2;
  }
  FaultSchedule fault_schedule;
  if (!crash_schedule_spec.empty()) {
    try {
      fault_schedule = ParseFaultSchedule(crash_schedule_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --crash-schedule: %s\n", e.what());
      return 2;
    }
  }

  ObservabilityConfig obs_config;
  // The detector consumes the windowed series, so --hotspot-report turns the
  // registry on even without --metrics (windows print only with --metrics).
  // --rebalance needs the whole chain — windows feed the detector, whose
  // episodes drive the migrations — so it forces both on too.
  obs_config.metrics = metrics || hotspot_report || rebalance;
  obs_config.tracing = !trace_out.empty();
  obs_config.snapshot_interval = metrics_interval;
  obs_config.critical_path = critical_path;
  obs_config.hotspot = hotspot_report || rebalance;

  TraceLog trace;
  // Live-cluster mode: the cluster owns the Observability; replay mode
  // builds a local one fed by the ledger reconstruction.
  std::unique_ptr<Generator> generator;
  std::unique_ptr<Observability> replay_obs;
  const Observability* obs = nullptr;

  if (simulate) {
    if (users <= 0 || servers <= 0 || minutes <= 0 || warmup < 0) {
      Usage();
      return 2;
    }
    if (clients < 0) {
      clients = users + 6;
    }
    WorkloadParams params;
    params.num_users = users;
    params.seed = seed;
    if (heavy) {
      for (auto& group : params.groups) {
        group.task_weights[static_cast<int>(TaskKind::kSimulate)] *= 4.0;
        group.sim_input_bytes *= 2;
      }
    }
    ClusterConfig cluster;
    cluster.num_clients = clients;
    cluster.num_servers = servers;
    cluster.observability = obs_config;
    cluster.rpc.async = async_rpc;
    cluster.rpc.honest_wire = honest_wire;
    cluster.rpc.batching = rpc_batching;
    cluster.network.contention = net_contention;
    cluster.network.loss_rate = net_loss;
    cluster.replication.enabled = replication;
    cluster.rebalance.enabled = rebalance;
    cluster.sharding.policy = shard_policy;
    std::fprintf(stderr, "simulating %d min (+%d warmup) for %d users on %d clients...\n",
                 minutes, warmup, users, clients);
    try {
      generator = std::make_unique<Generator>(params, cluster);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bad configuration: %s\n", e.what());
      return 2;
    }
    if (!fault_schedule.empty()) {
      try {
        ApplyFaultSchedule(generator->cluster(), fault_schedule);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bad --crash-schedule: %s\n", e.what());
        return 2;
      }
    }
    trace = generator->Run(static_cast<SimDuration>(minutes) * kMinute,
                           static_cast<SimDuration>(warmup) * kMinute);
    obs = generator->cluster().observability();
    // Determinism witness (stderr, so stdout baselines are unaffected): the
    // kernel-level event count must not move under perf refactors.
    std::fprintf(stderr, "dispatched %llu events\n",
                 static_cast<unsigned long long>(generator->queue().dispatched_count()));
  } else {
    try {
      if (text) {
        std::ifstream in(path);
        if (!in) {
          std::fprintf(stderr, "cannot open %s\n", path.c_str());
          return 1;
        }
        trace = ParseText(in);
      } else {
        trace = ReadTraceFile(path);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to read %s: %s\n", path.c_str(), e.what());
      return 1;
    }
  }

  const TraceSummary s = Summarize(trace);
  std::printf("== Summary (Table 1 style) ==\n");
  std::printf("records %lld | %.2f hours | %lld users (%lld using migration)\n",
              static_cast<long long>(s.total_records), s.duration_hours(),
              static_cast<long long>(s.distinct_users),
              static_cast<long long>(s.migration_users));
  std::printf("read %.1f MB | written %.1f MB | dirs %.2f MB\n", s.mbytes_read(),
              s.mbytes_written(), s.mbytes_dir_read());
  std::printf("opens %lld | closes %lld | seeks %lld | deletes %lld | truncates %lld | "
              "shared r/w %lld/%lld\n\n",
              static_cast<long long>(s.open_events), static_cast<long long>(s.close_events),
              static_cast<long long>(s.seek_events), static_cast<long long>(s.delete_events),
              static_cast<long long>(s.truncate_events),
              static_cast<long long>(s.shared_read_events),
              static_cast<long long>(s.shared_write_events));

  const ActivityReport activity = ComputeActivity(trace, interval);
  std::printf("== Activity (Table 2 style, %.0f-second intervals) ==\n", ToSeconds(interval));
  std::printf("active users: %.1f avg (max %.0f) | throughput/user %.1f KB/s | peak user "
              "%.0f KB/s | peak total %.0f KB/s\n\n",
              activity.all_users.active_users.mean(), activity.all_users.active_users.max(),
              activity.all_users.throughput_per_user.mean() / 1024.0,
              activity.all_users.peak_user_throughput / 1024.0,
              activity.all_users.peak_total_throughput / 1024.0);

  const auto accesses = ExtractAccesses(trace);
  const AccessPatternStats patterns = ComputeAccessPatterns(accesses);
  std::printf("== Access patterns (Table 3 style) ==\n");
  std::printf("read-only %.1f%% | write-only %.1f%% | read-write %.1f%% of %lld accesses\n",
              patterns.read_only.accesses_fraction * 100,
              patterns.write_only.accesses_fraction * 100,
              patterns.read_write.accesses_fraction * 100,
              static_cast<long long>(patterns.total_accesses));
  std::printf("read-only sequentiality: %.0f%% whole-file, %.0f%% other-seq, %.1f%% random\n\n",
              patterns.read_only.whole_file * 100, patterns.read_only.other_sequential * 100,
              patterns.read_only.random * 100);

  const RunLengthCurves runs = ComputeRunLengths(accesses);
  const FileSizeCurves sizes = ComputeFileSizes(accesses);
  const WeightedSamples opens = ComputeOpenDurations(accesses);
  const LifetimeCurves lifetimes = ComputeLifetimes(trace);
  std::printf("== Distributions (Figures 1-4 style) ==\n");
  std::printf("runs: %.0f%% < 10 KB; %.0f%% of bytes in runs > 1 MB\n",
              runs.by_runs.FractionAtOrBelow(10 * kKilobyte) * 100,
              (1 - runs.by_bytes.FractionAtOrBelow(kMegabyte)) * 100);
  std::printf("sizes: %.0f%% of accesses < 1 KB; %.0f%% of bytes from files >= 1 MB\n",
              sizes.by_accesses.FractionAtOrBelow(kKilobyte) * 100,
              (1 - sizes.by_bytes.FractionAtOrBelow(kMegabyte)) * 100);
  std::printf("opens: %.0f%% < 0.25 s (median %.0f ms)\n",
              opens.FractionAtOrBelow(0.25) * 100, opens.Quantile(0.5) * 1000);
  std::printf("lifetimes: %.0f%% of files and %.0f%% of bytes dead within 30 s (%lld deaths)\n\n",
              lifetimes.by_files.FractionAtOrBelow(30) * 100,
              lifetimes.by_bytes.FractionAtOrBelow(30) * 100,
              static_cast<long long>(lifetimes.deaths_observed));

  std::printf("== Consistency simulations (Tables 11-12 style) ==\n");
  for (const SimDuration refresh : {60 * kSecond, 3 * kSecond}) {
    const PollingResult p = SimulatePolling(trace, refresh);
    std::printf("polling %2.0f s: %.1f stale reads/hour, %.0f%% users affected\n",
                ToSeconds(refresh), p.errors_per_hour(), p.affected_user_fraction() * 100);
  }
  for (const auto& [name, policy] :
       std::initializer_list<std::pair<const char*, ConsistencyPolicy>>{
           {"sprite", ConsistencyPolicy::kSprite},
           {"modified", ConsistencyPolicy::kSpriteModified},
           {"token", ConsistencyPolicy::kToken}}) {
    const OverheadResult o = SimulateConsistencyOverhead(trace, policy);
    std::printf("%-9s bytes ratio %.2f, RPC ratio %.2f over %lld shared events\n", name,
                o.byte_ratio(), o.rpc_ratio(), static_cast<long long>(o.events_requested));
  }

  if (simulate && !fault_schedule.empty()) {
    Cluster& c = generator->cluster();
    const StaleDataTracker& tracker = c.stale_tracker();
    std::printf("\n== Crash recovery and partitions (live cluster) ==\n");
    std::printf("injected: %lld server crash(es), %lld partition(s)",
                static_cast<long long>(fault_schedule.crashes.size()),
                static_cast<long long>(fault_schedule.partitions.size()));
    if (!fault_schedule.client_crashes.empty()) {
      std::printf(", %lld client crash(es)",
                  static_cast<long long>(fault_schedule.client_crashes.size()));
    }
    std::printf("\n");
    if (replication) {
      const double mean_failover_ms =
          c.failovers() > 0
              ? static_cast<double>(c.total_failover_us()) /
                    (static_cast<double>(c.failovers()) * 1000.0)
              : 0.0;
      std::printf("replication: %lld failover(s) (mean %.1f ms), %lld degraded crash(es), "
                  "%lld resync(s)\n",
                  static_cast<long long>(c.failovers()), mean_failover_ms,
                  static_cast<long long>(c.degraded_crashes()),
                  static_cast<long long>(c.resyncs()));
      const RpcLedger& ledger = c.rpc_ledger();
      const int64_t shadow_calls = ledger.stat(RpcKind::kShadowOpen).calls +
                                   ledger.stat(RpcKind::kShadowClose).calls +
                                   ledger.stat(RpcKind::kShadowWrite).calls;
      std::printf("replication: %.1f KB dirty preserved by fail-over | %lld shadow RPCs "
                  "(%.1f KB shadowed writeback)\n",
                  static_cast<double>(c.failover_preserved_bytes()) / 1024.0,
                  static_cast<long long>(shadow_calls),
                  static_cast<double>(ledger.stat(RpcKind::kShadowWrite).payload_bytes) /
                      1024.0);
    }
    for (int sv = 0; sv < c.num_servers(); ++sv) {
      const uint64_t epoch = c.server(static_cast<ServerId>(sv)).epoch();
      if (epoch > 1) {
        std::printf("server %d: epoch %llu\n", sv, static_cast<unsigned long long>(epoch));
      }
    }
    const RpcStat& reopen = c.rpc_ledger().stat(RpcKind::kReopen);
    std::printf("reopen RPCs: %lld (%lld retries, %lld blocked waits)\n",
                static_cast<long long>(reopen.calls), static_cast<long long>(reopen.retries),
                static_cast<long long>(reopen.blocked_waits));
    int stale_outstanding = 0;
    for (int cl = 0; cl < c.num_clients(); ++cl) {
      stale_outstanding += c.client(static_cast<ClientId>(cl)).stale_handle_count();
    }
    std::printf("stale handles outstanding: %d\n", stale_outstanding);
    std::printf("dropped callbacks: %lld | stale reads: %lld | clients affected: %lld\n",
                static_cast<long long>(tracker.dropped_callbacks()),
                static_cast<long long>(tracker.stale_reads()),
                static_cast<long long>(tracker.clients_affected().size()));
  }

  if (simulate && shard_report) {
    std::printf("\n%s", generator->cluster().ShardReport().c_str());
  }

  if (simulate) {
    if (rpc_ledger) {
      std::printf("\n== RPC transport ledger (live cluster) ==\n%s",
                  FormatRpcLedger(generator->cluster().rpc_ledger()).c_str());
    }
    if (honest_wire || rpc_batching || net_contention) {
      const Cluster& c = generator->cluster();
      const RpcLedger& ledger = c.rpc_ledger();
      const Network& net = c.network();
      // Busy time spans warmup too (the network is never reset), so
      // utilization is taken over the whole run, like the ablations do.
      const SimDuration elapsed =
          static_cast<SimDuration>(minutes + warmup) * kMinute;
      std::printf("\n== Wire (honest wire / contention) ==\n");
      std::printf("wire exchanges: %lld | piggybacked %lld | charged control %lld | "
                  "batched %lld ops in %lld batches\n",
                  static_cast<long long>(net.rpc_count()),
                  static_cast<long long>(ledger.piggybacked_ops),
                  static_cast<long long>(ledger.charged_control_ops),
                  static_cast<long long>(ledger.batched_ops),
                  static_cast<long long>(ledger.batches));
      std::printf("net busy %.1f s | utilization %.2f%%%s\n",
                  static_cast<double>(net.busy_time()) / 1e6,
                  net.Utilization(elapsed) * 100.0,
                  net.Saturated(elapsed) ? " [saturated]" : "");
      if (net_contention) {
        std::printf("contention: %lld queued transfer(s) (%.1f s waited) | "
                    "%lld retransmit(s)\n",
                    static_cast<long long>(net.contended_transfers()),
                    static_cast<double>(net.queued_time()) / 1e6,
                    static_cast<long long>(net.retransmits()));
      }
    }
  } else if (rpc_ledger || obs_config.enabled()) {
    if (obs_config.enabled()) {
      replay_obs = std::make_unique<Observability>(obs_config);
      obs = replay_obs.get();
    }
    const RpcLedger ledger =
        ReplayTraceLedger(trace, NetworkConfig{}, replay_obs.get(), metrics_interval);
    if (rpc_ledger) {
      std::printf("\n== RPC transport ledger (replayed; reads are a no-cache upper bound) ==\n%s",
                  FormatRpcLedger(ledger).c_str());
    }
  }

  // Metric streams (windows, critical path, hot spots) go to --metrics-out
  // when given, so they never interleave with the paper tables on stdout.
  FILE* metrics_file = nullptr;
  FILE* msink = stdout;
  if (!metrics_out.empty()) {
    metrics_file = std::fopen(metrics_out.c_str(), "w");
    if (metrics_file == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
    msink = metrics_file;
  }
  if (metrics && obs != nullptr) {
    PrintMetrics(*obs, msink);
  }
  if (critical_path && obs != nullptr) {
    std::fprintf(msink, "\n== Critical path (where the time goes) ==\n%s",
                 FormatCriticalPath(obs->critical_path(),
                                    generator->cluster().rpc_ledger()).c_str());
  }
  if (hotspot_report && generator != nullptr) {
    std::fprintf(msink, "\n%s", generator->cluster().HotspotReport().c_str());
  }
  if (rebalance && generator != nullptr) {
    std::fprintf(msink, "\n%s", generator->cluster().RebalanceReport().c_str());
    const RpcLedger& ledger = generator->cluster().rpc_ledger();
    std::fprintf(msink,
                 "migration RPCs: %lld state / %lld dirty / %lld commit (%.1f KB moved on "
                 "the wire)\n",
                 static_cast<long long>(ledger.stat(RpcKind::kMigrateState).calls),
                 static_cast<long long>(ledger.stat(RpcKind::kMigrateDirty).calls),
                 static_cast<long long>(ledger.stat(RpcKind::kMigrateCommit).calls),
                 static_cast<double>(
                     ledger.stat(RpcKind::kMigrateState).payload_bytes +
                     ledger.stat(RpcKind::kMigrateDirty).payload_bytes +
                     ledger.stat(RpcKind::kMigrateCommit).payload_bytes) /
                     1024.0);
  }
  if (metrics_file != nullptr) {
    std::fclose(metrics_file);
    std::fprintf(stderr, "wrote metric streams to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty() && obs != nullptr) {
    if (!WriteTraceJson(*obs, trace_out)) {
      return 1;
    }
  }
  return 0;
}
