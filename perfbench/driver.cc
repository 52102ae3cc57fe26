// perfbench_driver: one trace run of a sprite-dfs benchmark workload.
//
//   perfbench_driver --workload paper|wire|observed [--seed N] [--index K]
//                    [--traced]
//   perfbench_driver --check-marker --workload NAME [--seed N]
//
// A workload is a suite of independent traces, like the paper's eight; trace
// K's seed derives from --seed as Generator::GenerateEight derives its
// seeds. perfbench/run.py runs the suite, one trace run per process, and
// aggregates. The driver links the libraries and calls only their public
// functions. One trace run builds a Generator (cluster and namespace),
// applies the fault schedule, runs the simulated warm-up and the measured
// window, then runs the workload's report: trace encode/decode, the Table
// 1-3 and Figure 1-4 analyses, the consistency simulations, the Table 4-10
// counter reports and the workload's own mode reports. It checks the
// simulated outputs and prints one JSON line: host times, work counts, the
// simulated-output digest, the paper cells, the per-layer counts and, with
// --traced, the driver's spans (see spans.h).
//
// --check-marker runs trace 0 three ways (no driver events, the warm-up
// marker only, marker plus the traced run's window task) and fails unless
// all three produce the same simulated-output digest.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench/paper_data.h"
#include "src/analysis/accesses.h"
#include "src/analysis/activity.h"
#include "src/analysis/cache_report.h"
#include "src/analysis/lifetimes.h"
#include "src/analysis/patterns.h"
#include "src/consistency/overhead.h"
#include "src/consistency/polling.h"
#include "src/fs/recovery.h"
#include "src/fs/rpc.h"
#include "src/obs/observability.h"
#include "src/trace/codec.h"
#include "src/trace/summary.h"
#include "src/workload/generator.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace sprite;

constexpr uint64_t kDefaultSeed = 1991;
constexpr double kMB = 1024.0 * 1024.0;

// ---- Workloads -------------------------------------------------------------

struct WorkloadSetup {
  WorkloadParams params;
  ClusterConfig cluster;
  std::string faults;  // ParseFaultSchedule spec; empty for none
  SimDuration warmup = 0;
  SimDuration duration = 0;
  int traces = 1;  // suite size
};

// The seed of trace `index` of the suite, spaced as GenerateEight spaces the
// paper's eight traces.
uint64_t TraceSeed(uint64_t seed, int index) {
  return seed + static_cast<uint64_t>(index) * 7919;
}

WorkloadSetup MakeWorkload(const std::string& name, uint64_t seed) {
  WorkloadSetup w;
  w.params.seed = seed;
  if (name == "paper") {
    // The paper's cluster shape with every switch at its default: sync
    // transport, modulo placement, no replication, rebalance or
    // observability.
    w.params.num_users = 30;
    w.cluster.num_clients = 40;
    w.cluster.num_servers = 4;
    w.warmup = kHour;
    w.duration = 6 * kHour;
    w.traces = 12;
  } else if (name == "wire") {
    // Every transport and fault switch on, observability off. The schedule
    // holds a clean fail-over (server 1), a partition, a client crash and a
    // correlated crash of a primary and its backup (servers 2+3), which
    // degrades to the reopen-storm recovery.
    w.params.num_users = 64;
    w.cluster.num_clients = 40;
    w.cluster.num_servers = 8;
    w.cluster.rpc.async = true;
    w.cluster.rpc.honest_wire = true;
    w.cluster.rpc.batching = true;
    w.cluster.network.contention = true;
    w.cluster.network.loss_rate = 0.004;
    w.cluster.replication.enabled = true;
    w.faults = "crash:1@2400+120,crash:2+3@4200+60,part:0-3x5@3000+300,ccrash:5@3600";
    w.warmup = 30 * kMinute;
    w.duration = 2 * kHour;
    w.traces = 14;
  } else if (name == "observed") {
    // Live rebalancing of a modulo hot spot on two servers, with every
    // observability channel on. Honest wire without batching exercises the
    // piggyback path. Whether a hot spot forms depends on the seed; 20 s
    // windows, a 1.5x homed-bytes gate and bursts of up to 8 files / 128 MB
    // make most traces form one and dissolve it (README.md), so every suite
    // does. The default task mix keeps kernel calls per second steady
    // across seeds, which the heavy simulation mix does not.
    w.params.num_users = 30;
    w.cluster.num_clients = 12;
    w.cluster.num_servers = 2;
    w.cluster.rpc.async = true;
    w.cluster.rpc.honest_wire = true;
    w.cluster.rebalance.enabled = true;
    w.cluster.rebalance.max_files_per_episode = 8;
    w.cluster.rebalance.max_bytes_per_episode = 128 * kMegabyte;
    ObservabilityConfig& obs = w.cluster.observability;
    obs.metrics = true;
    obs.tracing = true;
    obs.critical_path = true;
    obs.hotspot = true;
    obs.hotspot_rules.homed_ratio = 1.5;
    obs.snapshot_interval = 20 * kSecond;
    w.warmup = 10 * kMinute;
    w.duration = 60 * kMinute;
    w.traces = 20;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return w;
}

// ---- Output helpers ----------------------------------------------------------

// Discards everything written to it and counts the bytes, so report output
// costs formatting but no I/O.
class CountingBuf : public std::streambuf {
 public:
  int64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += n;
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      ++bytes_;
    }
    return traits_type::not_eof(c);
  }

 private:
  int64_t bytes_ = 0;
};

void Line(std::ostream& out, const char* format, ...) __attribute__((format(printf, 2, 3)));
void Line(std::ostream& out, const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  const int n = std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  if (n > 0) {
    out.write(buf, std::min<int>(n, static_cast<int>(sizeof(buf)) - 1));
  }
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// FNV-1a over 64-bit words.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void Add(const std::string& bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
};

// ---- Paper fidelity ------------------------------------------------------------

// One reproduced cell against bench/paper_data.h; the paper gives a band for
// some cells, a point for the rest. run.py scores the suite's mean cells.
struct PaperCell {
  const char* name;
  double measured;
  double low;
  double high;
};

// ---- Driver-owned simulation events ---------------------------------------------

// The warm-up marker and the sim.window ticks. Both only read the queue and
// the clock; their own dispatches are counted so every event figure can
// exclude them.
struct DriverEvents {
  EventQueue* queue = nullptr;
  SpanRecorder* spans = nullptr;
  SimTime end_time = 0;

  uint64_t dispatched = 0;  // driver events dispatched so far
  int marker_fires = 0;
  SimTime marker_sim = -1;
  int64_t marker_wall_ns = 0;
  uint64_t queue_at_marker = 0;
  uint64_t driver_at_marker = 0;

  int setup_span = -1;
  int warmup_span = -1;
  int measure_span = -1;
  int window_span = -1;
  uint64_t window_queue_start = 0;
  uint64_t window_driver_start = 0;

  // Events the simulation itself dispatched.
  uint64_t SimEvents() const { return queue->dispatched_count() - dispatched; }

  void CloseWindow() {
    if (window_span < 0) {
      return;
    }
    const uint64_t events = (queue->dispatched_count() - window_queue_start) -
                            (dispatched - window_driver_start);
    spans->End(window_span, static_cast<int64_t>(events));
    window_span = -1;
  }

  void OpenWindow() {
    window_span = spans->Begin("sim.window");
    window_queue_start = queue->dispatched_count();
    window_driver_start = dispatched;
  }

  void OnMarker() {
    ++dispatched;
    ++marker_fires;
    marker_sim = queue->now();
    marker_wall_ns = WallNs();
    queue_at_marker = queue->dispatched_count();
    driver_at_marker = dispatched;
    if (spans->enabled()) {
      CloseWindow();
      spans->End(warmup_span);
      spans->End(setup_span);
      measure_span = spans->Begin("measure");
    }
  }

  void OnTick(SimTime now) {
    ++dispatched;
    CloseWindow();
    if (now < end_time) {
      OpenWindow();
    }
  }
};

// ---- One trace run ---------------------------------------------------------------

struct RunOptions {
  bool marker = true;   // schedule the warm-up marker
  bool windows = false;  // tick sim.window spans (traced runs)
};

struct TraceRun {
  double setup_s = 0.0;
  double measure_s = 0.0;
  double report_s = 0.0;
  int64_t kernel_calls = 0;
  int64_t measured_events = 0;
  uint64_t digest = 0;
  std::vector<Metric> counts;  // deterministic per seed
  std::vector<PaperCell> cells;
  std::vector<std::string> failures;
};

void Check(TraceRun& it, bool ok, const std::string& what) {
  if (!ok) {
    it.failures.push_back(what);
  }
}

// Values the report stages hand to the checks and the per-layer counts.
struct ReportResults {
  std::string encoded;
  bool round_trip = false;
  int64_t accesses = 0;
  int64_t export_bytes = 0;
  bool critical_path_reconciles = false;
  std::vector<PaperCell> cells;
};

// The workload's report, written to a discarding stream. Each call into a
// library is one span.
ReportResults Report(const std::string& workload, Generator& gen, const TraceLog& trace,
                     SpanRecorder& spans) {
  ReportResults r;
  CountingBuf sink_buf;
  std::ostream out(&sink_buf);
  Cluster& cluster = gen.cluster();

  {
    SpanScope s(spans, "trace.encode");
    r.encoded = EncodeTrace(trace);
  }
  TraceLog decoded;
  {
    SpanScope s(spans, "trace.decode");
    decoded = DecodeTrace(r.encoded);
  }
  r.round_trip = decoded == trace;
  decoded = TraceLog();

  {
    SpanScope s(spans, "analysis.summarize");
    const TraceSummary sum = Summarize(trace);
    Line(out, "records %lld | %.2f hours | %lld users (%lld using migration)\n",
         static_cast<long long>(sum.total_records), sum.duration_hours(),
         static_cast<long long>(sum.distinct_users), static_cast<long long>(sum.migration_users));
    Line(out, "read %.1f MB | written %.1f MB | dirs %.2f MB | opens %lld | seeks %lld\n",
         sum.mbytes_read(), sum.mbytes_written(), sum.mbytes_dir_read(),
         static_cast<long long>(sum.open_events), static_cast<long long>(sum.seek_events));
  }
  {
    SpanScope s(spans, "analysis.activity");
    const ActivityReport a = ComputeActivity(trace, 10 * kMinute);
    Line(out, "active users %.1f avg (max %.0f) | throughput/user %.1f KB/s | peak %.0f KB/s\n",
         a.all_users.active_users.mean(), a.all_users.active_users.max(),
         a.all_users.throughput_per_user.mean() / 1024.0,
         a.all_users.peak_total_throughput / 1024.0);
  }
  std::vector<Access> accesses;
  {
    SpanScope s(spans, "analysis.accesses");
    accesses = ExtractAccesses(trace);
  }
  r.accesses = static_cast<int64_t>(accesses.size());
  {
    SpanScope s(spans, "analysis.patterns");
    const AccessPatternStats p = ComputeAccessPatterns(accesses);
    const RunLengthCurves runs = ComputeRunLengths(accesses);
    const FileSizeCurves sizes = ComputeFileSizes(accesses);
    const WeightedSamples opens = ComputeOpenDurations(accesses);
    namespace paper = sprite_paper;
    r.cells.push_back({"table3.read_only", p.read_only.accesses_fraction,
                       paper::kReadOnlyAccesses, paper::kReadOnlyAccesses});
    r.cells.push_back({"table3.write_only", p.write_only.accesses_fraction,
                       paper::kWriteOnlyAccesses, paper::kWriteOnlyAccesses});
    r.cells.push_back({"table3.read_write", p.read_write.accesses_fraction,
                       paper::kReadWriteAccesses, paper::kReadWriteAccesses});
    r.cells.push_back({"fig1.runs_under_10KB", runs.by_runs.FractionAtOrBelow(10 * kKilobyte),
                       paper::kRunsUnder10KB, paper::kRunsUnder10KB});
    r.cells.push_back({"fig2.accesses_under_1KB", sizes.by_accesses.FractionAtOrBelow(kKilobyte),
                       paper::kAccessesUnder1KB, paper::kAccessesUnder1KB});
    r.cells.push_back({"fig3.opens_under_0.25s", opens.FractionAtOrBelow(0.25),
                       paper::kOpensUnderQuarterSecond, paper::kOpensUnderQuarterSecond});
    Line(out, "read-only %.1f%% | write-only %.1f%% | read-write %.1f%% of %lld accesses\n",
         p.read_only.accesses_fraction * 100, p.write_only.accesses_fraction * 100,
         p.read_write.accesses_fraction * 100, static_cast<long long>(p.total_accesses));
    Line(out, "runs %.0f%% < 10 KB | sizes %.0f%% < 1 KB | opens %.0f%% < 0.25 s\n",
         r.cells[3].measured * 100, r.cells[4].measured * 100, r.cells[5].measured * 100);
  }
  accesses = std::vector<Access>();
  {
    SpanScope s(spans, "analysis.lifetimes");
    const LifetimeCurves life = ComputeLifetimes(trace);
    r.cells.push_back({"fig4.files_dead_within_30s", life.by_files.FractionAtOrBelow(30),
                       sprite_paper::kFilesDeadWithin30sLow,
                       sprite_paper::kFilesDeadWithin30sHigh});
    Line(out, "lifetimes: %.0f%% of files and %.0f%% of bytes dead within 30 s\n",
         r.cells.back().measured * 100, life.by_bytes.FractionAtOrBelow(30) * 100);
  }
  {
    SpanScope s(spans, "consistency.polling");
    for (const SimDuration refresh : {60 * kSecond, 3 * kSecond}) {
      const PollingResult p = SimulatePolling(trace, refresh);
      Line(out, "polling %.0f s: %.1f stale reads/hour, %.0f%% users affected\n",
           ToSeconds(refresh), p.errors_per_hour(), p.affected_user_fraction() * 100);
    }
  }
  {
    SpanScope s(spans, "consistency.overhead");
    for (const ConsistencyPolicy policy : {ConsistencyPolicy::kSprite,
                                           ConsistencyPolicy::kSpriteModified,
                                           ConsistencyPolicy::kToken}) {
      const OverheadResult o = SimulateConsistencyOverhead(trace, policy);
      Line(out, "bytes ratio %.2f, RPC ratio %.2f over %lld shared events\n", o.byte_ratio(),
           o.rpc_ratio(), static_cast<long long>(o.events_requested));
    }
  }
  {
    SpanScope s(spans, "analysis.counters");
    namespace paper = sprite_paper;
    const CacheCounters cache = cluster.AggregateCacheCounters();
    const TrafficCounters raw = cluster.AggregateTrafficCounters();
    const ServerCounters server = cluster.AggregateServerCounters();
    const CacheSizeReport sizes = ComputeCacheSizeReport(cluster.cache_size_samples());
    const TrafficReport traffic = ComputeTrafficReport(raw);
    const EffectivenessReport eff = ComputeEffectivenessReport(cache);
    const EffectivenessSpread spread = ComputeEffectivenessSpread(cluster);
    const ServerTrafficReport st = ComputeServerTrafficReport(server);
    const double filter = ComputeFilterRatio(raw, server);
    const ReplacementReport repl = ComputeReplacementReport(cache);
    const CleaningReport clean = ComputeCleaningReport(cache);
    const ConsistencyActionReport actions = ComputeConsistencyActionReport(server);
    r.cells.push_back({"table5.paging", traffic.total_paging(), paper::kRawPagingFraction,
                       paper::kRawPagingFraction});
    r.cells.push_back({"table6.read_miss", eff.read_miss_ratio, paper::kReadMissRatio,
                       paper::kReadMissRatio});
    r.cells.push_back({"table6.writeback", eff.writeback_traffic, paper::kWritebackTraffic,
                       paper::kWritebackTraffic});
    r.cells.push_back({"table6.paging_miss", eff.paging_read_miss_ratio,
                       paper::kPagingReadMissRatio, paper::kPagingReadMissRatio});
    r.cells.push_back({"table7.filter", filter, paper::kClientCacheFilterRatio,
                       paper::kClientCacheFilterRatio});
    r.cells.push_back({"table8.for_file", repl.for_file_fraction, paper::kReplacedForFile,
                       paper::kReplacedForFile});
    r.cells.push_back({"table9.delay",
                       clean.rows[static_cast<int>(CleanReason::kDelay)].fraction,
                       paper::kCleanedByDelay, paper::kCleanedByDelay});
    Line(out, "cache %.0f KB mean (max %.0f KB), 15-min change %.0f KB\n",
         sizes.mean_bytes / 1024, sizes.max_bytes / 1024, sizes.min15.mean_change / 1024);
    Line(out, "raw %lld B: cacheable %.1f%% paging %.1f%%\n",
         static_cast<long long>(traffic.total_bytes), traffic.total_cacheable() * 100,
         traffic.total_paging() * 100);
    Line(out, "read miss %.1f%% (sd %.1f) writeback %.1f%% paging miss %.1f%%\n",
         eff.read_miss_ratio * 100, spread.read_miss_ratio.stddev * 100,
         eff.writeback_traffic * 100, eff.paging_read_miss_ratio * 100);
    Line(out, "server %lld B: paging %.1f%% | filter %.2f\n",
         static_cast<long long>(st.total_bytes), st.paging_fraction() * 100, filter);
    Line(out, "replaced for file %.1f%% | cleaned by delay %.1f%%\n",
         repl.for_file_fraction * 100, r.cells.back().measured * 100);
    Line(out, "write-sharing %.3f%% | recall %.3f%% of %lld opens\n",
         actions.write_sharing_fraction * 100, actions.recall_fraction * 100,
         static_cast<long long>(actions.file_opens));
  }

  if (workload == "wire") {
    SpanScope s(spans, "fs.ledger");
    out << FormatRpcLedger(cluster.rpc_ledger()) << cluster.ShardReport();
  }
  const Observability* obs = cluster.observability();
  if (obs != nullptr) {
    {
      SpanScope s(spans, "obs.windows");
      const MetricsTimeSeries& series = obs->series();
      for (size_t i = 0; i < series.size(); ++i) {
        out << FormatMetricsWindow(series.window(i));
      }
      out << FormatRpcLatencySummary(obs->metrics());
    }
    {
      SpanScope s(spans, "obs.critical_path");
      const std::string cp = FormatCriticalPath(obs->critical_path(), cluster.rpc_ledger());
      r.critical_path_reconciles = cp.find("reconcile rpcs") != std::string::npos &&
                                   cp.find("MISMATCH") == std::string::npos;
      out << cp;
    }
    {
      SpanScope s(spans, "obs.hotspot");
      out << cluster.HotspotReport();
    }
    {
      SpanScope s(spans, "obs.rebalance");
      out << cluster.RebalanceReport();
    }
  }
  out.flush();
  return r;
}

void AddCount(std::vector<Metric>& m, const char* name, const char* unit, double value) {
  m.push_back({name, unit, value});
}

double SimSeconds(SimDuration d) { return static_cast<double>(d) / 1e6; }

// Per-layer work counts and simulated quantities, read from public
// accessors after the run. All repeat exactly for a given seed.
std::vector<Metric> LayerCounts(Generator& gen, const TraceLog& trace, const ReportResults& r,
                                const TraceRun& it, const WorkloadSetup& w) {
  std::vector<Metric> m;
  Cluster& c = gen.cluster();
  const EventQueue& q = gen.queue();
  AddCount(m, "sim.events", "count", static_cast<double>(it.measured_events));
  AddCount(m, "sim.events_per_call", "ratio",
           Ratio(static_cast<double>(it.measured_events), static_cast<double>(it.kernel_calls)));
  AddCount(m, "sim.queue_high_water", "count", static_cast<double>(q.max_pending_count()));
  AddCount(m, "workload.kernel_calls", "count", static_cast<double>(it.kernel_calls));
  AddCount(m, "workload.stripped_records", "count", static_cast<double>(gen.records_stripped()));

  const CacheCounters cache = c.AggregateCacheCounters();
  int64_t cleaned = 0;
  for (int64_t n : cache.cleaned) {
    cleaned += n;
  }
  AddCount(m, "fs.cache.read_ops", "count", static_cast<double>(cache.read_ops));
  AddCount(m, "fs.cache.read_miss_ratio", "ratio",
           Ratio(static_cast<double>(cache.read_misses), static_cast<double>(cache.read_ops)));
  AddCount(m, "fs.cache.write_ops", "count", static_cast<double>(cache.write_ops));
  AddCount(m, "fs.cache.write_fetch_ratio", "ratio",
           Ratio(static_cast<double>(cache.write_fetches), static_cast<double>(cache.write_ops)));
  AddCount(m, "fs.cache.writeback_mb", "MB",
           static_cast<double>(cache.bytes_written_to_server) / kMB);
  AddCount(m, "fs.cache.paging_miss_ratio", "ratio",
           Ratio(static_cast<double>(cache.paging_read_misses),
                 static_cast<double>(cache.paging_read_ops)));
  AddCount(m, "fs.cache.replaced_file", "count", static_cast<double>(cache.replaced_for_file));
  AddCount(m, "fs.cache.replaced_vm", "count", static_cast<double>(cache.replaced_for_vm));
  AddCount(m, "fs.cache.cleaned_blocks", "count", static_cast<double>(cleaned));
  AddCount(m, "fs.cache.prefetch_useful_ratio", "ratio",
           Ratio(static_cast<double>(cache.prefetch_useful),
                 static_cast<double>(cache.prefetch_fetches)));

  const RpcLedger& ledger = c.rpc_ledger();
  RpcStat total;
  for (const RpcStat& s : ledger.by_kind) {
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
  AddCount(m, "fs.rpc.calls", "count", static_cast<double>(total.calls));
  AddCount(m, "fs.rpc.payload_mb", "MB", static_cast<double>(total.payload_bytes) / kMB);
  AddCount(m, "fs.rpc.net_sim_s", "sim_sec", SimSeconds(total.net_time));
  AddCount(m, "fs.rpc.wait_sim_s", "sim_sec", SimSeconds(total.wait_time));
  AddCount(m, "fs.rpc.queue_sim_s", "sim_sec", SimSeconds(total.queue_time));
  AddCount(m, "fs.rpc.service_sim_s", "sim_sec", SimSeconds(total.service_time));
  AddCount(m, "fs.rpc.retries", "count", static_cast<double>(total.retries));
  AddCount(m, "fs.rpc.timeouts", "count", static_cast<double>(total.timeouts));
  AddCount(m, "fs.rpc.blocked_waits", "count", static_cast<double>(total.blocked_waits));
  AddCount(m, "fs.rpc.piggybacked_ops", "count", static_cast<double>(ledger.piggybacked_ops));
  AddCount(m, "fs.rpc.charged_control_ops", "count",
           static_cast<double>(ledger.charged_control_ops));
  AddCount(m, "fs.rpc.batched_ops", "count", static_cast<double>(ledger.batched_ops));
  AddCount(m, "fs.rpc.ops_per_batch", "ratio",
           Ratio(static_cast<double>(ledger.batched_ops), static_cast<double>(ledger.batches)));

  // The network model is never reset, so its figures cover the warm-up too.
  const Network& net = c.network();
  AddCount(m, "fs.net.exchanges", "count", static_cast<double>(net.rpc_count()));
  AddCount(m, "fs.net.carried_mb", "MB", static_cast<double>(net.bytes_carried()) / kMB);
  AddCount(m, "fs.net.busy_sim_s", "sim_sec", SimSeconds(net.busy_time()));
  AddCount(m, "fs.net.utilization", "ratio", net.Utilization(w.warmup + w.duration));
  AddCount(m, "fs.net.queued_sim_s", "sim_sec", SimSeconds(net.queued_time()));
  AddCount(m, "fs.net.contended_transfers", "count",
           static_cast<double>(net.contended_transfers()));
  AddCount(m, "fs.net.retransmits", "count", static_cast<double>(net.retransmits()));

  const ServerCounters server = c.AggregateServerCounters();
  std::vector<int64_t> homed;
  for (int s = 0; s < c.num_servers(); ++s) {
    homed.push_back(c.server(static_cast<ServerId>(s)).HomedBytes());
  }
  AddCount(m, "fs.server.file_opens", "count", static_cast<double>(server.file_opens));
  AddCount(m, "fs.server.read_mb", "MB", static_cast<double>(server.file_read_bytes) / kMB);
  AddCount(m, "fs.server.write_mb", "MB", static_cast<double>(server.file_write_bytes) / kMB);
  AddCount(m, "fs.server.paging_mb", "MB",
           static_cast<double>(server.paging_read_bytes + server.paging_write_bytes) / kMB);
  AddCount(m, "fs.server.recall_opens", "count", static_cast<double>(server.recall_opens));
  AddCount(m, "fs.server.write_sharing_opens", "count",
           static_cast<double>(server.write_sharing_opens));
  AddCount(m, "fs.server.homed_skew", "ratio", ComputeSkew(homed).max_over_mean);

  const int64_t shadow_rpcs = ledger.stat(RpcKind::kShadowOpen).calls +
                              ledger.stat(RpcKind::kShadowClose).calls +
                              ledger.stat(RpcKind::kShadowWrite).calls;
  int64_t stale_handles = 0;
  for (int cl = 0; cl < c.num_clients(); ++cl) {
    stale_handles += c.client(static_cast<ClientId>(cl)).stale_handle_count();
  }
  AddCount(m, "fs.replication.failovers", "count", static_cast<double>(c.failovers()));
  AddCount(m, "fs.replication.degraded_crashes", "count",
           static_cast<double>(c.degraded_crashes()));
  AddCount(m, "fs.replication.resyncs", "count", static_cast<double>(c.resyncs()));
  AddCount(m, "fs.replication.failover_sim_ms", "sim_msec",
           Ratio(static_cast<double>(c.total_failover_us()), 1000.0 * c.failovers()));
  AddCount(m, "fs.replication.shadow_rpcs", "count", static_cast<double>(shadow_rpcs));
  AddCount(m, "fs.replication.preserved_kb", "KB",
           static_cast<double>(c.failover_preserved_bytes()) / 1024.0);
  AddCount(m, "fs.recovery.reopen_rpcs", "count",
           static_cast<double>(ledger.stat(RpcKind::kReopen).calls));
  AddCount(m, "fs.recovery.stale_handles", "count", static_cast<double>(stale_handles));
  AddCount(m, "fs.recovery.dropped_callbacks", "count",
           static_cast<double>(c.stale_tracker().dropped_callbacks()));
  AddCount(m, "fs.recovery.stale_reads", "count",
           static_cast<double>(c.stale_tracker().stale_reads()));

  const Rebalancer* rebalancer = c.rebalancer();
  int64_t dissolved = 0;
  int64_t bursts = 0;
  if (rebalancer != nullptr) {
    for (const RebalanceAction& a : rebalancer->actions()) {
      ++bursts;
      dissolved += a.dissolved ? 1 : 0;
    }
  }
  const HotspotDetector* hotspot = c.hotspot();
  AddCount(m, "fs.rebalance.migrations", "count",
           rebalancer != nullptr ? static_cast<double>(rebalancer->migrations()) : 0.0);
  AddCount(m, "fs.rebalance.moved_mb", "MB",
           rebalancer != nullptr ? static_cast<double>(rebalancer->moved_bytes()) / kMB : 0.0);
  AddCount(m, "fs.rebalance.dissolved_ratio", "ratio",
           Ratio(static_cast<double>(dissolved), static_cast<double>(bursts)));
  AddCount(m, "obs.hotspot.episodes", "count",
           hotspot != nullptr ? static_cast<double>(hotspot->episodes().size()) : 0.0);
  AddCount(m, "obs.hotspot.hot_windows", "count",
           hotspot != nullptr ? static_cast<double>(hotspot->hot_server_windows()) : 0.0);

  const Observability* obs = c.observability();
  AddCount(m, "obs.spans", "count",
           obs != nullptr ? static_cast<double>(obs->tracer().spans().size()) : 0.0);
  AddCount(m, "obs.windows", "count",
           obs != nullptr ? static_cast<double>(obs->series().size()) : 0.0);
  AddCount(m, "obs.windows_evicted", "count",
           obs != nullptr ? static_cast<double>(obs->series().windows_evicted()) : 0.0);
  AddCount(m, "obs.export_mb", "MB", static_cast<double>(r.export_bytes) / kMB);
  AddCount(m, "trace.bytes_per_record", "B/record",
           Ratio(static_cast<double>(r.encoded.size()), static_cast<double>(trace.size())));
  AddCount(m, "analysis.accesses", "count", static_cast<double>(r.accesses));
  return m;
}

double CountOf(const std::vector<Metric>& counts, const std::string& name) {
  for (const Metric& m : counts) {
    if (m.name == name) {
      return m.value;
    }
  }
  throw std::logic_error("no count named " + name);
}

// Checks on one trace run's outputs.
void CheckTrace(TraceRun& it, const std::string& workload, const TraceLog& trace,
                const ReportResults& r) {
  const std::vector<Metric>& m = it.counts;
  Check(it, !trace.empty(), "trace is empty");
  Check(it, IsTimeOrdered(trace), "trace is not time-ordered");
  Check(it, r.round_trip, "trace decode(encode(trace)) differs from the trace");
  if (workload == "paper") {
    Check(it, CountOf(m, "obs.spans") == 0, "paper: observability emitted spans");
    Check(it, CountOf(m, "fs.rebalance.migrations") == 0, "paper: files migrated");
    Check(it, CountOf(m, "fs.replication.shadow_rpcs") == 0, "paper: shadow RPCs issued");
  } else if (workload == "observed") {
    Check(it, r.critical_path_reconciles, "observed: critical path does not reconcile");
  }
}

TraceRun RunTrace(const std::string& workload, uint64_t seed, SpanRecorder& spans,
                  const RunOptions& options) {
  TraceRun it;
  const int64_t t_start = WallNs();
  SpanScope run_span(spans, "trace_run");
  DriverEvents ev;
  ev.spans = &spans;
  ev.setup_span = spans.Begin("setup");
  try {
    const WorkloadSetup w = MakeWorkload(workload, seed);
    std::unique_ptr<Generator> gen;
    {
      SpanScope s(spans, "construct");
      gen = std::make_unique<Generator>(w.params, w.cluster);
    }
    if (!w.faults.empty()) {
      SpanScope s(spans, "faults");
      ApplyFaultSchedule(gen->cluster(), ParseFaultSchedule(w.faults));
    }
    ev.queue = &gen->queue();
    ev.end_time = w.warmup + w.duration;
    if (options.marker) {
      gen->queue().Schedule(w.warmup, [&ev] { ev.OnMarker(); });
    }
    std::unique_ptr<PeriodicTask> window_task;
    if (options.windows) {
      window_task = std::make_unique<PeriodicTask>(gen->queue(), kMinute, kMinute,
                                                   [&ev](SimTime now) { ev.OnTick(now); });
    }
    ev.warmup_span = spans.Begin("warmup");
    if (options.windows) {
      ev.OpenWindow();
    }
    const TraceLog trace = gen->Run(w.duration, w.warmup);
    const int64_t t_run = WallNs();
    ev.CloseWindow();
    spans.End(ev.measure_span);
    spans.End(ev.setup_span);
    window_task.reset();

    it.kernel_calls = static_cast<int64_t>(trace.size()) + gen->records_stripped();
    it.measured_events = static_cast<int64_t>((gen->queue().dispatched_count() -
                                               ev.queue_at_marker) -
                                              (ev.dispatched - ev.driver_at_marker));
    if (options.marker) {
      Check(it, ev.marker_fires == 1 && ev.marker_sim == w.warmup,
            "warm-up marker did not fire once at the end of the warm-up");
      it.setup_s = static_cast<double>(ev.marker_wall_ns - t_start) / 1e9;
      it.measure_s = static_cast<double>(t_run - ev.marker_wall_ns) / 1e9;
    }

    ReportResults r;
    {
      SpanScope s(spans, "report");
      r = Report(workload, *gen, trace, spans);
    }
    it.report_s = static_cast<double>(WallNs() - t_run) / 1e9;
    {
      // The Chrome-trace export follows the report and stays out of
      // report_s: building its JSON body in memory is bound by memory
      // bandwidth, which drifts with host load far more than the report
      // does. Timed on every workload; with observability off there is
      // nothing to export and the span measures only the check.
      SpanScope s(spans, "obs.export");
      const Observability* obs = gen->cluster().observability();
      if (obs != nullptr && obs->tracing_enabled()) {
        CountingBuf export_buf;
        std::ostream export_out(&export_buf);
        obs->tracer().WriteChromeTrace(export_out, &obs->metrics());
        r.export_bytes = export_buf.bytes();
      }
    }

    it.cells = r.cells;
    it.counts = LayerCounts(*gen, trace, r, it, w);
    CheckTrace(it, workload, trace, r);

    Digest d;
    d.Add(r.encoded);
    d.Add(static_cast<uint64_t>(gen->records_stripped()));
    d.Add(ev.SimEvents());
    for (const RpcStat& s : gen->cluster().rpc_ledger().by_kind) {
      for (int64_t v : {s.calls, s.payload_bytes, s.net_time, s.wait_time, s.queue_time,
                        s.service_time, s.retries, s.timeouts, s.blocked_waits}) {
        d.Add(static_cast<uint64_t>(v));
      }
    }
    it.digest = d.h;
  } catch (const std::exception& e) {
    it.failures.push_back(std::string("exception: ") + e.what());
  }
  return it;
}

// ---- Output ---------------------------------------------------------------------

// Doubles print with all 17 significant digits; integral values print bare.
std::string FormatNumber(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// One trace run as one JSON line: host times, work counts, the digest, the
// paper cells, the per-layer counts, failed checks and, when traced, the
// driver spans.
void PrintRun(const std::string& workload, uint64_t suite_seed, int index, int traces,
              bool traced, const TraceRun& it, const SpanRecorder& spans) {
  std::string j = "{\"workload\": " + JsonString(workload);
  j += ", \"suite_seed\": " + std::to_string(suite_seed);
  j += ", \"index\": " + std::to_string(index);
  j += ", \"trace_seed\": " + std::to_string(TraceSeed(suite_seed, index));
  j += ", \"traces\": " + std::to_string(traces);
  j += std::string(", \"traced\": ") + (traced ? "true" : "false");
  j += ", \"setup_s\": " + FormatNumber(it.setup_s);
  j += ", \"measure_s\": " + FormatNumber(it.measure_s);
  j += ", \"report_s\": " + FormatNumber(it.report_s);
  j += ", \"kernel_calls\": " + std::to_string(it.kernel_calls);
  j += ", \"measured_events\": " + std::to_string(it.measured_events);
  j += ", \"peak_rss_mb\": " + FormatNumber(PeakRssMb());
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(it.digest));
  j += ", \"digest\": \"" + std::string(digest) + "\"";
  j += ", \"failures\": [";
  for (size_t i = 0; i < it.failures.size(); ++i) {
    j += (i ? ", " : "") + JsonString(it.failures[i]);
  }
  j += "], \"cells\": [";
  for (size_t i = 0; i < it.cells.size(); ++i) {
    const PaperCell& c = it.cells[i];
    j += std::string(i ? ", " : "") + "{\"name\": " + JsonString(c.name) +
         ", \"measured\": " + FormatNumber(c.measured) + ", \"low\": " + FormatNumber(c.low) +
         ", \"high\": " + FormatNumber(c.high) + "}";
  }
  j += "], \"counts\": [";
  for (size_t i = 0; i < it.counts.size(); ++i) {
    const Metric& m = it.counts[i];
    j += std::string(i ? ", " : "") + "{\"name\": " + JsonString(m.name) +
         ", \"unit\": " + JsonString(m.unit) + ", \"value\": " + FormatNumber(m.value) + "}";
  }
  j += "]";
  if (traced) {
    std::ostringstream raw;
    spans.WriteJson(raw);
    j += ", \"spans\": " + raw.str();
  }
  j += "}";
  std::printf("%s\n", j.c_str());
}

int RunOnce(const std::string& workload, uint64_t seed, int index, bool traced) {
  const int traces = MakeWorkload(workload, seed).traces;
  if (index < 0 || index >= traces) {
    std::fprintf(stderr, "--index must be in [0, %d) for %s\n", traces, workload.c_str());
    return 2;
  }
  SpanRecorder spans(traced);
  RunOptions options;
  options.windows = traced;
  const TraceRun it = RunTrace(workload, TraceSeed(seed, index), spans, options);
  PrintRun(workload, seed, index, traces, traced, it, spans);
  return 0;
}

int CheckMarker(const std::string& workload, uint64_t seed) {
  SpanRecorder off(false);
  SpanRecorder on(true);
  RunOptions none;
  none.marker = false;
  RunOptions marker;
  RunOptions marker_and_windows;
  marker_and_windows.windows = true;
  const TraceRun a = RunTrace(workload, seed, off, none);
  const TraceRun b = RunTrace(workload, seed, off, marker);
  const TraceRun c = RunTrace(workload, seed, on, marker_and_windows);
  bool ok = true;
  for (const TraceRun* it : {&a, &b, &c}) {
    for (const std::string& f : it->failures) {
      std::printf("FAILED: %s\n", f.c_str());
      ok = false;
    }
  }
  std::printf("digest without driver events %016llx | marker %016llx | marker+windows %016llx\n",
              static_cast<unsigned long long>(a.digest), static_cast<unsigned long long>(b.digest),
              static_cast<unsigned long long>(c.digest));
  ok = ok && a.digest == b.digest && a.digest == c.digest;
  std::printf("%s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload paper|wire|observed [--seed N] [--index K]\n"
               "                        [--traced]\n"
               "       perfbench_driver --check-marker --workload NAME [--seed N]\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = perfbench::kDefaultSeed;
  int index = 0;
  bool traced = false;
  bool check_marker = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--index" && has_value) {
      index = std::atoi(argv[++i]);
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--check-marker") {
      check_marker = true;
    } else {
      perfbench::Usage();
      return 2;
    }
  }
  try {
    perfbench::MakeWorkload(workload, seed);
  } catch (const std::invalid_argument&) {
    perfbench::Usage();
    return 2;
  }
  if (check_marker) {
    return perfbench::CheckMarker(workload, seed);
  }
  return perfbench::RunOnce(workload, seed, index, traced);
}
