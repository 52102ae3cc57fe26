// Ablation: sharding policy x server count x workload — placement skew and
// the queueing delay it causes.
//
// Table 7 of the paper shows server traffic concentrated on one of Sprite's
// four servers; this bench quantifies how much of that skew is *placement*
// (which files a server is given) versus *load* (which files are hot), by
// sweeping the ShardingPolicy against the server count under the standard
// and heavy (simulation-dominated) workloads. The event-driven transport
// (RpcConfig::async) turns skew into measurable queueing: the worst server's
// queue-wait percentiles come straight from the server.N.queue_us recorders,
// and placement skew from the cluster's placement ledger — no ad-hoc
// counters.
//
// The modulo default is genuinely pathological under the heavy workload:
// every user's dedicated simulation-input file sits at a fixed offset inside
// a 1000-id per-user stride, so with server counts that divide 1000 (2, 4,
// 8) ALL sim inputs land on the same server. kHash declusters them;
// kDirAffinity trades balance for locality (a user's directory, mailbox,
// and files co-locate); kRange with default splits concentrates all
// persistent files on server 0 (temporaries spread upward).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/fs/sharding.h"
#include "src/util/table.h"

using namespace sprite;

namespace {

struct ShardResult {
  SkewSummary routed;          // routing decisions per server
  SimDuration queue_p50 = 0;   // queue wait, worst server
  SimDuration queue_p99 = 0;
  SimDuration total_queue = 0;  // summed queue wait from the ledger
  std::string hotspots;         // detector verdict: "s<N>xW" episodes or "-"
};

ShardResult RunWith(const sprite_bench::Scale& base, ShardingPolicy policy, int servers,
                    bool heavy) {
  sprite_bench::Scale scale = base;
  scale.num_servers = servers;

  WorkloadParams params = sprite_bench::DefaultWorkload(scale);
  if (heavy) {
    // The sprite_analyze --heavy knob: simulation tasks dominate, so the
    // per-user 20-Mbyte input files carry most of the read traffic.
    for (auto& group : params.groups) {
      group.task_weights[static_cast<int>(TaskKind::kSimulate)] *= 4.0;
      group.sim_input_bytes *= 2;
    }
  }
  ClusterConfig cluster_config = sprite_bench::DefaultCluster(scale);
  cluster_config.rpc.async = true;
  cluster_config.observability.metrics = true;
  // Windowed hot-spot detection over the same run: one-minute windows feed
  // the per-server queue/skew series the detector consumes.
  cluster_config.observability.hotspot = true;
  cluster_config.observability.snapshot_interval = kMinute;
  cluster_config.sharding.policy = policy;
  Generator generator(params, cluster_config);
  generator.Run(scale.duration, scale.warmup);

  const Cluster& cluster = generator.cluster();
  ShardResult result;
  std::vector<int64_t> routed;
  for (int s = 0; s < servers; ++s) {
    routed.push_back(cluster.placement_ledger().routed(static_cast<ServerId>(s)));
  }
  result.routed = ComputeSkew(routed);

  const MetricsRegistry& metrics = cluster.observability()->metrics();
  for (int s = 0; s < servers; ++s) {
    const LatencyRecorder* rec =
        metrics.FindLatency("server." + std::to_string(s) + ".queue_us");
    if (rec == nullptr) {
      continue;
    }
    result.queue_p50 = std::max(result.queue_p50, rec->Quantile(0.5));
    result.queue_p99 = std::max(result.queue_p99, rec->Quantile(0.99));
  }
  for (const RpcStat& stat : cluster.rpc_ledger().by_kind) {
    result.total_queue += stat.queue_time;
  }
  if (const HotspotDetector* det = cluster.hotspot()) {
    for (const HotspotEpisode& ep : det->episodes()) {
      if (!result.hotspots.empty()) {
        result.hotspots += " ";
      }
      result.hotspots += "s" + std::to_string(ep.server) + "x" + std::to_string(ep.windows);
    }
  }
  if (result.hotspots.empty()) {
    result.hotspots = "-";
  }
  return result;
}

}  // namespace

int main() {
  sprite_bench::Scale scale = sprite_bench::DefaultScale();
  scale.duration = std::min<SimDuration>(scale.duration, 20 * kMinute);
  scale.warmup = std::min<SimDuration>(scale.warmup, 5 * kMinute);

  sprite_bench::PrintHeader(
      "Ablation: sharding policy x server count x workload",
      "Placement skew (routed max/mean, cv) and queue wait at the worst server.");

  const ShardingPolicy policies[] = {ShardingPolicy::kModulo, ShardingPolicy::kHash,
                                     ShardingPolicy::kRange, ShardingPolicy::kDirAffinity};
  TextTable table({"Workload", "Servers", "Policy", "Routed max/mean", "Routed cv",
                   "Queue p50 (worst)", "Queue p99 (worst)", "Total queue", "Hot spots"});
  for (const bool heavy : {false, true}) {
    for (const int servers : {2, 4, 8}) {
      for (const ShardingPolicy policy : policies) {
        const ShardResult r = RunWith(scale, policy, servers, heavy);
        table.AddRow({heavy ? "heavy" : "standard", std::to_string(servers),
                      ShardingPolicyName(policy), FormatFixed(r.routed.max_over_mean, 2),
                      FormatFixed(r.routed.cv, 2), FormatDuration(r.queue_p50),
                      FormatDuration(r.queue_p99), FormatDuration(r.total_queue),
                      r.hotspots});
      }
      table.AddSeparator();
    }
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf("Reading: placement skew turns into queueing delay superlinearly — the\n");
  std::printf("policies barely differ at p50 (most requests enter service immediately)\n");
  std::printf("but diverge at p99 on the worst server. Under the heavy workload the\n");
  std::printf("modulo default aims every user's simulation input at one server (their\n");
  std::printf("ids share a residue mod 2/4/8), which hash placement dissolves; range\n");
  std::printf("with default splits is the worst case, homing all persistent files on\n");
  std::printf("server 0; dir-affinity sits between hash and modulo, paying some balance\n");
  std::printf("for directory locality. The Hot spots column is the windowed detector's\n");
  std::printf("verdict (sN = flagged server, xW = sustained windows): it should fire on\n");
  std::printf("the skew-concentrating policies under heavy load and stay quiet for hash.\n");
  sprite_bench::PrintScale(scale);
  return 0;
}
