// Ablation: live rebalancing against the modulo hot spot.
//
// The sharding ablation shows the modulo default aiming every user's heavy
// simulation input at one server (their ids share a residue mod 2), which
// the windowed detector flags as a sustained hot-spot episode. This bench
// closes the loop the paper's operators closed by hand (moving subtrees
// between servers offline): with --rebalance semantics on, the Rebalancer
// consumes the detector's episode stream mid-run, migrates the hot server's
// heaviest homed files to the lightest peer through the charged protocol,
// and the episode dissolves — the victim's windowed queue-wait p99 drops
// back within 2x of the cluster mean. Three same-seed runs:
//
//   modulo, rebalance on   — episode fires, burst executes, spot dissolves;
//   modulo, rebalance off  — the control: the spot stays hot to end of run;
//   hash,   rebalance on   — clean placement: zero episodes, zero moves.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/fs/rebalance.h"
#include "src/fs/sharding.h"
#include "src/obs/timeseries.h"
#include "src/util/table.h"

using namespace sprite;

namespace {

struct RebalanceResult {
  int episodes = 0;
  int64_t migrations = 0;
  int64_t moved_bytes = 0;
  int bursts = 0;
  int dissolved = 0;
  // Victim windowed queue p99 vs mean of the other servers, averaged over
  // the windows after the last burst (with rebalancing) or over the run's
  // tail (without). Negative: no window qualified.
  double tail_ratio = -1.0;
  int victim = -1;
  std::string verdict;
};

double WindowP99(const MetricsWindow& window, int server) {
  const WindowSample* sample = window.Find("server." + std::to_string(server) + ".queue_us");
  return sample == nullptr ? 0.0 : static_cast<double>(sample->win_p99);
}

// Average victim-vs-others windowed p99 ratio over windows starting at or
// after `from`.
double TailRatio(const MetricsTimeSeries& series, int servers, int victim, SimTime from) {
  double victim_sum = 0;
  double others_sum = 0;
  int windows = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    const MetricsWindow& window = series.window(i);
    if (window.start < from) {
      continue;
    }
    victim_sum += WindowP99(window, victim);
    double others = 0;
    for (int s = 0; s < servers; ++s) {
      if (s != victim) {
        others += WindowP99(window, s);
      }
    }
    others_sum += others / std::max(1, servers - 1);
    ++windows;
  }
  if (windows == 0) {
    return -1.0;
  }
  return victim_sum / std::max(others_sum, 1.0 * windows);  // floor: 1 us per window mean
}

RebalanceResult RunWith(const sprite_bench::Scale& scale, ShardingPolicy policy,
                        bool rebalance) {
  WorkloadParams params = sprite_bench::DefaultWorkload(scale);
  // The sprite_analyze --heavy knob: simulation tasks dominate, so the
  // per-user 20-Mbyte input files carry most of the read traffic and the
  // modulo placement concentrates them on one server.
  for (auto& group : params.groups) {
    group.task_weights[static_cast<int>(TaskKind::kSimulate)] *= 4.0;
    group.sim_input_bytes *= 2;
  }
  ClusterConfig cluster_config = sprite_bench::DefaultCluster(scale);
  cluster_config.rpc.async = true;
  cluster_config.observability.metrics = true;
  cluster_config.observability.hotspot = true;
  cluster_config.observability.snapshot_interval = kMinute;
  cluster_config.sharding.policy = policy;
  cluster_config.rebalance.enabled = rebalance;
  Generator generator(params, cluster_config);
  generator.Run(scale.duration, scale.warmup);

  const Cluster& cluster = generator.cluster();
  RebalanceResult result;
  result.episodes = static_cast<int>(cluster.hotspot()->episodes().size());
  const MetricsTimeSeries& series = cluster.observability()->series();
  if (const Rebalancer* reb = cluster.rebalancer()) {
    result.migrations = reb->migrations();
    result.moved_bytes = reb->moved_bytes();
    result.bursts = static_cast<int>(reb->actions().size());
    SimTime last_burst = 0;
    for (const RebalanceAction& action : reb->actions()) {
      result.dissolved += action.dissolved ? 1 : 0;
      if (action.at >= last_burst) {
        last_burst = action.at;
        result.victim = action.server;
      }
    }
    if (result.victim >= 0) {
      // Judge the windows strictly after the burst's own window.
      result.tail_ratio = TailRatio(series, scale.num_servers, result.victim,
                                    last_burst + kMinute);
    }
  } else if (result.episodes > 0) {
    // Control run: same tail question asked of the first flagged server over
    // the run's last four windows.
    result.victim = cluster.hotspot()->episodes().front().server;
    const SimTime tail = series.size() >= 4 ? series.window(series.size() - 4).start : 0;
    result.tail_ratio = TailRatio(series, scale.num_servers, result.victim, tail);
  }

  if (result.migrations > 0 && result.dissolved == result.bursts &&
      result.tail_ratio >= 0 && result.tail_ratio <= 2.0) {
    result.verdict = "hot spot dissolved";
  } else if (result.migrations > 0) {
    result.verdict = "migrated, still skewed";
  } else if (result.episodes > 0) {
    result.verdict = "hot to end of run";
  } else {
    result.verdict = "quiet";
  }
  return result;
}

std::string FormatRatio(double ratio) {
  if (ratio < 0) {
    return "-";
  }
  return FormatFixed(ratio, 2) + "x";
}

}  // namespace

int main() {
  // The compact recipe that reliably trips the detector: few clients, two
  // servers, heavy simulation load, one-minute windows.
  sprite_bench::Scale scale = sprite_bench::DefaultScale();
  scale.num_users = 8;
  scale.num_clients = 4;
  scale.num_servers = 2;
  scale.duration = std::min<SimDuration>(scale.duration, 16 * kMinute);
  scale.warmup = std::min<SimDuration>(scale.warmup, 2 * kMinute);

  sprite_bench::PrintHeader(
      "Ablation: live rebalancing vs the modulo hot spot",
      "Hotspot-driven home migration dissolving placement skew mid-run.");

  struct Arm {
    const char* label;
    ShardingPolicy policy;
    bool rebalance;
  };
  const Arm arms[] = {
      {"modulo + rebalance", ShardingPolicy::kModulo, true},
      {"modulo (control)", ShardingPolicy::kModulo, false},
      {"hash + rebalance", ShardingPolicy::kHash, true},
  };

  TextTable table({"Arm", "Episodes", "Migrations", "Moved", "Bursts dissolved",
                   "Tail p99 ratio", "Verdict"});
  std::vector<RebalanceResult> results;
  for (const Arm& arm : arms) {
    const RebalanceResult r = RunWith(scale, arm.policy, arm.rebalance);
    results.push_back(r);
    table.AddRow({arm.label, std::to_string(r.episodes), std::to_string(r.migrations),
                  FormatBytes(r.moved_bytes),
                  std::to_string(r.dissolved) + "/" + std::to_string(r.bursts),
                  FormatRatio(r.tail_ratio), r.verdict});
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf("Reading: under the heavy workload the modulo default homes every\n");
  std::printf("simulation input on server 0 and the detector opens an episode. With\n");
  std::printf("rebalancing on, the burst migrates the heaviest homed files to the idle\n");
  std::printf("peer and the episode closes mid-run: the victim's windowed queue-wait\n");
  std::printf("p99 falls back within 2x of the cluster mean (the 'hot spot dissolved'\n");
  std::printf("verdict). The control run leaves the spot hot to the end of the run,\n");
  std::printf("and the same-seed hash arm never fires an episode — zero migrations,\n");
  std::printf("the rebalancer charges nothing on a placement that is already flat.\n");
  sprite_bench::PrintScale(scale);

  // Machine-checkable acceptance lines.
  const RebalanceResult& on = results[0];
  const RebalanceResult& hash = results[2];
  std::printf("\nacceptance: modulo-on migrations=%lld dissolved=%d/%d tail_ratio=%s\n",
              static_cast<long long>(on.migrations), on.dissolved, on.bursts,
              FormatRatio(on.tail_ratio).c_str());
  std::printf("acceptance: hash-on migrations=%lld episodes=%d\n",
              static_cast<long long>(hash.migrations), hash.episodes);
  return 0;
}
