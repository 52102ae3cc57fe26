#!/usr/bin/env python3
"""Perf trajectory for the end-to-end simulator scenarios.

Runs the BM_SimulateCluster benchmarks (and the BM_SimulateRebalance
hot-spot/rebalancing recipe) from bench/micro_perf and maintains one
committed BENCH_sim_<scenario>.json file per scenario at the repo root. Each file holds a `trajectory` list of labelled measurements
(events/sec, wall-clock ms per simulated hour, peak RSS), appended once per
PR, so speedups and regressions both leave a record. Each scenario runs in
its own process, so its peak RSS is its own. Entries dated before
2026-10-18 ran every scenario in one process: their peak RSS is the
high-water mark of that scenario and every one that ran before it.

Subcommands:
  measure --bin PATH [--min-time S]
      Run the scenarios and print the parsed measurements as JSON.
  record  --bin PATH --label TEXT [--min-time S]
      Run the scenarios and append one entry per scenario to the committed
      BENCH_*.json files (creating them if absent).
  check   --bin PATH [--min-time S] [--threshold 0.10]
      Run the scenarios and compare wall-clock ms per simulated hour against
      the newest committed entry; exit non-zero when the speed ratio
      (committed / now) falls below 1 - threshold. Used by tools/check.sh as
      the perf gate.

The gate is on wall-clock per simulated hour only. Events/sec measures
speed only while the event count stays fixed: a change that simulates the
same run with fewer events (the async scenario lost its per-request
arrival/completion events) would read as a regression while it runs
faster. For a scenario whose event count does not change, the two ratios
are identical. Peak RSS legitimately drifts with feature work, so it is
recorded but not gated.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Benchmark-name prefix -> scenario-name prefix. BM_SimulateCluster/26/4 is
# scenario "26x4"; BM_SimulateRebalance/4/2 (the rebalance ablation recipe:
# heavy + async + detector + rebalancer) is scenario "rebalance_4x2".
BENCH_PREFIXES = {
    "BM_SimulateCluster/": "",
    "BM_SimulateRebalance/": "rebalance_",
}


def run_benchmarks(binary, min_time):
    listing = subprocess.run(
        [binary, "--benchmark_list_tests=true",
         "--benchmark_filter=^BM_Simulate(Cluster|Rebalance)/"],
        stdout=subprocess.PIPE, check=True, text=True)
    benchmarks = []
    # One process per scenario: ru_maxrss is a process-wide high-water mark.
    for name in listing.stdout.split():
        cmd = [
            binary,
            "--benchmark_filter=^%s$" % name,
            "--benchmark_format=json",
            "--benchmark_min_time=%g" % min_time,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
        benchmarks += json.loads(proc.stdout).get("benchmarks", [])
    measurements = {}
    for bench in benchmarks:
        name = bench["name"]
        prefix = next((p for p in BENCH_PREFIXES if name.startswith(p)), None)
        if prefix is None:
            continue
        clients, servers = name[len(prefix):].split("/")[:2]
        scenario = "%s%sx%s" % (BENCH_PREFIXES[prefix], clients, servers)
        # Unit(kMillisecond): real_time is ms per iteration.
        real_ms = float(bench["real_time"])
        sim_hours = float(bench["sim_hours"])
        measurements[scenario] = {
            "benchmark": name,
            "iterations": int(bench["iterations"]),
            "events_per_sec": float(bench["events_per_sec"]),
            "wall_ms_per_sim_hour": real_ms / sim_hours,
            "peak_rss_mb": float(bench["peak_rss_mb"]),
            "real_time_ms": real_ms,
        }
    if not measurements:
        raise SystemExit("bench_trajectory: no BM_SimulateCluster results "
                         "in benchmark output")
    return measurements


def bench_path(scenario):
    return os.path.join(REPO_ROOT, "BENCH_sim_%s.json" % scenario)


def load_trajectory(scenario):
    path = bench_path(scenario)
    if not os.path.exists(path):
        return {"scenario": scenario, "trajectory": []}
    with open(path) as f:
        return json.load(f)


def cmd_measure(args):
    measurements = run_benchmarks(args.bin, args.min_time)
    json.dump(measurements, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def cmd_record(args):
    measurements = run_benchmarks(args.bin, args.min_time)
    for scenario, m in sorted(measurements.items()):
        doc = load_trajectory(scenario)
        entry = {"label": args.label,
                 "date": datetime.date.today().isoformat()}
        entry.update(m)
        doc["trajectory"].append(entry)
        with open(bench_path(scenario), "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print("recorded %s: %.0f events/sec (%s)"
              % (scenario, m["events_per_sec"], args.label))
    return 0


def cmd_check(args):
    measurements = run_benchmarks(args.bin, args.min_time)
    failures = []
    for scenario, m in sorted(measurements.items()):
        doc = load_trajectory(scenario)
        if not doc["trajectory"]:
            print("check %s: no committed trajectory yet, skipping" % scenario)
            continue
        committed = doc["trajectory"][-1]
        base = committed["wall_ms_per_sim_hour"]
        now = m["wall_ms_per_sim_hour"]
        # Speed ratio: above 1 when this build simulates an hour faster.
        ratio = base / now if now > 0 else float("inf")
        verdict = "OK" if ratio >= 1.0 - args.threshold else "REGRESSION"
        print("check %s: %.1f wall ms/sim hour vs committed %.1f (%s) -> speed %+.1f%% [%s]"
              % (scenario, now, base, committed.get("label", "?"),
                 (ratio - 1.0) * 100.0, verdict))
        if verdict != "OK":
            failures.append(scenario)
    if failures:
        print("bench_trajectory: regression beyond %.0f%% on: %s"
              % (args.threshold * 100.0, ", ".join(failures)), file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("measure", cmd_measure), ("record", cmd_record),
                     ("check", cmd_check)):
        p = sub.add_parser(name)
        p.add_argument("--bin", required=True,
                       help="path to the micro_perf binary (Release build)")
        p.add_argument("--min-time", type=float, default=1.0,
                       help="--benchmark_min_time seconds (fixed in CI)")
        if name == "record":
            p.add_argument("--label", required=True,
                           help="trajectory entry label, e.g. 'PR 6 post-refactor'")
        if name == "check":
            p.add_argument("--threshold", type=float, default=0.10,
                           help="allowed fractional drop in speed (committed / "
                                "current wall ms per simulated hour)")
        p.set_defaults(fn=fn)
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
