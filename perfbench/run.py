#!/usr/bin/env python3
"""Builds the sprite-dfs benchmark driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1991 --seconds 30 --trace 0

The driver package (perfbench/CMakeLists.txt) compiles the repository's
src/ tree into $CARGO_TARGET_DIR, or .bench_build when that is unset. A
workload is a suite of independent traces whose seeds derive from --seed.
This script runs the suite in passes, one trace run per driver process,
until --seconds have passed (at least one whole pass), then aggregates:
host times are each trace's median, summed over the suite. It prints every
metric by name and unit; the last stdout line is the JSON result, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
A traced run also writes the driver spans to <build dir>/spans/. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
BUILD_TIMEOUT_S = 840
TRACE_RUN_TIMEOUT_S = 120


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout kills the whole group."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return None, None
    return proc.returncode, out


def build(build_dir):
    steps = [
        ["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench_driver",
         "-j", "4"],
    ]
    return all(run(step, BUILD_TIMEOUT_S, sys.stderr)[0] == 0 for step in steps)


def trace_run(driver, workload, seed, index, traced):
    """One trace run in its own process; None if the driver did not finish."""
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--index", str(index)] + (["--traced"] if traced else [])
    code, out = run(cmd, TRACE_RUN_TIMEOUT_S, subprocess.PIPE)
    if code != 0:
        print(f"perfbench: trace {index} exited with {code}", file=sys.stderr)
        return None
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"perfbench: trace {index} printed no result", file=sys.stderr)
        return None


def median(values):
    return statistics.median(values) if values else 0.0


def paper_error_pp(cells):
    """Mean distance of the cells from the paper's value or band, in pp."""
    if not cells:
        return 0.0
    return 100.0 * sum(abs(c["measured"] - min(max(c["measured"], c["low"]), c["high"]))
                       for c in cells) / len(cells)


def suite_cells(suite):
    """The paper cells averaged over the suite's traces."""
    firsts = [t["untraced"][0]["cells"] for t in suite]
    cells = [dict(c) for c in firsts[0]]
    for i, cell in enumerate(cells):
        cell["measured"] = statistics.fmean(f[i]["measured"] for f in firsts)
    return cells


def suite_counts(suite):
    """Per-layer counts over the suite: the maximum for the queue high-water,
    the mean over traces for ratios and per-item figures, the sum otherwise."""
    firsts = [t["untraced"][0]["counts"] for t in suite]
    counts = []
    for i, metric in enumerate(firsts[0]):
        values = [f[i]["value"] for f in firsts]
        if metric["name"] == "sim.queue_high_water":
            value = max(values)
        elif metric["unit"] in ("ratio", "sim_msec", "B/record"):
            value = statistics.fmean(values)
        else:
            value = sum(values)
        counts.append({"name": metric["name"], "unit": metric["unit"], "value": value})
    return counts


def suite_sum(suite, kind, value):
    """Each trace's median of value over its runs of kind, summed."""
    return sum(median([value(r) for r in t[kind]]) for t in suite)


def end_to_end(suite, kind):
    calls = sum(t["untraced"][0]["kernel_calls"] for t in suite)
    measure_s = suite_sum(suite, kind, lambda r: r["measure_s"])
    return {
        "setup_s": suite_sum(suite, kind, lambda r: r["setup_s"]),
        "kernel_calls_per_s": calls / measure_s if measure_s > 0 else 0.0,
        "report_s": suite_sum(suite, kind, lambda r: r["report_s"]),
        # Each trace process's own high-water mark, averaged over the suite.
        "peak_rss_mb": statistics.fmean(median([r["peak_rss_mb"] for r in t[kind]])
                                        for t in suite),
    }


def suite_failures(workload, counts):
    """Each workload's mechanisms must have run somewhere in the suite;
    without these checks a change that silently disabled one would read as a
    speed-up."""
    value = {c["name"]: c["value"] for c in counts}
    checks = {
        "wire": [
            (value["fs.replication.failovers"] >= 1, "no fail-over"),
            (value["fs.replication.degraded_crashes"] >= 1, "no degraded crash"),
            (value["fs.rpc.batched_ops"] > 0, "no wire batches"),
            (value["fs.net.contended_transfers"] > 0, "no contended transfers"),
            (value["fs.net.retransmits"] > 0, "no retransmits"),
        ],
        "observed": [
            (value["fs.rebalance.dissolved_ratio"] > 0, "no hot spot dissolved"),
            (value["obs.spans"] > 0, "no spans"),
            (value["fs.rpc.piggybacked_ops"] > 0, "no piggybacked ops"),
        ],
    }
    return [f"{workload}: {what}" for ok, what in checks.get(workload, []) if not ok]


def determinism_failures(runs, first):
    """The newest of runs must reproduce its trace's first untraced run: the
    same simulated-output digest, and the same per-layer counts as the first
    run of its kind. (The traced window task keeps one more event pending,
    which only sim.queue_high_water can see.)"""
    newest = runs[-1]
    failures = []
    if newest["digest"] != first["digest"]:
        failures.append("simulated outputs differ from the first run of the trace")
    for mine, theirs in zip(newest["counts"], runs[0]["counts"]):
        if mine["value"] != theirs["value"]:
            failures.append(f"{mine['name']} differs from the first run of the trace")
    return failures


def summarize_spans(result):
    """Adds a traced run's per-name span totals (wall, self and thread-CPU
    seconds) and the median host ms of its measured sim.window spans."""
    spans = {s["id"]: s for s in result["spans"]}
    totals = {}
    windows = []
    for s in result["spans"]:
        wall = (s["end_ns"] - s["start_ns"]) / 1e9
        t = totals.setdefault(s["name"], [0.0, 0.0, 0.0])
        t[0] += wall
        t[1] += s["self_ns"] / 1e9
        t[2] += s["cpu_ns"] / 1e9
        if s["name"] == "sim.window" and spans.get(s["parent"], {}).get("name") == "measure":
            windows.append(wall * 1e3)
    result["span_totals"] = totals
    result["window_ms"] = median(windows)


def span_table(suite):
    """Wall, self and thread-CPU ms per span name, per suite pass."""
    names = []
    for t in suite:
        for r in t["traced"]:
            names += [n for n in r["span_totals"] if n not in names]
    rows = []
    for name in names:
        row = [sum(median([r["span_totals"].get(name, [0, 0, 0])[c] for r in t["traced"]])
                   for t in suite) * 1e3 for c in range(3)]
        rows.append((name, row))
    return rows


def per_layer(suite, counts, e2e):
    metrics = []

    def add(name, unit, value):
        metrics.append({"name": name, "unit": unit, "value": value})

    events = sum(t["untraced"][0]["measured_events"] for t in suite)
    measure_s = suite_sum(suite, "traced", lambda r: r["measure_s"])
    add("sim.ns_per_event", "ns", 1e9 * measure_s / events if events else 0.0)
    add("sim.window_ms", "ms", median([r["window_ms"] for t in suite for r in t["traced"]]))
    for metric, span in [
            ("setup.construct_s", "construct"), ("setup.warmup_s", "warmup"),
            ("trace.encode_s", "trace.encode"), ("trace.decode_s", "trace.decode"),
            ("analysis.summarize_s", "analysis.summarize"),
            ("analysis.activity_s", "analysis.activity"),
            ("analysis.accesses_s", "analysis.accesses"),
            ("analysis.patterns_s", "analysis.patterns"),
            ("analysis.lifetimes_s", "analysis.lifetimes"),
            ("analysis.counters_s", "analysis.counters"),
            ("consistency.polling_s", "consistency.polling"),
            ("consistency.overhead_s", "consistency.overhead"),
            ("obs.export_s", "obs.export")]:
        add(metric, "s", suite_sum(suite, "traced",
                                   lambda r, span=span: r["span_totals"].get(span, [0])[0]))
    metrics += counts
    traced = end_to_end(suite, "traced")
    for name in ("setup_s", "kernel_calls_per_s", "report_s"):
        add(f"trace_overhead.{name}", "1/s" if name == "kernel_calls_per_s" else "s",
            traced[name] - e2e[name])
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1991)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as err:
        print(f"perfbench: cannot read {spec_path}: {err}", file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("perfbench: --seconds must be >= 1 and --seed >= 0", file=sys.stderr)
        return 2

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    driver = build_dir / "perfbench_driver"

    # Passes over the suite until the time is up, at least one whole pass. In
    # a traced run each trace runs untraced, then traced.
    kinds = ["untraced", "traced"] if args.trace else ["untraced"]
    start = time.monotonic()
    estimate = {}
    suite = None
    failed = 0

    def record(index, kind):
        nonlocal suite, failed
        t0 = time.monotonic()
        result = trace_run(driver, args.workload, args.seed, index, kind == "traced")
        estimate[index, kind] = time.monotonic() - t0
        if result is None:
            return False
        if suite is None:
            suite = [{"untraced": [], "traced": []} for _ in range(result["traces"])]
        if kind == "traced":
            summarize_spans(result)
        runs = suite[index][kind]
        runs.append(result)
        result["failures"] += determinism_failures(runs, suite[index]["untraced"][0])
        failed += 1 if result["failures"] else 0
        return True

    if not record(0, "untraced"):
        return 1
    order = [(index, kind) for index in range(len(suite)) for kind in kinds]
    todo = order[1:] or order
    while todo:
        for index, kind in todo:
            if todo is order and (time.monotonic() - start + estimate[index, kind]
                                  > args.seconds):
                todo = []
                break
            if not record(index, kind):
                return 1
        else:
            todo = order
    attempted = sum(len(t[kind]) for t in suite for kind in kinds)
    broken = [f for t in suite if not t["untraced"][0]["counts"]
              for f in t["untraced"][0]["failures"]]
    if broken:
        print("perfbench: a trace run produced no results: " + "; ".join(broken),
              file=sys.stderr)
        return 1

    failures = [f"trace {index} ({kind}): {f}" for index, t in enumerate(suite)
                for kind in kinds for r in t[kind] for f in r["failures"]]
    counts = suite_counts(suite)
    mechanisms = suite_failures(args.workload, counts)
    failures += mechanisms
    if mechanisms:
        failed = attempted
    cells = suite_cells(suite)
    e2e = end_to_end(suite, "untraced")
    e2e["paper_err_pp"] = paper_error_pp(cells)

    print(f"# perfbench workload={args.workload} seed={args.seed} traces={len(suite)} "
          f"runs={attempted}")
    for index, t in enumerate(suite):
        r = t["untraced"][0]
        print(f"trace {index} seed={r['trace_seed']} runs={len(t['untraced'])}+"
              f"{len(t['traced'])} digest={r['digest']} calls={r['kernel_calls']} "
              f"setup_s={r['setup_s']:.4f} measure_s={r['measure_s']:.4f} "
              f"report_s={r['report_s']:.4f} rss_mb={r['peak_rss_mb']:.1f} "
              f"paper_err_pp={paper_error_pp(r['cells']):.3f}")
    for c in cells:
        print(f"paper {c['name']:<28} measured {100 * c['measured']:6.1f}% "
              f"paper {100 * c['low']:5.1f}-{100 * c['high']:5.1f}%")
    for f in failures:
        print(f"FAILED {f}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    reported_e2e = [{"name": n, "unit": units[n], "value": e2e[n]} for n in units]
    layers = counts
    if args.trace:
        print("# driver spans: ms per suite pass, each trace's median")
        print(f"span {'name':<22} {'wall_ms':>12} {'self_ms':>12} {'cpu_ms':>12}")
        for name, (wall, self_ms, cpu) in span_table(suite):
            print(f"span {name:<22} {wall:12.3f} {self_ms:12.3f} {cpu:12.3f}")
        layers = per_layer(suite, counts, e2e)
        spans_dir = build_dir / "spans"
        spans_dir.mkdir(exist_ok=True)
        spans_file = spans_dir / f"{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "runs": [{"run": n, "index": r["index"], "trace_seed": r["trace_seed"],
                      "spans": r["spans"]}
                     for n, r in enumerate(r for t in suite for r in t["traced"])]}) + "\n")
        print(f"# spans written to {spans_file}")
    for m in reported_e2e:
        print(f"metric {m['name']:<36} {m['value']:>22.6f} {m['unit']:<9} end-to-end")
    for m in layers:
        print(f"metric {m['name']:<36} {m['value']:>22.6f} {m['unit']:<9} per-layer")

    # The result must name exactly the metrics BENCHMARK.json declares.
    reported = layers if args.trace else reported_e2e
    want = {m["name"]: m["unit"] for m in (spec["per_layer"] if args.trace
                                           else spec["end_to_end"])}
    got = {m["name"]: m["unit"] for m in reported}
    if got != want:
        print(f"perfbench: metrics differ from BENCHMARK.json: missing "
              f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": m["value"], "unit": m["unit"]} for m in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
