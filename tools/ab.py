#!/usr/bin/env python3
"""Interleaved A/B runs of a base commit against the working tree on one
perfbench workload.

Run from the repository root:

    python3 tools/ab.py --workload paper --seed 1991 --rounds 10

The base (--base, default HEAD^) is exported with `git archive` into
<work dir>/<sha>/src, so an interrupted run leaves no worktree registered
in the repository. Each round runs the workload once through each tree's
own perfbench/run.py, alternating which tree goes first, for BENCHMARK.json's
run_seconds; run.py builds its tree's driver into that tree's own build
directory under the work dir before it times anything. At least 10 rounds
are required. For every end-to-end metric of BENCHMARK.json the script
prints every pair, each side's median and IQR, the change's wins out of N
(ties count for neither) and one verdict:

  gain        the change is better in at least 9 of 10 pairs, and its median
              is better than the base's by more than the base's IQR;
  regression  the same, but worse;
  unresolved  anything else, in particular a median shift inside the base's
              IQR.

It also checks that both trees simulated the same thing: every trace's
digest and kernel-call count and every paper cell must be identical. The
last stdout line is a JSON record of every run. Exits 1 if a build or run
fails or the simulated outputs differ.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_ROUNDS = 10
WIN_SHARE = 0.9
# run.py's per-trace and per-cell lines; both sides must print the same ones.
OUTPUT_LINE = re.compile(r"^trace (\d+) seed=\S+ .*?(digest=\S+ calls=\S+)|^(paper .*)$")


def export_base(rev, work_dir):
    """The base revision's tree, exported once per commit."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    tree = work_dir / sha[:12] / "src"
    if not (tree / "perfbench" / "run.py").exists():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise SystemExit(f"ab: git archive {sha} failed")
    return sha, tree


def run_once(tree, build_dir, args):
    """One perfbench/run.py invocation: (metrics, simulated-output lines)."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(SPEC["run_seconds"])]
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr[-4000:] + proc.stdout[-4000:])
        raise SystemExit(f"ab: {tree}/perfbench/run.py failed")
    outputs = []
    for line in lines:
        m = OUTPUT_LINE.match(line)
        if m:
            outputs.append(f"trace {m.group(1)} {m.group(2)}" if m.group(1) else m.group(3))
    return {name: m["value"] for name, m in result["metrics"].items()}, outputs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, change, higher_is_better):
    """(wins, losses, shift, verdict) of the change against the base."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    b1, b2, b3 = quartiles(base)
    shift = statistics.median(change) - b2
    needed = WIN_SHARE * len(base)
    if abs(shift) > b3 - b1 and sign * shift > 0 and wins >= needed:
        return wins, losses, shift, "gain"
    if abs(shift) > b3 - b1 and sign * shift < 0 and losses >= needed:
        return wins, losses, shift, "regression"
    return wins, losses, shift, "unresolved"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1991)
    parser.add_argument("--rounds", type=int, default=MIN_ROUNDS)
    parser.add_argument("--base", default="HEAD^", help="git revision to compare against")
    parser.add_argument("--work-dir", type=Path, default=ROOT / "build-ab",
                        help="where the base tree and both builds live")
    args = parser.parse_args()
    if args.rounds < MIN_ROUNDS:
        parser.error(f"--rounds must be >= {MIN_ROUNDS}: the verdict needs at least "
                     f"{MIN_ROUNDS} interleaved pairs")

    work_dir = args.work_dir.resolve()
    sha, base_tree = export_base(args.base, work_dir)
    sides = {"base": (base_tree, work_dir / sha[:12] / "build"),
             "change": (ROOT, work_dir / "change-build")}

    print(f"# ab workload={args.workload} seed={args.seed} rounds={args.rounds} "
          f"seconds={SPEC['run_seconds']} base={sha[:12]} change=working tree", flush=True)
    runs = {"base": [], "change": []}
    outputs = {}
    for r in range(args.rounds):
        order = ["base", "change"] if r % 2 == 0 else ["change", "base"]
        for side in order:
            metrics, lines = run_once(*sides[side], args)
            runs[side].append(metrics)
            outputs.setdefault(side, lines)
        print(f"round {r + 1}/{args.rounds} ({order[0]} first): "
              + "  ".join(f"{side} {runs[side][-1]['kernel_calls_per_s']:.0f} calls/s"
                          for side in ("base", "change")), flush=True)

    record = {"workload": args.workload, "seed": args.seed, "base": sha,
              "rounds": args.rounds, "seconds": SPEC["run_seconds"], "metrics": {}}
    for m in SPEC["end_to_end"]:
        name = m["name"]
        higher = m["better"] == "higher"
        base = [run[name] for run in runs["base"]]
        change = [run[name] for run in runs["change"]]
        wins, losses, shift, result = verdict(base, change, higher)
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        print(f"\nmetric {name} ({m['unit']}, {m['better']} is better, bound "
              f"{100 * m['bound']:.0f} %)")
        for i, (b, c) in enumerate(zip(base, change)):
            print(f"  pair {i + 1:2d} ({'base' if i % 2 == 0 else 'change'} first) "
                  f"base {b:14.6g}  change {c:14.6g}")
        print(f"  base   median {b2:.6g}  IQR {b3 - b1:.6g} ({b1:.6g} .. {b3:.6g})")
        print(f"  change median {c2:.6g}  IQR {c3 - c1:.6g} ({c1:.6g} .. {c3:.6g})")
        relative = f" ({100 * shift / b2:+.1f} %)" if b2 else ""
        ties = len(base) - wins - losses
        print(f"  shift {shift:+.6g}{relative}, change wins {wins}/{len(base)}"
              f"{f' ({ties} ties)' if ties else ''} -> {result}")
        record["metrics"][name] = {"base": base, "change": change, "verdict": result}

    same = outputs["base"] == outputs["change"]
    print(f"\nsimulated outputs: {'identical' if same else 'DIFFER'} "
          f"({len(outputs['base'])} trace and paper-cell lines)")
    if not same:
        for b, c in zip(outputs["base"], outputs["change"]):
            if b != c:
                print(f"  base   {b}\n  change {c}")
    record["outputs_identical"] = same
    print(json.dumps(record))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
