#!/usr/bin/env python3
"""CLI smoke cases: run sprite_analyze and sprite_tracegen, check the output.

Each entry of CASES is one ctest case, CliSmoke.<case> with label "smoke"
(tests/CMakeLists.txt): a list of tool runs, each naming the checks its
output must pass (the fields of Run). Streams are "stdout", "stderr" and
"metrics". In run arguments $metrics and $trace name the run's own
--metrics-out and --trace-out files and $dir the case's output directory,
which keeps every run's stdout and stderr for inspection.

Usage: smoke.py CASE ANALYZE TRACEGEN BASELINES OUTDIR
"""

import difflib
import fnmatch
import json
import re
import shlex
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from string import Template
from typing import NamedTuple, Optional


class Span(NamedTuple):
    """Complete events whose name matches `name` (an fnmatch pattern) must
    exist, all on a category matching `cat`, and if `timed`, all last > 0."""
    name: str
    cat: str = "*"
    timed: bool = False


@dataclass
class Run:
    name: str
    args: str  # shell words
    tool: str = "analyze"  # or "tracegen"
    exit: int = 0
    has: dict = field(default_factory=dict)  # {stream: [substring]}, all present
    matches: dict = field(default_factory=dict)  # {stream: [regex]}, each matches a line
    lacks: dict = field(default_factory=dict)  # {stream: regex}, matching nowhere
    golden: Optional[str] = None  # stdout equals this tools/baselines/ file,
    upto: Optional[str] = None  # or, if set, both up to this marker
    witness: Optional[str] = None  # stderr's "dispatched N events" is this baseline's
    same_as: Optional[str] = None  # stdout, and metrics if both wrote one, equal this run's
    spans: list = field(default_factory=list)  # [Span] in the trace JSON
    tracks: dict = field(default_factory=dict)  # {counter: its pids, or None for any}


# The standard small cluster every golden baseline is cut from. Run
# arguments are shell words; a later flag overrides an earlier one.
SHAPE = "--users 8 --clients 4 --servers 2 --minutes 10 --warmup 2"
SIM = f"--simulate {SHAPE}"
SYNC = "sync_tables_u8c4s2m10w2.txt"  # SIM --rpc-ledger
LEDGER = "== RPC transport ledger"
WIRE_KINDS = ("open close read-block write-block uncached-read uncached-write page-in "
              "page-out read-dir").split()
# One clean single-server crash (fails over), one client crash, and one
# correlated group that kills a primary with its backup (degrades to the
# classic reopen storm).
FAILOVER = (f"{SIM} --replication --metrics --rpc-ledger "
            "--crash-schedule crash:0@240+30,ccrash:1@300,crash:0+1@420+20")
BATCHED = (f"{SIM} --honest-wire --rpc-batching --net-contention --net-loss 0.02 "
           "--rpc-ledger --critical-path --metrics --metrics-out $metrics")
# Heavy + async under modulo placement aims every user's simulation input at
# server 0: the hot-spot detector must flag it.
HOT = f"{SIM} --heavy --async"
REBALANCED = f"{HOT} --rebalance --metrics --rpc-ledger --metrics-out $metrics"
NO_REBALANCE = r"rebalance\.|migrate-(state|dirty|commit)|Rebalance report"

CASES = {
    # Observability exports. 10 users crowded onto 2 clients keep memory
    # under enough pressure that even the rare paging RPCs occur.
    "metrics": [
        Run("main", "--simulate --users 10 --clients 2 --servers 2 --minutes 30 --warmup 5 "
                    "--heavy --metrics --metrics-interval 60 --trace-out $trace",
            has={"stdout": ["# sprite-metrics v2", "window seq=0", "gauge sim.queue.dispatched",
                            "counter cache.miss_fills", "latency rpc.read-block.latency_us"]},
            spans=[Span(kind) for kind in WIRE_KINDS],
            tracks={"rpc.calls": None}),
    ],
    # A crash and an asymmetric partition; stale handles surface as prose,
    # never as the enum's spelling. An empty schedule changes no byte.
    "recovery": [
        Run("crash", "--simulate --users 8 --clients 4 --servers 2 --minutes 30 --warmup 5 "
                     "--metrics --rpc-ledger --crash-schedule crash:0@600+20,part:0-1x0@900+300 "
                     "--trace-out $trace",
            has={"stdout": ["Crash recovery and partitions", "server 0: epoch 2",
                            "reopen RPCs:", "dropped callbacks:"]},
            lacks={"stdout": "StaleHandle"},
            spans=[Span(name) for name in ("recovery.crash", "server.down", "server.recovering",
                                           "reopen", "partition-gap")]),
        Run("base", SIM),
        Run("empty", f"{SIM} --crash-schedule ''", same_as="base"),
    ],
    "async": [
        Run("async", f"{SIM} --async --metrics --rpc-ledger --trace-out $trace",
            has={"stdout": ["latency server.0.queue_us", "latency server.1.queue_us",
                            "gauge server.0.queue_depth", "Queue (ms)", "Service (ms)"]},
            spans=[Span("rpc.queued", timed=True)]),
    ],
    # Every placement policy reports; modulo is pinned byte for byte.
    "sharding": [
        Run(policy, f"{SIM} --shard-policy {policy} --shard-report",
            has={"stdout": ["== Server sharding report ==", f"policy: {policy}",
                            "Files placed", "skew: files max/mean"]},
            golden="shard_report_modulo_u8c4s2m10w2.txt" if policy == "modulo" else None)
        for policy in ("modulo", "hash", "range", "dir-affinity")
    ],
    # The default path: every opt-in mode off (sync transport, plain wire, no
    # replication or rebalancing). Tables, ledger and event count are pinned.
    "default": [
        Run("sync", f"{SIM} --rpc-ledger", golden=SYNC, witness="sim_hash_u8c4s2m10w2.txt"),
    ],
    # Observability v2: metric streams go to --metrics-out and never stdout,
    # the critical path reconciles with the ledger, the detector flags modulo
    # and stays quiet under hash, gauges route to per-server tracks, and full
    # observability leaves stdout on the golden baseline.
    "obs": [
        Run("hot", f"{HOT} --metrics --critical-path --hotspot-report --metrics-out $metrics",
            has={"metrics": ["# sprite-metrics v2", "window seq=0", "win_p99_us=",
                             "== Critical path", "reconcile rpcs:", "== Hot-spot report ==",
                             "server 0: HOT"]},
            lacks={"metrics": "MISMATCH", "stdout": "sprite-metrics|reconcile|Hot-spot"}),
        Run("quiet", f"{HOT} --shard-policy hash --hotspot-report --metrics-out $metrics",
            has={"metrics": ["no hot spots detected"]}),
        Run("tracks", f"{SIM} --async --metrics --trace-out $trace",
            tracks={"rpc.calls": {9999}, "server.0.queue_depth": {1000},
                    "server.1.queue_depth": {1001}}),
        Run("full", f"{SIM} --rpc-ledger --metrics --critical-path --hotspot-report "
                    "--metrics-out $metrics", golden=SYNC),
    ],
    # Replication: fail-over and degraded crashes, reproducible byte for byte,
    # and no shadow or fail-over machinery at all when off.
    "failover": [
        Run("faulted", f"{FAILOVER} --trace-out $trace",
            has={"stdout": ["latency recovery.failover_us", "counter recovery.failovers",
                            "gauge server.0.role", "shadow-open", "replication: 1 failover(s)",
                            "1 degraded crash(es)", "dirty preserved by fail-over",
                            "1 client crash(es)"]},
            spans=[Span("failover", timed=True), Span("shadow-*")]),
        Run("rerun", FAILOVER, same_as="faulted"),
        Run("off", f"{SIM} --metrics --rpc-ledger",
            lacks={"stdout": r"shadow-|failover|server\.[0-9]+\.role"}),
    ],
    # The honest wire: batches land on their own ledger row, the critical
    # path reconciles exactly under batching, piggybacking absorbs some
    # control ops, and a lossy contended run reproduces byte for byte.
    "batching": [
        Run("batched", BATCHED,
            has={"stdout": ["== Wire (honest wire / contention) ==", "wire exchanges:",
                            "batched", "contention:", "retransmit(s)"],
                 "metrics": ["gauge wire.batched_ops", "gauge wire.batches",
                             "gauge net.retransmits", "latency net.link.0.queued_us",
                             "latency net.link.1.queued_us"]},
            matches={"stdout": ["^batch "], "metrics": ["reconcile wire_us: .* OK"]},
            lacks={"metrics": "MISMATCH"}),
        Run("honest", f"{SIM} --honest-wire --rpc-ledger",
            matches={"stdout": ["wire: [1-9][0-9]* piggybacked, [1-9][0-9]* charged control"]}),
        Run("rerun", BATCHED, same_as="batched"),
    ],
    # Live rebalancing on the modulo hot spot: the episode triggers a burst
    # that dissolves it, reproducibly; off, no rebalance machinery shows.
    "rebalance": [
        Run("on", f"{REBALANCED} --trace-out $trace",
            has={"metrics": ["gauge rebalance.migrations", "gauge rebalance.moved_bytes",
                             "== Rebalance report ==", "hot-spot migrations:",
                             "hot spot dissolved", "hot spots dissolved: 1/1 bursts",
                             "migration RPCs:"]},
            matches={"stdout": ["^migrate-state "]},
            spans=[Span("migrate", cat="rebalance", timed=True)]),
        Run("rerun", REBALANCED, same_as="on"),
        Run("off", f"{HOT} --metrics --rpc-ledger --metrics-out $metrics",
            lacks={"stdout": NO_REBALANCE, "metrics": NO_REBALANCE}),
    ],
    # Bad input fails before anything is simulated: exit 2 with a message,
    # never an uncaught exception.
    "flags": [
        Run(name, args, tool=tool, exit=2, has={"stderr": [message]},
            lacks={"stderr": "terminate called"})
        for tool, name, args, message in [
            ("analyze", "one-server-replication", f"{SIM} --servers 1 --replication",
             "replication requires at least 2 servers"),
            ("analyze", "zero-clients", f"{SIM} --clients 0", "--clients must be positive, got 0"),
            ("analyze", "negative-clients", f"{SIM} --clients -3",
             "--clients must be positive, got -3"),
            ("analyze", "zero-interval", f"{SIM} --interval 0",
             "--interval must be positive, got 0"),
            ("analyze", "zero-metrics-interval", f"{SIM} --metrics --metrics-interval 0",
             "--metrics-interval must be positive, got 0"),
            ("analyze", "async-replay", "--async $dir/none.trace", "--async requires --simulate"),
            ("analyze", "metrics-out-no-stream", f"{SIM} --rpc-ledger --metrics-out $metrics",
             "--metrics-out writes no stream without --metrics, --metrics-interval, "
             "--critical-path, --hotspot-report or --rebalance"),
            ("analyze", "metrics-out-no-stream-replay", "--metrics-out $metrics $dir/none.trace",
             "--metrics-out writes no stream without"),
            ("tracegen", "gen-zero-clients", f"{SHAPE} --clients 0 $dir/none.trace",
             "--clients must be positive, got 0"),
            ("tracegen", "gen-negative-clients", f"{SHAPE} --clients -3 $dir/none.trace",
             "--clients must be positive, got -3"),
        ]
    ],
    # The trace-file path. sprite_tracegen writes SIM's trace (same seed and
    # shape) in both formats; the replay must print the live run's tables
    # and both formats the same report.
    "replay": [
        Run("gen-binary", f"{SHAPE} $dir/trace.bin", tool="tracegen"),
        Run("gen-text", f"{SHAPE} --text $dir/trace.txt", tool="tracegen"),
        Run("binary", "--rpc-ledger $dir/trace.bin", golden=SYNC, upto=LEDGER,
            has={"stdout": [LEDGER + " (replayed"]}),
        Run("text", "--text --rpc-ledger --metrics --metrics-out $metrics --trace-out $trace "
                    "$dir/trace.txt", same_as="binary",
            has={"metrics": ["# sprite-metrics v2", "final_partial=1"]},
            lacks={"metrics": r"sprite-metrics v(?!2)|latency rpc\.(getattr|page-|reopen|"
                              r"recall-dirty|cache-|token-|discard-file|shadow-)"},
            spans=[Span(kind, cat="rpc.replay")
                   for kind in ("open", "close", "read-block", "write-block")],
            tracks={"rpc.calls": {9999}}),
    ],
}


def diff(want, got):
    lines = difflib.unified_diff(want.decode(errors="replace").splitlines(),
                                 got.decode(errors="replace").splitlines(),
                                 "expected", "actual", lineterm="", n=1)
    return "\n".join(list(lines)[:20])


def check_trace(run, path):
    try:
        events = json.loads(path.read_text())["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return [f"trace JSON {path} unreadable: {e!r}"]
    fails = []
    complete = [e for e in events if e.get("ph") == "X"]
    for span in run.spans:
        named = [e for e in complete if fnmatch.fnmatchcase(e["name"], span.name)]
        if not named:
            fails.append(f"trace has no '{span.name}' span")
        elif not all(fnmatch.fnmatchcase(e.get("cat", ""), span.cat) for e in named):
            fails.append(f"a '{span.name}' span is off category '{span.cat}'")
        elif span.timed and not all(e["dur"] > 0 for e in named):
            fails.append(f"a '{span.name}' span has zero duration")
    pids = {}
    for e in (e for e in events if e.get("ph") == "C"):
        pids.setdefault(e["name"], set()).add(e["pid"])
    for name, want in run.tracks.items():
        if name not in pids or (want is not None and pids[name] != want):
            fails.append(f"counter track {name} on pids {sorted(pids.get(name, []))}, want {want}")
    return fails


def check(run, out, done, baselines):
    text = {k: out[k].decode(errors="replace") for k in ("stdout", "stderr", "metrics")
            if out[k] is not None}
    fails = []
    if out["status"] != run.exit:
        got = (f"signal {signal.Signals(-out['status']).name}" if out["status"] < 0
               else f"exit {out['status']}")
        fails.append(f"{got}, want exit {run.exit}")
    for stream, needles in run.has.items():
        fails += [f"{stream} lacks '{n}'" for n in needles if n not in text.get(stream, "")]
    for stream, patterns in run.matches.items():
        fails += [f"{stream} has no line matching /{p}/" for p in patterns
                  if not re.search(p, text.get(stream, ""), re.M)]
    for stream, pattern in run.lacks.items():
        found = re.search(pattern, text.get(stream, ""))
        if found:
            fails.append(f"{stream} has forbidden '{found.group(0)}'")
    if run.golden:
        want, got = (baselines / run.golden).read_bytes(), out["stdout"]
        if run.upto:
            want, got = (b.split(run.upto.encode())[0] for b in (want, got))
        if got != want:
            fails.append(f"stdout differs from {run.golden}:\n{diff(want, got)}")
    if run.witness:
        want = re.findall(r"^dispatched .*$", (baselines / run.witness).read_text(), re.M)
        if not want or re.findall(r"dispatched [0-9]* events", text.get("stderr", "")) != want:
            fails.append(f"stderr's dispatched-event count is not {run.witness}'s {want}")
    if run.same_as:
        ref = done[run.same_as]
        for stream in ("stdout", "metrics"):
            if None not in (out[stream], ref[stream]) and out[stream] != ref[stream]:
                fails.append(f"{stream} differs from run '{run.same_as}':\n"
                             f"{diff(ref[stream], out[stream])}")
    if run.spans or run.tracks:
        fails += check_trace(run, out["trace"])
    return fails


def execute(run, tool, case_dir):
    paths = {"dir": case_dir, "metrics": case_dir / f"{run.name}.metrics",
             "trace": case_dir / f"{run.name}.json"}
    argv = [tool] + [Template(arg).substitute(paths) for arg in shlex.split(run.args)]
    proc = subprocess.run(argv, capture_output=True)
    (case_dir / f"{run.name}.stdout").write_bytes(proc.stdout)
    (case_dir / f"{run.name}.stderr").write_bytes(proc.stderr)
    metrics = paths["metrics"].read_bytes() if paths["metrics"].exists() else None
    return argv, {"status": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                  "metrics": metrics, "trace": paths["trace"]}


def main():
    if len(sys.argv) != 6 or sys.argv[1] not in CASES:
        sys.exit(f"{__doc__.strip()}\ncases: {' '.join(CASES)}")
    case, analyze, tracegen, baselines, out = sys.argv[1:]
    tools, baselines, out = {"analyze": analyze, "tracegen": tracegen}, Path(baselines), Path(out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    done, failed = {}, 0
    for run in CASES[case]:
        argv, result = execute(run, tools[run.tool], out)
        done[run.name] = result
        fails = check(run, result, done, baselines)
        print(f"{case}/{run.name}: {'FAIL' if fails else 'ok'}: {shlex.join(argv)}")
        for fail in fails:
            print("  " + fail.replace("\n", "\n    "))
        if fails and result["stderr"]:
            tail = result["stderr"].decode(errors="replace").splitlines()[-5:]
            print("  stderr tail:", *tail, sep="\n    ")
        failed += bool(fails)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
