#!/bin/sh
# Runs the tier-1 verify (configure, build, ctest) twice: once plain and once
# with ASan+UBSan via the SPRITE_SANITIZE cache option. Each pass uses its own
# build directory so the instrumented objects never mix with the normal ones.
# Each pass also smoke-tests the observability exports: sprite_analyze
# --simulate --metrics --trace-out on a small cluster, checking that the
# Chrome trace JSON parses, that every wire-occupying RPC kind produced
# spans, and that the key metric names appear in the snapshot output.
# A second smoke drives a --crash-schedule (one server crash plus an
# asymmetric partition), asserting the recovery phases appear as spans, the
# recovery summary renders without leaking enum spellings, and an empty
# schedule leaves the paper tables byte-identical.
# A third smoke drives the event-driven transport (--async): server queue
# recorders must appear in --metrics, "rpc.queued" spans must parse out of
# the trace JSON, and the default sync mode must stay byte-identical to the
# committed baseline in tools/baselines/.
# A fourth smoke sweeps the sharding policies: each --shard-policy runs once
# with --shard-report, the report must name the policy and carry skew
# metrics, and the default modulo run must stay byte-identical to the
# committed golden baseline.
# A fifth smoke pins determinism directly: the standard 8u/4c/2s run's
# stdout hash and kernel dispatched-event count must match the committed
# values in tools/baselines/sim_hash_u8c4s2m10w2.txt — perf refactors of the
# event queue / RPC / cache layers must not move either.
# A sixth smoke covers observability v2: the windowed metrics / critical-path
# / hot-spot streams route to --metrics-out (never stdout), the critical-path
# table reconciles against the RPC ledger, the hot-spot detector flags the
# modulo-placement server in the heavy+async skew scenario and stays quiet
# under hash on the same seed, gauge counter tracks route to per-server pids
# in the Perfetto export, and a full-observability run leaves the paper
# tables byte-identical to the committed determinism baseline.
# A seventh smoke covers primary/backup replication: a --replication run
# under a crash schedule with a correlated crash group and a client crash
# must report fail-overs, a degraded crash, and preserved dirty bytes in the
# recovery summary, surface the failover instruments in --metrics and the
# shadow kinds in --rpc-ledger, emit "failover" and shadow spans in the
# trace, stay byte-identical across two identical faulted runs, and — with
# replication off — register no shadow or failover instruments at all.
# An eighth smoke covers the honest wire: a --honest-wire --rpc-batching
# --net-contention run must render the wire summary, the kBatch ledger row,
# per-link queue recorders in --metrics-out, and a critical-path table that
# reconciles exactly ("OK" lines, no MISMATCH); an honest-wire-only run must
# report piggybacked ops; two identical batched runs must be byte-identical;
# and with every wire flag off the paper tables must stay byte-identical to
# the committed sync baseline.
# A ninth smoke covers live rebalancing: a --rebalance run on the modulo
# hot-spot scenario must surface the rebalance.* gauges and kMigrate* ledger
# rows, render the rebalance report with a "hot spot dissolved" verdict,
# emit "migrate" spans on the rebalance track in the trace, and repeat
# byte-identically on the same seed; with --rebalance off the migration
# machinery must be invisible (no rebalance instrument, report, or migrate
# ledger row — determinism_smoke pins the off-mode hash). The sanitize pass
# additionally re-runs the randomized rebalance suites through ctest
# --repeat until-pass:1 as a determinism sweep.
# Finally (plain mode only) a perf gate builds a Release tree and runs the
# BM_SimulateCluster trajectory via tools/bench_trajectory.py check: a >10%
# events/sec regression against the newest committed BENCH_sim_*.json entry
# fails the build. Skipped gracefully when google-benchmark is not installed.
#
# Usage: tools/check.sh [--plain-only|--sanitize-only]
set -eu

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 4)"

metrics_smoke() {
  build_dir="$1"
  echo "== ${build_dir}: metrics smoke =="
  smoke_out="${build_dir}/metrics_smoke.txt"
  smoke_json="${build_dir}/metrics_smoke.json"
  # 10 users crowded onto 2 clients keeps memory under enough pressure that
  # even the rare paging RPCs (page-out = dirty VM eviction) occur.
  "${build_dir}/tools/sprite_analyze" --simulate --users 10 --clients 2 \
    --servers 2 --minutes 30 --warmup 5 --heavy --metrics \
    --metrics-interval 60 --trace-out "${smoke_json}" > "${smoke_out}"
  for needle in \
      "# sprite-metrics v2" \
      "window seq=0" \
      "gauge sim.queue.dispatched" \
      "counter cache.miss_fills" \
      "latency rpc.read-block.latency_us"; do
    if ! grep -qF "${needle}" "${smoke_out}"; then
      echo "metrics smoke: '${needle}' missing from ${smoke_out}" >&2
      exit 1
    fi
  done
  python3 - "${smoke_json}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "no trace events"
names = {e["name"] for e in events if e.get("ph") == "X"}
wire_kinds = ["open", "close", "read-block", "write-block", "uncached-read",
              "uncached-write", "page-in", "page-out", "read-dir"]
missing = [k for k in wire_kinds if k not in names]
assert not missing, f"wire RPC kinds without spans: {missing}"
counters = {e["name"] for e in events if e.get("ph") == "C"}
assert "rpc.calls" in counters, "metrics counter track missing"
print(f"metrics smoke: {len(events)} events, all {len(wire_kinds)} wire kinds spanned")
EOF
}

recovery_smoke() {
  build_dir="$1"
  echo "== ${build_dir}: recovery smoke =="
  rec_out="${build_dir}/recovery_smoke.txt"
  rec_json="${build_dir}/recovery_smoke.json"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 30 --warmup 5 --metrics --rpc-ledger \
    --crash-schedule "crash:0@600+20,part:0-1x0@900+300" \
    --trace-out "${rec_json}" > "${rec_out}"
  for needle in \
      "Crash recovery and partitions" \
      "server 0: epoch 2" \
      "reopen RPCs:" \
      "dropped callbacks:"; do
    if ! grep -qF "${needle}" "${rec_out}"; then
      echo "recovery smoke: '${needle}' missing from ${rec_out}" >&2
      exit 1
    fi
  done
  # Stale handles surface in the tables as lowercase prose, never as the
  # enum's literal spelling.
  if grep -q "StaleHandle" "${rec_out}"; then
    echo "recovery smoke: literal 'StaleHandle' leaked into table output" >&2
    exit 1
  fi
  python3 - "${rec_json}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
names = {e["name"] for e in events if e.get("ph") == "X"}
recovery_spans = ["recovery.crash", "server.down", "server.recovering",
                  "reopen", "partition-gap"]
missing = [n for n in recovery_spans if n not in names]
assert not missing, f"recovery spans missing from trace: {missing}"
print(f"recovery smoke: {len(events)} events, all recovery phases spanned")
EOF
  # With no crash schedule the recovery machinery must be invisible: the
  # paper tables are byte-identical with and without the flag machinery
  # compiled in (the --crash-schedule "" spell parses to an empty schedule).
  rec_base="${build_dir}/recovery_smoke_base.txt"
  rec_empty="${build_dir}/recovery_smoke_empty.txt"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 > "${rec_base}"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --crash-schedule "" > "${rec_empty}"
  if ! cmp -s "${rec_base}" "${rec_empty}"; then
    echo "recovery smoke: empty crash schedule perturbed the paper tables" >&2
    diff "${rec_base}" "${rec_empty}" | head -20 >&2
    exit 1
  fi
  echo "recovery smoke: empty schedule is byte-identical"
}

async_smoke() {
  build_dir="$1"
  echo "== ${build_dir}: async transport smoke =="
  async_out="${build_dir}/async_smoke.txt"
  async_json="${build_dir}/async_smoke.json"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --async --metrics --rpc-ledger \
    --trace-out "${async_json}" > "${async_out}"
  for needle in \
      "latency server.0.queue_us" \
      "latency server.1.queue_us" \
      "gauge server.0.queue_depth" \
      "Queue (ms)" \
      "Service (ms)"; do
    if ! grep -qF "${needle}" "${async_out}"; then
      echo "async smoke: '${needle}' missing from ${async_out}" >&2
      exit 1
    fi
  done
  python3 - "${async_json}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
queued = [e for e in events if e.get("ph") == "X" and e["name"] == "rpc.queued"]
assert queued, "no rpc.queued spans in async trace"
assert all(e["dur"] > 0 for e in queued), "rpc.queued span with zero duration"
print(f"async smoke: {len(queued)} rpc.queued spans parsed")
EOF
  # Sync compat: with async off (the default) every table, ledger line, and
  # summary byte matches the committed baseline — the new transport machinery
  # must be invisible until opted into.
  sync_out="${build_dir}/async_smoke_sync.txt"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --rpc-ledger > "${sync_out}"
  if ! cmp -s tools/baselines/sync_tables_u8c4s2m10w2.txt "${sync_out}"; then
    echo "async smoke: sync-mode output diverged from the committed baseline" >&2
    diff tools/baselines/sync_tables_u8c4s2m10w2.txt "${sync_out}" | head -20 >&2
    exit 1
  fi
  echo "async smoke: sync mode matches the committed baseline"
}

sharding_smoke() {
  build_dir="$1"
  echo "== ${build_dir}: sharding smoke =="
  for policy in modulo hash range dir-affinity; do
    shard_out="${build_dir}/sharding_smoke_${policy}.txt"
    "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
      --servers 2 --minutes 10 --warmup 2 \
      --shard-policy "${policy}" --shard-report > "${shard_out}"
    for needle in \
        "== Server sharding report ==" \
        "policy: ${policy}" \
        "Files placed" \
        "skew: files max/mean"; do
      if ! grep -qF "${needle}" "${shard_out}"; then
        echo "sharding smoke: '${needle}' missing from ${shard_out}" >&2
        exit 1
      fi
    done
  done
  # Golden baseline: the default modulo placement (and the report around it)
  # is pinned byte-for-byte — placement changes must be deliberate.
  if ! cmp -s tools/baselines/shard_report_modulo_u8c4s2m10w2.txt \
      "${build_dir}/sharding_smoke_modulo.txt"; then
    echo "sharding smoke: modulo report diverged from the committed baseline" >&2
    diff tools/baselines/shard_report_modulo_u8c4s2m10w2.txt \
      "${build_dir}/sharding_smoke_modulo.txt" | head -20 >&2
    exit 1
  fi
  echo "sharding smoke: all policies report, modulo matches the baseline"
}

determinism_smoke() {
  build_dir="$1"
  echo "== ${build_dir}: determinism hash =="
  det_out="${build_dir}/determinism_smoke.txt"
  det_err="${build_dir}/determinism_smoke.err"
  det_base="tools/baselines/sim_hash_u8c4s2m10w2.txt"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --rpc-ledger \
    > "${det_out}" 2> "${det_err}"
  hash="$(sha256sum "${det_out}" | cut -d' ' -f1)"
  expected_hash="$(grep '^sha256 ' "${det_base}" | cut -d' ' -f2)"
  if [ "${hash}" != "${expected_hash}" ]; then
    echo "determinism smoke: output hash ${hash} != committed ${expected_hash}" >&2
    exit 1
  fi
  dispatched="$(grep -o 'dispatched [0-9]* events' "${det_err}")"
  expected_dispatched="$(grep '^dispatched ' "${det_base}")"
  if [ "${dispatched}" != "${expected_dispatched}" ]; then
    echo "determinism smoke: '${dispatched}' != committed '${expected_dispatched}'" >&2
    exit 1
  fi
  echo "determinism smoke: hash and event count match (${dispatched})"
}

obs_v2_smoke() {
  build_dir="$1"
  echo "== ${build_dir}: observability v2 smoke =="
  # The sharding hot-spot scenario: heavy + async + modulo placement aims
  # every user's simulation input at server 0; the detector must flag it.
  hot_metrics="${build_dir}/obs_v2_hot.metrics"
  hot_out="${build_dir}/obs_v2_hot.txt"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --heavy --async \
    --metrics --critical-path --hotspot-report \
    --metrics-out "${hot_metrics}" > "${hot_out}" 2> /dev/null
  for needle in \
      "# sprite-metrics v2" \
      "window seq=0" \
      "win_p99_us=" \
      "== Critical path" \
      "reconcile rpcs:" \
      "== Hot-spot report ==" \
      "server 0: HOT"; do
    if ! grep -qF "${needle}" "${hot_metrics}"; then
      echo "obs v2 smoke: '${needle}' missing from ${hot_metrics}" >&2
      exit 1
    fi
  done
  if grep -q "MISMATCH" "${hot_metrics}"; then
    echo "obs v2 smoke: critical-path totals do not reconcile with the ledger" >&2
    grep "MISMATCH" "${hot_metrics}" >&2
    exit 1
  fi
  if grep -qE "sprite-metrics|reconcile|Hot-spot" "${hot_out}"; then
    echo "obs v2 smoke: metric streams leaked onto stdout despite --metrics-out" >&2
    exit 1
  fi
  # Same seed, hash placement: the skew dissolves and the detector is quiet.
  quiet_metrics="${build_dir}/obs_v2_quiet.metrics"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --heavy --async --shard-policy hash \
    --hotspot-report --metrics-out "${quiet_metrics}" > /dev/null 2> /dev/null
  if ! grep -qF "no hot spots detected" "${quiet_metrics}"; then
    echo "obs v2 smoke: detector fired under hash placement" >&2
    exit 1
  fi
  # Gauge/counter series render as per-server counter tracks in Perfetto.
  obs_json="${build_dir}/obs_v2_trace.json"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --async --metrics \
    --trace-out "${obs_json}" > /dev/null 2> /dev/null
  python3 - "${obs_json}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
tracks = {}
for e in doc["traceEvents"]:
    if e.get("ph") == "C":
        tracks.setdefault(e["name"], set()).add(e["pid"])
assert tracks.get("rpc.calls") == {9999}, "unprefixed counters must stay on the metrics track"
for s in (0, 1):
    name = f"server.{s}.queue_depth"
    assert tracks.get(name) == {1000 + s}, f"{name} not routed to the server {s} track"
print(f"obs v2 smoke: {len(tracks)} counter tracks, per-server routing OK")
EOF
  # Full observability routed through --metrics-out must leave the paper
  # tables byte-identical to the committed determinism baseline.
  det_full="${build_dir}/obs_v2_det.txt"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --rpc-ledger --metrics \
    --critical-path --hotspot-report \
    --metrics-out "${build_dir}/obs_v2_det.metrics" > "${det_full}" 2> /dev/null
  expected_hash="$(grep '^sha256 ' tools/baselines/sim_hash_u8c4s2m10w2.txt | cut -d' ' -f2)"
  hash="$(sha256sum "${det_full}" | cut -d' ' -f1)"
  if [ "${hash}" != "${expected_hash}" ]; then
    echo "obs v2 smoke: obs-on stdout hash ${hash} != committed ${expected_hash}" >&2
    exit 1
  fi
  echo "obs v2 smoke: verdicts, reconciliation, track routing, and baseline OK"
}

failover_smoke() {
  build_dir="$1"
  echo "== ${build_dir}: failover smoke =="
  fo_out="${build_dir}/failover_smoke.txt"
  fo_json="${build_dir}/failover_smoke.json"
  # One clean single-server crash (fails over), one client crash during the
  # run, and one correlated group that kills a primary together with its
  # backup (degrades to the classic reopen-storm path).
  fo_schedule="crash:0@240+30,ccrash:1@300,crash:0+1@420+20"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --replication --metrics --rpc-ledger \
    --crash-schedule "${fo_schedule}" --trace-out "${fo_json}" > "${fo_out}"
  for needle in \
      "latency recovery.failover_us" \
      "counter recovery.failovers" \
      "gauge server.0.role" \
      "shadow-open" \
      "replication: 1 failover(s)" \
      "1 degraded crash(es)" \
      "dirty preserved by fail-over" \
      "1 client crash(es)"; do
    if ! grep -qF "${needle}" "${fo_out}"; then
      echo "failover smoke: '${needle}' missing from ${fo_out}" >&2
      exit 1
    fi
  done
  python3 - "${fo_json}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
failovers = [e for e in events if e.get("ph") == "X" and e["name"] == "failover"]
assert failovers, "no failover spans in replicated trace"
assert all(e["dur"] > 0 for e in failovers), "failover span with zero duration"
shadow = [e for e in events if e.get("ph") == "X" and e["name"].startswith("shadow-")]
assert shadow, "no shadow RPC spans in replicated trace"
print(f"failover smoke: {len(failovers)} failover span(s), {len(shadow)} shadow spans")
EOF
  # Same seed, same schedule: a replicated faulted run must be reproducible
  # byte for byte, fail-over timing included.
  fo_rerun="${build_dir}/failover_smoke_rerun.txt"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --replication --metrics --rpc-ledger \
    --crash-schedule "${fo_schedule}" > "${fo_rerun}"
  if ! cmp -s "${fo_out}" "${fo_rerun}"; then
    echo "failover smoke: replicated faulted run is not deterministic" >&2
    diff "${fo_out}" "${fo_rerun}" | head -20 >&2
    exit 1
  fi
  # Replication off (the default): no shadow or failover instrument may
  # register — the metrics block and ledger must not mention them, keeping
  # the committed baselines byte-identical (determinism_smoke pins the hash).
  fo_off="${build_dir}/failover_smoke_off.txt"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --metrics --rpc-ledger > "${fo_off}"
  if grep -qE "shadow-|failover|server\.[0-9]+\.role" "${fo_off}"; then
    echo "failover smoke: replication machinery leaked into off-mode output" >&2
    grep -nE "shadow-|failover|server\.[0-9]+\.role" "${fo_off}" | head -5 >&2
    exit 1
  fi
  echo "failover smoke: fail-over, degraded path, determinism, and off-mode OK"
}

batching_smoke() {
  build_dir="$1"
  echo "== ${build_dir}: batching smoke =="
  bt_out="${build_dir}/batching_smoke.txt"
  bt_metrics="${build_dir}/batching_smoke_metrics.txt"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --honest-wire --rpc-batching \
    --net-contention --net-loss 0.02 --rpc-ledger --critical-path --metrics \
    --metrics-out "${bt_metrics}" > "${bt_out}"
  for needle in \
      "== Wire (honest wire / contention) ==" \
      "wire exchanges:" \
      "batched" \
      "contention:" \
      "retransmit(s)"; do
    if ! grep -qF "${needle}" "${bt_out}"; then
      echo "batching smoke: '${needle}' missing from ${bt_out}" >&2
      exit 1
    fi
  done
  # The coalesced exchanges land on their own ledger row.
  if ! grep -qE "^batch " "${bt_out}"; then
    echo "batching smoke: no kBatch row in the RPC ledger" >&2
    exit 1
  fi
  for needle in \
      "gauge wire.batched_ops" \
      "gauge wire.batches" \
      "gauge net.retransmits" \
      "latency net.link.0.queued_us" \
      "latency net.link.1.queued_us"; do
    if ! grep -qF "${needle}" "${bt_metrics}"; then
      echo "batching smoke: '${needle}' missing from ${bt_metrics}" >&2
      exit 1
    fi
  done
  # Batch flushes feed the critical path the same terms they charge to the
  # ledger, so the reconciliation must stay microsecond-exact.
  if grep -q "MISMATCH" "${bt_metrics}"; then
    echo "batching smoke: critical path does not reconcile under batching" >&2
    grep -n "MISMATCH" "${bt_metrics}" | head -5 >&2
    exit 1
  fi
  if ! grep -q "reconcile wire_us: .* OK" "${bt_metrics}"; then
    echo "batching smoke: critical-path wire reconciliation line missing" >&2
    exit 1
  fi
  # Honest wire without batching: the piggyback window must absorb some
  # control ops and charge the rest.
  bt_honest="${build_dir}/batching_smoke_honest.txt"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --honest-wire --rpc-ledger \
    > "${bt_honest}"
  if ! grep -qE "wire: [1-9][0-9]* piggybacked, [1-9][0-9]* charged control" \
      "${bt_honest}"; then
    echo "batching smoke: honest-wire run shows no piggybacked/charged ops" >&2
    exit 1
  fi
  # Same seed, same flags: the contended batched run must be reproducible
  # byte for byte, loss and queueing included.
  bt_rerun="${build_dir}/batching_smoke_rerun.txt"
  bt_rerun_metrics="${build_dir}/batching_smoke_rerun_metrics.txt"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --honest-wire --rpc-batching \
    --net-contention --net-loss 0.02 --rpc-ledger --critical-path --metrics \
    --metrics-out "${bt_rerun_metrics}" > "${bt_rerun}"
  if ! cmp -s "${bt_out}" "${bt_rerun}" || \
     ! cmp -s "${bt_metrics}" "${bt_rerun_metrics}"; then
    echo "batching smoke: contended batched run is not deterministic" >&2
    diff "${bt_out}" "${bt_rerun}" | head -20 >&2
    diff "${bt_metrics}" "${bt_rerun_metrics}" | head -20 >&2
    exit 1
  fi
  # All wire flags off: the paper tables must stay byte-identical to the
  # committed sync baseline — the honest-wire machinery may not perturb the
  # default path by a single byte.
  bt_off="${build_dir}/batching_smoke_off.txt"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --rpc-ledger > "${bt_off}"
  if ! cmp -s "${bt_off}" tools/baselines/sync_tables_u8c4s2m10w2.txt; then
    echo "batching smoke: off-mode output diverged from the committed baseline" >&2
    diff "${bt_off}" tools/baselines/sync_tables_u8c4s2m10w2.txt | head -20 >&2
    exit 1
  fi
  echo "batching smoke: wire summary, reconciliation, determinism, and off-mode OK"
}

rebalance_smoke() {
  build_dir="$1"
  echo "== ${build_dir}: rebalance smoke =="
  rb_out="${build_dir}/rebalance_smoke.txt"
  rb_metrics="${build_dir}/rebalance_smoke.metrics"
  rb_json="${build_dir}/rebalance_smoke.json"
  # The modulo hot-spot scenario with the rebalancer armed: the detector's
  # episode must trigger a migration burst and the burst must dissolve it.
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --heavy --async --rebalance \
    --metrics --rpc-ledger --metrics-out "${rb_metrics}" \
    --trace-out "${rb_json}" > "${rb_out}" 2> /dev/null
  for needle in \
      "gauge rebalance.migrations" \
      "gauge rebalance.moved_bytes" \
      "== Rebalance report ==" \
      "hot-spot migrations:" \
      "hot spot dissolved" \
      "hot spots dissolved: 1/1 bursts" \
      "migration RPCs:"; do
    if ! grep -qF "${needle}" "${rb_metrics}"; then
      echo "rebalance smoke: '${needle}' missing from ${rb_metrics}" >&2
      exit 1
    fi
  done
  # The burst's wire traffic lands on the migrate ledger rows.
  if ! grep -qE "^migrate-state " "${rb_out}"; then
    echo "rebalance smoke: no migrate-state row in the RPC ledger" >&2
    exit 1
  fi
  python3 - "${rb_json}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
moves = [e for e in events if e.get("ph") == "X" and e["name"] == "migrate"]
assert moves, "no migrate spans in rebalanced trace"
assert all(e.get("cat") == "rebalance" for e in moves), "migrate span off the rebalance track"
assert all(e["dur"] > 0 for e in moves), "migrate span with zero duration"
print(f"rebalance smoke: {len(moves)} migrate span(s) on the rebalance track")
EOF
  # Same seed, same flags: migrations included, the run must reproduce byte
  # for byte on stdout and the metrics stream.
  rb_rerun="${build_dir}/rebalance_smoke_rerun.txt"
  rb_rerun_metrics="${build_dir}/rebalance_smoke_rerun.metrics"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --heavy --async --rebalance \
    --metrics --rpc-ledger --metrics-out "${rb_rerun_metrics}" \
    > "${rb_rerun}" 2> /dev/null
  if ! cmp -s "${rb_out}" "${rb_rerun}" || \
     ! cmp -s "${rb_metrics}" "${rb_rerun_metrics}"; then
    echo "rebalance smoke: rebalanced run is not deterministic" >&2
    diff "${rb_out}" "${rb_rerun}" | head -20 >&2
    diff "${rb_metrics}" "${rb_rerun_metrics}" | head -20 >&2
    exit 1
  fi
  # Off mode (the default): no rebalance instrument, report, or migrate
  # ledger row may appear anywhere — the committed baselines stay
  # byte-identical (determinism_smoke and obs_v2_smoke pin the hashes).
  rb_off="${build_dir}/rebalance_smoke_off.txt"
  rb_off_metrics="${build_dir}/rebalance_smoke_off.metrics"
  "${build_dir}/tools/sprite_analyze" --simulate --users 8 --clients 4 \
    --servers 2 --minutes 10 --warmup 2 --heavy --async \
    --metrics --rpc-ledger --metrics-out "${rb_off_metrics}" \
    > "${rb_off}" 2> /dev/null
  if grep -qE "rebalance\.|migrate-(state|dirty|commit)|Rebalance report" \
      "${rb_off}" "${rb_off_metrics}"; then
    echo "rebalance smoke: rebalance machinery leaked into off-mode output" >&2
    grep -nE "rebalance\.|migrate-(state|dirty|commit)|Rebalance report" \
      "${rb_off}" "${rb_off_metrics}" | head -5 >&2
    exit 1
  fi
  echo "rebalance smoke: burst, dissolution, spans, determinism, and off-mode OK"
}

randomized_sweep() {
  build_dir="$1"
  echo "== ${build_dir}: randomized-test determinism sweep =="
  # Re-runs the seeded randomized suites (property churn sequences and the
  # same-seed cluster runs) as their own stage under the sanitizers; any
  # nondeterminism or sanitizer report fails the pass.
  ctest --test-dir "${build_dir}" --output-on-failure --repeat until-pass:1 \
    -R "RebalanceSequenceProperty|PlacementChurnProperty|ShadowConservationProperty|SameSeedRebalancedRuns|Deterministic"
}

perf_gate() {
  build_dir="build-release"
  echo "== ${build_dir}: perf gate =="
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}" -j "${jobs}"
  if [ ! -x "${build_dir}/bench/micro_perf" ]; then
    echo "perf gate: google-benchmark not installed; skipping"
    return 0
  fi
  python3 tools/bench_trajectory.py check --bin "${build_dir}/bench/micro_perf" \
    --min-time 0.5 --threshold 0.10
}

run_pass() {
  build_dir="$1"
  shift
  echo "== ${build_dir}: cmake $* =="
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j "${jobs}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
  metrics_smoke "${build_dir}"
  recovery_smoke "${build_dir}"
  async_smoke "${build_dir}"
  sharding_smoke "${build_dir}"
  determinism_smoke "${build_dir}"
  obs_v2_smoke "${build_dir}"
  failover_smoke "${build_dir}"
  batching_smoke "${build_dir}"
  rebalance_smoke "${build_dir}"
  case "${build_dir}" in
    *sanitize*) randomized_sweep "${build_dir}" ;;
  esac
}

mode="${1:-all}"
case "${mode}" in
  all|--plain-only|--sanitize-only) ;;
  *)
    echo "usage: tools/check.sh [--plain-only|--sanitize-only]" >&2
    exit 2
    ;;
esac

if [ "${mode}" != "--sanitize-only" ]; then
  run_pass build
  perf_gate
fi
if [ "${mode}" != "--plain-only" ]; then
  run_pass build-sanitize "-DSPRITE_SANITIZE=address;undefined"
fi

echo "check.sh: all requested passes OK"
