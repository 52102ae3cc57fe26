#!/bin/sh
# Runs the tier-1 verify (configure, build, ctest) twice: once plain and once
# with ASan+UBSan via the SPRITE_SANITIZE cache option. Each pass uses its own
# build directory so the instrumented objects never mix with the normal ones.
# ctest includes the CliSmoke.* cases (label "smoke", tests/cli/smoke.py),
# which run sprite_analyze and sprite_tracegen end to end against the golden
# baselines in tools/baselines/. The sanitize pass then re-runs the seeded
# randomized suites three times each as a determinism sweep.
# Finally (plain mode only) a perf gate builds a Release tree and runs the
# BM_SimulateCluster trajectory via tools/bench_trajectory.py check: a >10%
# rise in wall-clock ms per simulated hour against the newest committed
# BENCH_sim_*.json entry fails the build. Skipped gracefully when
# google-benchmark is not installed.
#
# Usage: tools/check.sh [--plain-only|--sanitize-only]
set -eu

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 4)"

randomized_sweep() {
  build_dir="$1"
  echo "== ${build_dir}: randomized-test determinism sweep =="
  # Property churn sequences and same-seed cluster runs, under the
  # sanitizers: any nondeterminism or sanitizer report fails the pass.
  ctest --test-dir "${build_dir}" --output-on-failure --repeat until-fail:3 \
    -R "RebalanceSequenceProperty|PlacementChurnProperty|ShadowConservationProperty|WriteSharingProperty|SpanLogProperty|QueueDepthProperty|BlockIndexProperty|VmWorkingSetProperty|SameSeedRebalancedRuns|SameSeedRunsProduceIdenticalStreams|Deterministic"
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
