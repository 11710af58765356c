#!/usr/bin/env bash
# One-shot verification gate: configure + build + ctest for the default
# config and the UBSan config, the benchmark's self-test, plus an isolated
# run of the lint label. Exits non-zero on the first failure.
#
# Usage: tools/check.sh [--all] [extra ctest args...]
#
#   --all   additionally run the slow sanitizer matrix: ThreadSanitizer
#           (build-tsan) and combined ASan+UBSan (build-asan-ubsan). The
#           default set is unchanged, so CI latency stays where it was.
#
# Build dirs follow the build-<san> convention (README "Build & test"):
#   build (default), build-tsan, build-asan, build-ubsan, build-asan-ubsan.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)

ALL=0
if [[ "${1:-}" == "--all" ]]; then
  ALL=1
  shift
fi

run_config() {
  local dir="$1" sanitize="$2"
  shift 2
  echo "==> [$dir] configure (SPARKTUNE_SANITIZE='$sanitize')"
  cmake -B "$dir" -S . -DSPARKTUNE_SANITIZE="$sanitize" > /dev/null
  echo "==> [$dir] build"
  cmake --build "$dir" -j "$JOBS" > /dev/null
  echo "==> [$dir] ctest"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" "$@"
}

# Lint first, fail fast: a policy violation should surface in seconds,
# before any sanitizer build spends minutes. Builds only the linter, runs
# the two-phase pass over the tree, and drops a SARIF artifact for
# annotation-consuming CI frontends.
echo "==> [build] sparktune_lint (fail-fast policy gate + lint.sarif)"
cmake -B build -S . > /dev/null
cmake --build build -j "$JOBS" --target sparktune_lint > /dev/null
./build/tools/sparktune_lint --root .
./build/tools/sparktune_lint --root . --format=sarif --out=build/lint.sarif
echo "    sarif artifact: build/lint.sarif"

run_config build "" "$@"
run_config build-ubsan undefined "$@"

# Multi-process smoke: spawn the control plane + 2 shardd workers over
# real sockets, SIGKILL one mid-run, and verify every delivered slot
# against an undisturbed in-process oracle (--verify=1 is the default).
# Runs on the default build and, with --all, again under ASan+UBSan so
# the fork/exec + recovery path is sanitizer-clean. Each smoke starts
# from an empty repository: the oracle runs with none, and a previous
# run's harvested records would steer the restarted shard off it.
rpc_smoke() {
  local dir="$1"
  rm -rf "$dir/rpc-smoke-repo"
  echo "==> [$dir] sparktune_service multi-process smoke (kill + recover + verify)"
  "./$dir/tools/sparktune_service" \
    --shardd="./$dir/tools/sparktune_shardd" \
    --sockdir="$dir/rpc-smoke-socks" --repo="$dir/rpc-smoke-repo" \
    --shards=2 --tasks=4 --ticks=7 --kill-tick=3 --restart-tick=5 \
    --budget=4 --verify=1
}
# Self-healing smoke: deterministic wire chaos on both directions, a
# worker SIGKILL healed by the heartbeat auto-restart (no manual
# --restart-tick), and a supervisor SIGKILL (--crash-tick) recovered from
# the manifest — still verified slot-for-slot against the oracle.
rpc_smoke_chaos() {
  local dir="$1"
  rm -rf "$dir/rpc-chaos-repo"
  echo "==> [$dir] sparktune_service self-healing smoke (chaos + crash + autoheal + verify)"
  "./$dir/tools/sparktune_service" \
    --shardd="./$dir/tools/sparktune_shardd" \
    --sockdir="$dir/rpc-chaos-socks" --repo="$dir/rpc-chaos-repo" \
    --shards=2 --tasks=4 --ticks=10 --kill-tick=3 --restart-tick=0 \
    --crash-tick=6 --autoheal=1 --chaos_seed=7 --chaos_prob=0.05 \
    --chaos_arm=12 --budget=4 --verify=1
}
rpc_smoke build
rpc_smoke_chaos build

# The benchmark builds the library from this checkout as a project of its
# own (perfbench/CMakeLists.txt). Building it and running its own tests
# here makes a library change the benchmark still relies on fail this
# gate instead of the benchmark run.
echo "==> [build/perfbench] perfbench/run.py --selftest"
CARGO_TARGET_DIR=build/perfbench python3 perfbench/run.py --selftest

# The benchmark's seed-101 trajectories, by digest (about 10 s): a change
# that moves a tuning trajectory fails this gate, not only the benchmark.
echo "==> [build/perfbench] seed-101 trajectory digests (bo_tuning, transfer)"
CARGO_TARGET_DIR=build/perfbench python3 perfbench/run.py \
  --workload bo_tuning --seed 101 --seconds 1 --trace 0 \
  --expect-digest ff406444d1c43617
CARGO_TARGET_DIR=build/perfbench python3 perfbench/run.py \
  --workload transfer --seed 101 --seconds 1 --trace 0 \
  --expect-digest 645be31132394610

if [[ "$ALL" -eq 1 ]]; then
  run_config build-tsan thread "$@"
  run_config build-asan-ubsan address,undefined "$@"
  # Isolated stress pass: the fault-injected batch, checkpoint recovery,
  # and the SIGKILL and self-healing runs over real worker processes
  # (rpc_test, chaos_net_test) again, by label, under the full sanitizer
  # matrix.
  for dir in build build-ubsan build-tsan build-asan-ubsan; do
    echo "==> [$dir] ctest -L stress (chaos/fault stress label)"
    ctest --test-dir "$dir" --output-on-failure -L stress
  done
  rpc_smoke build-asan-ubsan
  rpc_smoke_chaos build-asan-ubsan
  # Isolated chaos-net pass: the self-healing control-plane suite
  # (ChaosChannel typing, health machine, fencing, crash recovery) by
  # label on the default build and under ASan+UBSan.
  for dir in build build-asan-ubsan; do
    echo "==> [$dir] ctest -L chaos-net (self-healing control plane)"
    ctest --test-dir "$dir" --output-on-failure -L chaos-net
  done
  # Fleet-scale throughput/memory snapshot (no sanitizer: real numbers).
  # Emits build/BENCH_fleet.json and enforces the fleet memory budget.
  echo "==> [build] bench_fleet (BENCH_fleet.json + RSS budget)"
  ./build/bench/bench_fleet --tasks=20000 --ticks=3 --threads="$JOBS" \
    --harvest_per_tick=64 --max_rss_mb=2048 --out=build/BENCH_fleet.json
fi

# Bit-equality self-check of the micro-benchmark harness on ragged sizes:
# every optimized path re-verified against its reference — the linalg
# kernels (upper_solve, syrk_factor), batched inference (kernel_batch and
# kernel_pool, the kernel values from training rows conditioned on a probe
# span and on a sub-space against per-pair Eval; gp_predict,
# meta_predict, forest_predict), and the acquisition scorer against the
# scorer before conditioned rows with a safe candidate (acq_score) and
# against the hook wiring with none (acq_fallback). It runs under UBSan
# too, for the conditioned rows' pointer and cursor arithmetic at ragged
# sizes.
for dir in build build-ubsan; do
  echo "==> [$dir] bench_kernels --self_check=1 (bit-equality, 9 rows)"
  "./$dir/bench/bench_kernels" --self_check=1 \
    --out="$dir/BENCH_kernels_selfcheck.json"
done

echo "==> [build] ctest -L lint (isolated lint label)"
ctest --test-dir build --output-on-failure -L lint

echo "check.sh: all configs green"
