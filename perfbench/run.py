#!/usr/bin/env python3
"""Build sparktune's benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        [--expect-digest <hex>]
    python3 perfbench/run.py --selftest

Run from the root of a sparktune checkout. The build goes to the directory
named by CARGO_TARGET_DIR, or to .bench_build; the workload's sockets,
repositories and span files go under that directory too. The last line of
standard output is the run's result as one JSON object. The exit status is
0 only when the build succeeded and every output check of the run passed.

--selftest builds the benchmark's own tests and runs them with ctest.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir, targets, tests=False):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if tests:
        configure.append("-DPERFBENCH_TESTS=ON")
    steps = []
    if tests or not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(configure)
    jobs = str(os.cpu_count() or 1)
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_bounded(cmd, cwd):
    """Runs `cmd` in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s; killed", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def selftest(out_dir):
    if not build(out_dir, ["perfbench_test", "sparktune_lint"], tests=True):
        return 1
    return subprocess.run(["ctest", "--test-dir", out_dir,
                           "--output-on-failure"]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--expect-digest")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    if args.selftest:
        return selftest(out_dir)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build(out_dir, ["perfbench", "sparktune_shardd"]):
        print("run.py: build failed", file=sys.stderr)
        return 1

    # Paths relative to the checkout root keep Unix socket paths short.
    rel = os.path.relpath(out_dir, ROOT)
    cmd = [os.path.join(out_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(rel, "work")]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(rel, f"trace-{args.workload}-{args.seed}.json")]
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    code, out = run_bounded(cmd, ROOT)
    lines = out.rstrip("\n").splitlines()
    if not lines:
        return code or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    print("\n".join(lines))
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("run.py: the last line is not a result object", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
