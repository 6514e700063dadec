#!/usr/bin/env python3
"""Build the GridRM end-to-end benchmark and run its workloads.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first run configures and builds the
repository's libraries and the benchmark, optimised, under
.bench_build/perfbench; later runs rebuild only what changed. Every run
then executes the tests of the benchmark's own checks and the requested
workload, each in its own process under a time limit, so a hang fails
the run and names the workload instead of stalling it.

With --workload the last line of standard output is the workload's JSON
result: {"correct", "attempted", "failed", "metrics"}. Without it, all
three workloads run in turn and each result is printed with its name.
The traced run (--trace 1) writes spans and a per-layer self-time table
to .bench_build/perfbench/trace/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(BUILD, "trace")
WORKLOADS = ("site-dashboard", "site-harvest", "grid-federation")
BUILD_TIMEOUT_S = 840
# A workload runs for --seconds plus its set-ups and checks; anything
# beyond this margin is a hang.
WORKLOAD_MARGIN_S = 90
SELFTEST_TIMEOUT_S = 60


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout, what):
    """Run a build step with its output on stderr, killing it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        fail("%s did not finish within %d s" % (what, timeout))
    if code != 0:
        fail("%s failed with exit code %d" % (what, code))


def stop(proc):
    """Kill a child's whole process group and wait until it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def build():
    for needed in ("src/CMakeLists.txt", "include/gridrm"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from a full checkout of the repository" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD_TIMEOUT_S, "configure")
    run_logged(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S, "build")
    run_logged([os.path.join(BUILD, "perfbench_checks_test")], SELFTEST_TIMEOUT_S,
               "tests of the benchmark's checks")
    os.makedirs(TRACE_DIR, exist_ok=True)


def run_workload(name, seed, seconds, trace):
    """Run one workload in its own process; return its parsed result."""
    cmd = [os.path.join(BUILD, "gridrm_perfbench"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", TRACE_DIR]
    limit = seconds + WORKLOAD_MARGIN_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        stop(proc)
        fail("workload %s hung: no result within %d s" % (name, limit), 3)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("workload %s exited with code %d and no result" % (name, proc.returncode))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("workload %s printed a malformed result" % name)
    if proc.returncode != 0 and result.get("correct", False):
        fail("workload %s exited with code %d" % (name, proc.returncode))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    build()
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace == 1)
        ok = ok and result["correct"]
        if args.workload:
            print(json.dumps(result))
        else:
            print("%s: attempted %d, failed %d, correct %s" %
                  (name, result["attempted"], result["failed"], result["correct"]))
            for metric, m in result["metrics"].items():
                print("  %-40s %16.6g %s" % (metric, m["value"], m["unit"]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
