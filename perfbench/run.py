#!/usr/bin/env python3
"""One benchmark run: build the daemons and the load generator, then drive one workload.

    python3 perfbench/run.py --workload zipf-read --seed 1 --seconds 25 --trace 0

`--workload all` runs the three workloads one after another.

Builds perfbench/ (the daemons and perfbench_loadgen, from this checkout's
sources) into .bench_build/ at the repository root, then runs the load generator
with a hard deadline in its own process group, so every process it started
is gone when this script returns. Human-readable lines come first; the last
line of standard output is the result JSON. Without a result (bad input,
build failure, a failed run) the exit code is nonzero and no JSON is printed.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "perfbench")
RESULTS = os.path.join(BUILD, "results")
TMP = os.path.join(BUILD, "tmp")
# Load generator budget per workload, leaving room to reap within 180 s.
DEADLINE_S = 170.0
BUILD_DEADLINE_S = 880.0
WORKLOADS = ("zipf-read", "tail-read", "overwrite-mix")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources at {ROOT} (perfbench/ builds ../src and ../tools)")
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(os.cpu_count() or 1)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_loadgen", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_DEADLINE_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run_loadgen(args, deadline):
    os.makedirs(RESULTS, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP)
    cmd = [os.path.join(BUILD_DIR, "perfbench_loadgen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bindir", os.path.join(BUILD_DIR, "spcache_tools"),
           "--out", RESULTS, "--tmp", tmp]
    env = dict(os.environ, TMPDIR=tmp)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)

    def stop(signum, _frame):
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        raise KeyboardInterrupt(signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.TimeoutExpired, KeyboardInterrupt) as e:
        print(f"perfbench: load generator stopped ({type(e).__name__}); logs kept in {tmp}",
              file=sys.stderr)
        out = None
    finally:
        for s, h in old.items():
            signal.signal(s, h)
        # The load generator reaps its daemons; this catches anything left in its
        # process group after a crash or a timeout.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None or proc.returncode != 0:
        if out:
            sys.stdout.write(out)
        fail(f"load generator exited with {proc.returncode}; logs kept in {tmp}")
    shutil.rmtree(tmp, ignore_errors=True)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    build()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        out = run_loadgen(args, time.monotonic() + DEADLINE_S)
        lines = out.rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                           "metrics"}:
            sys.stdout.write(out)
            fail("load generator printed no result line")
        print("\n".join(lines[:-1]))
        print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
