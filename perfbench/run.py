#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/CMakeLists.txt: the program's
libraries from src/ plus the ptbench driver) into .bench_build/perfbench of
the checkout, runs one workload in one process at nproc/2 OpenMP threads and
prints the driver's result object as the last line of standard output.
Traced runs also leave .bench_out/<workload>-seed<N>/trace.json (Chrome
trace_event) and layers.json there.

Exits 1 without printing a result when the build or the run fails.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sinker_solve", "sinker_steps", "rifting_steps")
RUN_TIMEOUT_S = 175


def build(threads):
    """Configure once, then an incremental build of the driver target."""
    os.makedirs(BUILD, exist_ok=True)
    with open(BUILD + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", PACKAGE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return None
        # A parallel build that fails (a compiler killed for memory, say) is
        # resumed once with one job.
        for jobs in (threads, 1):
            cmd = ["cmake", "--build", BUILD, "--target", "ptbench",
                   "-j", str(jobs)]
            if subprocess.run(cmd, stdout=sys.stderr).returncode == 0:
                break
        else:
            return None
    return os.path.join(BUILD, "ptbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    cpus = len(os.sched_getaffinity(0))
    binary = build(cpus)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(ROOT, ".bench_out",
                           "%s-seed%d" % (a.workload, a.seed))
    # Half the CPUs: at one thread per CPU of a shared host every barrier
    # waits for the slowest CPU, and runs minutes apart differ by a quarter.
    threads = max(1, cpus // 2)
    env = dict(os.environ, OMP_NUM_THREADS=str(threads))
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--out", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, _ = proc.communicate()
        sys.stderr.write(stdout[-4000:])
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("".join(l + "\n" for l in lines[-20:]))
        print("perfbench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
