#!/usr/bin/env python3
"""The om64 end-to-end benchmark command.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload spec-paper|mega-edit|chain-analysis \
        --seed N --seconds S --trace 0|1 [--megagen-seed N]

Builds perfbench (a CMake project in this directory, compiled against the
om64 libraries under src/) into .bench_build/perfbench, then runs one
workload in a fresh process. The last line of standard output is one JSON
object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

A traced run also writes a Chrome trace (.bench_build/perfbench/traces/)
and prints its own end-to-end values next to those of the last untraced
run of the same workload and seeds, so the overhead of tracing shows.

Exits 2 without a result line when the build fails (for instance in a
directory that does not hold the om64 sources), and with the benchmark's
exit code otherwise (1 when an operation failed or an output was wrong).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("spec-paper", "mega-edit", "chain-analysis")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "perfbench")


def result_path(args):
    return os.path.join(BUILD, "results", "%s-seed%d-mg%d.json" %
                        (args.workload, args.seed, args.megagen_seed))


def print_overhead(args, traced):
    """Prints traced end-to-end values beside the untraced ones."""
    try:
        with open(result_path(args)) as f:
            untraced = json.load(f)["metrics"]
    except (OSError, ValueError, KeyError):
        untraced = {}
    print("end-to-end values, traced vs untraced (same workload and seeds)")
    print("  %-16s %16s %16s %8s" % ("metric", "traced", "untraced", "diff"))
    for name, m in traced.items():
        u = untraced.get(name, {}).get("value")
        diff = ("%+7.1f%%" % (100.0 * (m["value"] - u) / u)) if u else "      -"
        print("  %-16s %16.6g %16s %8s %s" % (
            name, m["value"], "%.6g" % u if u is not None else "(no run)",
            diff, m["unit"]))
    print()


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1,
                   help="edit-stream seed (spec-paper: also program order)")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--megagen-seed", type=int, default=1)
    p.add_argument("--plant", action="append", default=[],
                   help="plant a fault (self-test; see README.md)")
    args = p.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_out = os.path.join(BUILD, "traces", "%s-seed%d.json" %
                             (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--megagen-seed", str(args.megagen_seed), "--trace-out", trace_out]
    for fault in args.plant:
        cmd += ["--plant", fault]
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    result_line = lines[-1] if lines else ""
    for line in lines[:-1]:
        if args.trace and line.startswith("traced-e2e "):
            print_overhead(args, json.loads(line[len("traced-e2e "):]))
        else:
            print(line)
    if proc.returncode == 0 and not args.trace and not args.plant:
        os.makedirs(os.path.dirname(result_path(args)), exist_ok=True)
        with open(result_path(args), "w") as f:
            f.write(result_line + "\n")
    print(result_line, flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
