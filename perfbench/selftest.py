#!/usr/bin/env python3
"""Proves that perfbench's oracles catch faults.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [--workload NAME]...

For each workload, runs perfbench once clean (it must pass) and once per
planted fault (each must fail: a nonzero exit and a result line that is
not correct or counts a failed operation). A planted fault is a wrong
reference or one changed byte, injected on the reference side of a check:

  interp-exit       a flipped lang::interpret exit code      (spec-paper)
  interp-output     one changed byte of interpreter output   (spec-paper)
  census            megagen instruction census off by one    (mega, chain)
  ref-hash          a changed reference memory hash          (mega, chain)
  cold-relink-byte  one changed byte in a cold omlinkd image (all)
  warm-byte         one changed byte in a warm omlinkd image (all)
  jobs-byte         one changed byte in the -j1 image        (spec, mega)

Each run is one measured round (--seconds 1).
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

FAULTS = {
    "spec-paper": ["interp-exit", "interp-output", "cold-relink-byte",
                   "warm-byte", "jobs-byte"],
    "mega-edit": ["census", "ref-hash", "cold-relink-byte", "warm-byte",
                  "jobs-byte"],
    "chain-analysis": ["census", "ref-hash", "cold-relink-byte",
                       "warm-byte"],
}


def run(workload, fault):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    if fault:
        cmd += ["--plant", fault]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return proc, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(FAULTS))
    args = p.parse_args()
    ok = True
    for workload in args.workload or list(FAULTS):
        proc, result = run(workload, None)
        clean = (proc.returncode == 0 and result is not None
                 and result["correct"] and result["failed"] == 0)
        print("%-15s %-17s %s" % (workload, "(none)",
                                  "passes" if clean else "FAILED"))
        if not clean:
            sys.stderr.write(proc.stderr[-2000:])
            ok = False
        for fault in FAULTS[workload]:
            proc, result = run(workload, fault)
            caught = (proc.returncode != 0 and result is not None
                      and (not result["correct"] or result["failed"] > 0))
            why = proc.stderr.strip().split("\n")[-1] if proc.stderr else ""
            print("%-15s %-17s %s  %s" % (
                workload, fault, "caught" if caught else "NOT CAUGHT", why))
            ok = ok and caught
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
