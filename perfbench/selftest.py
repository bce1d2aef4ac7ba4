#!/usr/bin/env python3
"""Self-test of the benchmark's correctness check.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload, a tiny run (--tiny: a few distinct ops) must report
error_rate 0. The same run with --flip-expected, which flips one byte of
every reference output the benchmark compares against, must report
error_rate > 0: the check can fire. Exits 0 when all eight runs behave.
"""
import argparse
import json
import sys

import run


def tiny_run(workload, flip):
    args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=0)
    extra = ["--tiny"] + (["--flip-expected"] if flip else [])
    code, lines = run.run_harness(args, extra)
    if code != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    run.build()
    run.require_release()
    ok = True
    for workload in run.WORKLOADS:
        for flip in (False, True):
            result = tiny_run(workload, flip)
            if result is None:
                verdict, rate = False, "harness failed"
            else:
                rate = result["metrics"]["error_rate"]["value"]
                verdict = rate > 0 if flip else (rate == 0 and result["correct"])
            ok = ok and verdict
            print("%-4s %-18s flip=%d error_rate=%s" %
                  ("ok" if verdict else "FAIL", workload, flip, rate))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
