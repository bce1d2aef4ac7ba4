#!/usr/bin/env python3
"""Builds the perfbench harness and runs one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The harness is compiled from perfbench/CMakeLists.txt (Release, asserts off)
into .bench_build/perfbench, which reuses the simulator sources under src/.
The report of the harness is passed through; its last line is one JSON
object whose metrics are exactly the end_to_end (--trace 0) or per_layer
(--trace 1) metrics that BENCHMARK.json lists.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("analytic_campaign", "cosim_single", "cosim_multi", "fuzz")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, stdout, env=None):
    """Runs `cmd` in its own process group and returns (exit code, output).
    On timeout the whole group (a build's compilers too) is killed and
    reaped before failing."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails on non-zero exit.
    The compiler's temporary files go to the build tree, not /tmp."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    code, _ = run_group(cmd, timeout, sys.stderr, dict(os.environ, TMPDIR=tmp))
    if code != 0:
        fail("failed (exit %d): %s" % (code, " ".join(cmd)))


def build():
    """Configures (once) and builds the harness in a Release tree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under %s/src" % ROOT)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
                fail("%s is not a Release build tree" % BUILD_DIR)
    else:
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)


def require_release():
    """Refuses numbers from anything but an optimised, assert-free build,
    the same test scripts/release_guard.sh applies to the repo's benches."""
    info = subprocess.run([BINARY, "--build-info"], capture_output=True,
                          text=True, timeout=60, check=False)
    text = info.stdout.strip()
    if info.returncode != 0 or "build_type=Release" not in text \
            or "asserts=off" not in text:
        fail("refusing to report numbers from a non-Release binary: %r" % text)
    return text


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def run_harness(args, extra=()):
    """Runs the built harness; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run_group(cmd + list(extra), RUN_TIMEOUT_S, subprocess.PIPE)
    return code, out.splitlines()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in 1..120")
    return args


def main(argv):
    args = parse_args(argv)
    wanted = listed_metrics(args.trace)
    build()
    print("perfbench: " + require_release())
    code, lines = run_harness(args)
    if code != 0 or not lines:
        fail("harness exited with %d" % code)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        fail("harness did not report: " + ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
