#!/usr/bin/env python3
"""Builds and runs the NEC serving benchmark.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --selfcheck

Run from the repository root. The first call configures and builds the
benchmark (servebench/CMakeLists.txt: the repo's libraries, necd and the
servebench binary) into .bench_build/; later calls rebuild incrementally.
The last line of stdout is the run's result object. --selfcheck runs every
workload briefly, traced and untraced, with every output check on, and
exits non-zero unless all of them pass.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("inproc_saturated", "fleet_paced", "fleet_churn")


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the repository sources are not next to servebench/; "
             "run from the root of a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "servebench",
                  "necd", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (full log in %s)" % log_path)


def run_timeout_s(seconds):
    """A bound on one run: warm-ups and set-ups, the measured window, and
    the reference replay and checks, which grow with the chunks served
    (about 44 s in all for inproc_saturated at 15 s on 4 cores)."""
    return 100 + 4 * seconds


def run_once(workload, seed, seconds, trace):
    """Runs one measurement; returns (exit code, stdout text)."""
    out_dir = os.path.join(BUILD, "runs", "%s-%d-%d" % (workload, seed, trace))
    cmd = [os.path.join(BUILD, "servebench"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", str(trace),
           "--necd", os.path.join(BUILD, "nec", "examples", "necd"),
           "--out-dir", out_dir]
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=run_timeout_s(seconds), text=True)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        sys.stdout.write(out if isinstance(out, str) else out.decode())
        print("servebench: run timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def selfcheck():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    # Every workload, also inproc_saturated, which BENCHMARK.json leaves
    # out as too unsteady to gate (see README.md).
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, stdout = run_once(workload, 7, 3, trace)
            result = result_of(stdout)
            problems = []
            if code != 0 or result is None:
                problems.append("exit %d, no result line" % code)
            else:
                if result["correct"] is not True:
                    problems.append("output checks failed")
                if result["failed"] != 0:
                    problems.append("%d failed operations" % result["failed"])
                for metric in spec[key]:
                    got = result["metrics"].get(metric["name"])
                    if got is None or not got["value"] > 0 or \
                            got["unit"] != metric["unit"]:
                        problems.append("metric %s: %r" % (metric["name"], got))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("selfcheck %-17s trace=%d %s" % (workload, trace, status))
            ok = ok and not problems
    print("selfcheck %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    build()
    if args.selfcheck:
        return selfcheck()
    code, stdout = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if code == 0 and result_of(stdout) is None:
        print("servebench: no result line", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
