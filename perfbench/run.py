#!/usr/bin/env python3
"""Builds and runs the galaxy benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload skyline_cold --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
galaxy libraries and the benchmark into .bench_build/ (the build's log goes
to .bench_build/perfbench-build.log). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it carries the run's metadata.

Other modes:
    --self-test            stream and table self-tests, then every workload
                           for one second in both modes, checking that each
                           metric in BENCHMARK.json is printed with its unit
    --attribution FILE     the traced run of every workload, writing the
                           per-layer attribution tables to FILE
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "perfbench-work")
BUILD_LOG = os.path.join(BUILD_ROOT, "perfbench-build.log")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the galaxy sources (src/) are missing; nothing to build")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(BUILD_LOG, "a") as log:
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS, "--target"] + targets,
        ]
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail("build failed; see " + BUILD_LOG)


def revision():
    """The git revision, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace, extra=()):
    """Runs the benchmark binary; returns (stdout lines, result dict)."""
    binary = os.path.join(BUILD_DIR, "galaxy_perfbench")
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", WORK_DIR, "--revision", revision()] + list(extra)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload)
    return lines, result


def check_metrics(result, bench, trace):
    """Every metric BENCHMARK.json names, with its unit, and nothing else."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    problems = []
    for name, unit in expected.items():
        if name not in got:
            problems.append("missing metric " + name)
        elif got[name] != unit:
            problems.append("%s has unit %s, expected %s" % (name, got[name], unit))
    for name in got:
        if name not in expected:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    return problems


def self_test(bench):
    build(["galaxy_perfbench", "perfbench_selftest"])
    if subprocess.call([os.path.join(BUILD_DIR, "perfbench_selftest")]) != 0:
        fail("stream self-tests failed")
    names = [w["name"] for w in bench["workloads"]]
    bad = 0
    for workload in names:
        for trace in (0, 1):
            _, result = run_workload(workload, 1, 1, trace)
            problems = check_metrics(result, bench, trace)
            if not result["correct"]:
                problems.append("answer checks failed")
            status = "ok  " if not problems else "FAIL"
            print("%s: %s --trace %d prints every metric with its unit%s" %
                  (status, workload, trace,
                   "" if not problems else ": " + "; ".join(problems)))
            bad += bool(problems)
    if bad:
        fail("%d self-test runs failed" % bad)
    print("all benchmark self-tests passed")


def attribution(bench, path, seed, seconds):
    build(["galaxy_perfbench"])
    rev = revision()
    parts = ["# Where the time goes: traced-run attribution\n",
             "Generated by `python3 perfbench/run.py --attribution %s "
             "--seed %d --seconds %s` at revision `%s`.\n" %
             (os.path.relpath(path, ROOT), seed, seconds, rev),
             "Each row is the median, over the replayed uncached queries, of "
             "one separately timed call (or of a call's time minus its "
             "callees'), so the rows need not add up to the end-to-end "
             "median and a self time near 0 can read slightly negative. "
             "The end-to-end median comes from the untraced served run. "
             "In update_mix that run keeps every CPU busy with idle-priority "
             "spinners (see README.md), so its \"outside Handle\" row leaves "
             "out the cost of waking a halted CPU.\n"]
    for w in bench["workloads"]:
        table = os.path.join(WORK_DIR, "attribution-%s.md" % w["name"])
        lines, result = run_workload(w["name"], seed, seconds, 1,
                                     ["--attribution-out", table])
        if not result["correct"]:
            fail("%s: answer checks failed" % w["name"])
        meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
        with open(table) as f:
            parts.append(f.read().rstrip() + "\n")
        parts.append("Run: seed %s, %s s, %s hardware threads, %s build, %s.\n" %
                     (meta.get("seed"), meta.get("seconds"),
                      meta.get("hardware_threads"), meta.get("build_type"),
                      meta.get("compiler")))
    with open(path, "w") as f:
        f.write("\n".join(parts))
    print("wrote " + path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--attribution", metavar="FILE")
    args = parser.parse_args()

    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if seconds == int(seconds):
        seconds = int(seconds)
    if args.self_test:
        self_test(bench)
        return
    if args.attribution:
        attribution(bench, os.path.abspath(args.attribution), args.seed, seconds)
        return
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of: " + ", ".join(names))

    build(["galaxy_perfbench"])
    lines, result = run_workload(args.workload, args.seed, seconds, args.trace)
    problems = check_metrics(result, bench, args.trace)
    if problems:
        fail("; ".join(problems))
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
