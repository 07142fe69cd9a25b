#!/usr/bin/env python3
"""Simulation benchmark of the AS-COMA simulator.

Builds the simulator library and the benchmark driver from source (CMake,
Release, into .bench_build/simbench under the repository root), runs one
workload repeatedly for a fixed time, checks the outputs, and prints every
metric by name with its unit.  The last line of standard output is one JSON
object:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with tracing
off: the fast quartile over repetitions of each host time and rate (see
metrics.fast_quartile), the median of peak RSS.  With --trace 1 they are the per-layer ones: the outside-in module
drives run once, then traced and untraced repetitions alternate so the
tracing overhead is measured rather than assumed.

Usage, from the repository root:

  python3 simbench/run.py --workload remote --seed 1 --seconds 20 --trace 0

Each repetition is a fresh driver process, so its peak RSS belongs to that
repetition alone.  A run fails (exit 1, "correct": false) when any job
throws or finishes without its invariant sweep, or when two repetitions of
the same seed disagree on the simulated-statistics digest.  Without the
simulator sources next to this directory it exits 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no cache files in the source tree
import metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
DRIVER = os.path.join(BUILD, "simbench_driver")

WORKLOADS = ["paper_grid", "remote", "thrash", "local"]
MIN_REPS = 3          # untraced repetitions per run, whatever --seconds says
MIN_TRACED_REPS = 2   # traced repetitions per --trace 1 run
REP_TIMEOUT_S = 150   # one repetition or drive process, hard limit


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds simbench_driver.  Returns True when built,
    False when the build failed, None when there is nothing to build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simbench: simulator sources not found under", ROOT)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "simbench_driver"]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def driver(mode, workload, seed, trace=False):
    """Runs one driver process; returns its JSON record, or None."""
    cmd = [DRIVER, mode, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("simbench: driver timed out:", " ".join(cmd))
        return None
    if proc.returncode != 0:
        log("simbench: driver exited", proc.returncode, ":", " ".join(cmd))
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(workload, seed, seconds, start, trace_mode):
    """Repetitions until `seconds` from `start` would be exceeded by one
    more (after the minimum).  In trace mode untraced and traced ones
    alternate.  Returns (untraced, traced, ok)."""
    untraced, traced = [], []
    while True:
        traced_turn = trace_mode and len(traced) < len(untraced)
        rep = driver("run", workload, seed, trace=traced_turn)
        if rep is None:
            return untraced, traced, False
        (traced if traced_turn else untraced).append(rep)
        done = len(untraced) + len(traced)
        elapsed = time.monotonic() - start
        enough = len(untraced) >= MIN_REPS and (
            not trace_mode or len(traced) >= MIN_TRACED_REPS)
        if enough and elapsed + elapsed / done > seconds:
            return untraced, traced, True


def check(reps):
    """Problems with a set of repetition records of one seed."""
    problems = []
    for r in reps:
        problems += r["errors"]
        if r["counts"]["accesses"] == 0 or r["cycles"] == 0:
            problems.append("a repetition simulated nothing")
    digests = sorted({r["digest"] for r in reps})
    if len(digests) > 1:
        problems.append("repetitions disagree on sim_digest: " +
                        ", ".join(digests))
    return problems


def show(name, value, unit):
    if isinstance(value, float):
        print(f"{name:32s} {value:.6g} {unit}")
    else:
        print(f"{name:32s} {value} {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    built = build()
    if not built:
        return 2 if built is None else 1

    start = time.monotonic()
    drive = None
    if args.trace:
        drive = driver("drive", args.workload, args.seed)
        if drive is None:
            return 1
    reps, traced, ok = repeat(args.workload, args.seed, args.seconds, start,
                              bool(args.trace))
    if not ok:
        return 1

    problems = check(reps + traced)
    attempted = sum(r["jobs"] for r in reps + traced)
    failed = sum(r["failed"] for r in reps + traced)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {len(reps)} untraced, {len(traced)} traced")
    print(f"sim_digest {reps[0]['digest']}")
    show("jobs_failed", failed, f"of {attempted} attempted")
    e2e = metrics.end_to_end(reps)
    units = dict(metrics.END_TO_END + metrics.PER_LAYER)
    for name, _ in metrics.END_TO_END:
        show(name, e2e[name], units[name])
    show("host_speed (times scaled by)",
         metrics.median([metrics.host_speed(r) for r in reps]), "ratio")
    show("wall_s unscaled", metrics.fast_quartile([r["wall_s"] for r in reps]),
         "s")
    show("wall_s median", metrics.median([metrics.rep_end_to_end(r)["wall_s"]
                                          for r in reps]), "s")
    if args.trace:
        layer = metrics.per_layer(reps, traced, drive)
        for name, _ in metrics.PER_LAYER:
            show(name, layer[name], units[name])
        print("spans (traced repetitions and drives):")
        print(f"  {'name':24s} {'count':>8s} {'total_s':>10s} {'self_s':>10s}")
        table = metrics.span_table([r["spans"] for r in traced] +
                                   [drive["spans"]])
        for name, row in table.items():
            print(f"  {name:24s} {row['count']:8d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f}")
        reported = layer
    else:
        reported = e2e
    for p in problems:
        print("FAILED:", p)

    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": units[name]}
                    for name in reported},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
