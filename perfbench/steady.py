#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs two sets of benchmark runs of the same commit, each run with its own
seed and BENCHMARK.json's run_seconds, and for every end-to-end metric of
every workload prints the median, the quartiles and the spread (Q3 - Q1 as
a share of the median) of each set. A metric is flagged "agrees" when the
spread of both sets stays within the metric's bound and the second set's
median is not worse than the first's by more than the bound; otherwise it
is reported as "unresolved". Ends with the GD-vs-HVE line: the ratios of
job_ms_p50 and peak_rank_mib between gd-solve and hve-solve.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads gd-solve

Exits non-zero when a run fails or reports incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


SETS = 2


def run_once(command, workload, seed, seconds, timeout):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    elapsed = time.monotonic() - start
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode} after {elapsed:.1f} s")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    return result, elapsed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in workloads if w in opts.workloads.split(",")]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if opts.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    # values[set][workload][metric] -> list of values, one per run.
    values = [{w: {m: [] for m in metrics} for w in workloads} for _ in range(SETS)]
    first = True
    for s in range(SETS):
        for i in range(opts.runs):
            for w in workloads:
                seed = opts.first_seed + 1000 * s + i
                # The first run of a checkout may build the program.
                result, elapsed = run_once(command, w, seed, seconds, 900 if first else 180)
                first = False
                for m in metrics:
                    values[s][w][m].append(result["metrics"][m]["value"])
                print(f"set {s + 1} run {i + 1:2d} {w:<16} seed {seed:5d} "
                      f"{elapsed:6.1f} s  attempted {result['attempted']}", flush=True)

    unresolved = 0
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m, spec in metrics.items():
            bound = spec["bound"]
            rows = [spread(values[s][w][m]) for s in range(SETS)]
            base = rows[0][0]
            ok = True
            for s, (med, q1, q3, sp) in enumerate(rows):
                worse = (med - base) / base if spec["better"] == "lower" else (base - med) / base
                if sp > bound or worse > bound:
                    ok = False
            verdict = "agrees" if ok else "unresolved"
            unresolved += not ok
            for s, (med, q1, q3, sp) in enumerate(rows):
                tag = verdict if s == len(rows) - 1 else ""
                print(f"  {m if s == 0 else '':<16} {s + 1:>3} {med:12.4f} {q1:12.4f} "
                      f"{q3:12.4f} {sp:8.4f} {bound:6.3f}  {tag}")

    if {"gd-solve", "hve-solve"} <= set(workloads):
        for m in ("job_ms_p50", "peak_rank_mib"):
            gd = statistics.median(v for s in range(SETS) for v in values[s]["gd-solve"][m])
            hve = statistics.median(v for s in range(SETS) for v in values[s]["hve-solve"][m])
            print(f"\nGD vs HVE {m}: gd-solve {gd:.4f} / hve-solve {hve:.4f} = {gd / hve:.4f}")

    print(f"\n{unresolved} metric(s) unresolved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
