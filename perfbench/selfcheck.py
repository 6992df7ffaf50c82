#!/usr/bin/env python3
"""Sensitivity self-check of the benchmark.

Runs each solve workload three times over: two undelayed sets of runs and
one set with a `delay` fault armed at `solve.phase1` (the benchmark's
`--phase1-delay-ms` flag, which arms the program's `FaultPlan`). It then
applies the regression rule of BENCHMARK.json: a metric is flagged when the
median of a set is worse than the median of the baseline set by more than
the metric's bound. The check passes when the delayed set is flagged on
`solve_s` for every solve workload and the second undelayed set is flagged
on no metric.

Each set has RUNS runs of BENCHMARK.json's `run_seconds`, and the delay
is DELAY_MS per phase-1 hit. The sets take turns, one run each, and the
set that goes first rotates from round to round, so a machine that slows
down or speeds up for a few minutes moves every set alike. Run from the
repository root (it takes about 16 minutes):

    python3 perfbench/selfcheck.py

Each benchmark run is its own process; nothing here runs during measured
runs of the benchmark.
"""

import json
import statistics
import subprocess
import sys

WORKLOADS = ["solve-sparse-10k", "solve-dense-625"]
RUNS = 5
DELAY_MS = 100


def run_once(command, workload, seed, seconds, delay_ms):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    if delay_ms:
        args += ["--phase1-delay-ms", str(delay_ms)]
    out = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: benchmark exited {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: an output check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def flagged(spec, base, head):
    """Metrics whose head median is worse than the base median by more
    than the metric's bound, with the relative change."""
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        b = statistics.median(r[name] for r in base)
        h = statistics.median(r[name] for r in head)
        change = (h - b) / b if metric["better"] == "lower" else (b - h) / b
        if change > metric["bound"]:
            out[name] = change
    return out


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    ok = True
    for workload in WORKLOADS:
        # (seed offset, delay) of the baseline, the second undelayed set
        # and the delayed set.
        sets = [(0, None), (RUNS, None), (0, DELAY_MS)]
        results = [[], [], []]
        for i in range(RUNS):
            for j in range(i, i + len(sets)):
                offset, delay = sets[j % len(sets)]
                seed = 1 + i + offset
                results[j % len(sets)].append(
                    run_once(spec["command"], workload, seed, seconds, delay))
        base, again, delayed = results
        noise = flagged(spec, base, again)
        caught = flagged(spec, base, delayed)
        medians = [statistics.median(r["solve_s"] for r in s) for s in (base, again, delayed)]
        print(f"{workload}: solve_s medians undelayed {medians[0]:.4f} / {medians[1]:.4f} s, "
              f"delayed {medians[2]:.4f} s")
        print(f"  undelayed vs undelayed flags: {noise or 'none'}")
        print(f"  undelayed vs delayed flags:   {caught or 'none'}")
        ok &= not noise and "solve_s" in caught
    print("self-check", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
