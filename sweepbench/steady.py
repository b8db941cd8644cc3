#!/usr/bin/env python3
"""Steadiness runner for the sweepbench benchmark.

Run from the repository root:

    python3 sweepbench/steady.py [--runs 10] [--sets 1]
        [--workloads headline_cold,cells_ilp,cells_mem]

Runs run.py for BENCHMARK.json's run_seconds on each workload --runs times
in alternating order (round i uses seed 1 + i and rotates the workload
order), and prints for every end-to-end metric the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound
from BENCHMARK.json. With --sets 2 the schedule runs twice and the second
set's median is compared with the first set's: a set agrees when it is not
worse by more than the bound. Every run's result line is appended to
.bench_build/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
LOG = os.path.join(ROOT, ".bench_build", "steady.jsonl")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    return spec, metrics


def run_once(workload, seed, seconds):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run.py failed on %s seed %d (exit %d)"
                         % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("incorrect result on %s seed %d: %s"
                         % (workload, seed, lines[-1]))
    os.makedirs(os.path.dirname(LOG), exist_ok=True)
    with open(LOG, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "elapsed_s": elapsed, "result": result}) + "\n")
    return result, elapsed


def run_set(workloads, runs, seconds):
    values = {w: {} for w in workloads}
    for i in range(runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            result, elapsed = run_once(w, 1 + i, seconds)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("  run %d %-14s seed %-3d %5.1f s  %s"
                  % (i + 1, w, 1 + i, elapsed,
                     " ".join("%s=%.5g" % (n, m["value"])
                              for n, m in result["metrics"].items())),
                  flush=True)
    return values


def spread(vals):
    q = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return med, q[0], q[2], (q[2] - q[0]) / med if med else float("inf")


def report(values, metrics):
    ok = True
    for w, series in values.items():
        print("%s:" % w)
        for name, vals in series.items():
            med, q1, q3, s = spread(vals)
            bound = metrics[name]["bound"]
            flag = "ok" if s <= bound / 3 else ("WIDE" if s <= bound else "OVER")
            if name != "setup_s" and s > bound:
                ok = False
            print("  %-20s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "(bound %.2f) %s" % (name, med, q1, q3, s, bound, flag))
    return ok


def compare(first, second, metrics):
    ok = True
    print("second set vs first set (median change, worse direction > bound "
          "fails):")
    for w in first:
        for name, vals in first[w].items():
            m1 = statistics.median(vals)
            m2 = statistics.median(second[w][name])
            change = (m2 - m1) / m1
            worse = change if metrics[name]["better"] == "lower" else -change
            agree = worse <= metrics[name]["bound"]
            ok &= agree
            print("  %-14s %-20s %-12.6g -> %-12.6g %+7.2f %%  %s"
                  % (w, name, m1, m2, 100 * change,
                     "agree" if agree else "DISAGREE"))
    return ok


def main():
    spec, metrics = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    workloads = args.workloads.split(",")

    sets = []
    for k in range(args.sets):
        print("set %d: %d runs x %s" % (k + 1, args.runs, ", ".join(workloads)))
        sets.append(run_set(workloads, args.runs, spec["run_seconds"]))
        ok = report(sets[-1], metrics)
        print("spreads within bounds" if ok else "SPREAD OVER A BOUND")
    if len(sets) == 2:
        agree = compare(sets[0], sets[1], metrics)
        print("sets agree" if agree else "SETS DISAGREE")
    return 0


if __name__ == "__main__":
    sys.exit(main())
