#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs the command named in BENCHMARK.json once per seed on each workload
(tracing off), then prints, per workload and end-to-end metric, the median,
the quartiles (statistics.quantiles(values, n=4)), the spread (IQR as a
share of the median) against a third of the metric's bound, and, with
--sets 2, the gap between the two sets' medians against the bound. Each set uses
its own seeds: set k runs seeds first-seed + k * seeds + (0 .. seeds-1).

Run from the repository root:

    python3 e2ebench/steady.py --seeds 10 [--sets 2] [--workloads agnews-sc,promptedlf]
        [--first-seed 1] [--json out.json]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    took = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["process_s"] = took
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {}
    for w in workloads:
        sets = []
        for s in range(opts.sets):
            runs = []
            for i in range(opts.seeds):
                seed = opts.first_seed + s * opts.seeds + i
                r = run_once(bench["command"], w, seed, bench["run_seconds"])
                vals = {k: v["value"] for k, v in r["metrics"].items()}
                print(f"{w} set {s + 1} seed {seed}: correct={r['correct']} "
                      f"process {r['process_s']:.1f} s "
                      + " ".join(f"{k}={v}" for k, v in vals.items()), flush=True)
                runs.append({"seed": seed, "correct": r["correct"],
                             "process_s": r["process_s"], "metrics": vals})
            sets.append(runs)
        record[w] = sets

        print(f"\n{w}: metric, median, q1, q3, spread (IQR/median) vs bound/3"
              + (", set-median gap vs bound" if opts.sets > 1 else ""))
        for name, bound in bounds.items():
            meds = []
            for s, runs in enumerate(sets):
                med, q1, q3, iqr = spread([r["metrics"][name] for r in runs])
                meds.append(med)
                flag = "ok" if iqr <= bound / 3 or name == "setup_s" else "WIDE"
                print(f"  set {s + 1} {name:<18} {med:>16.6g} {q1:>16.6g} {q3:>16.6g} "
                      f"{100 * iqr:6.2f}% / {100 * bound / 3:5.2f}% {flag}")
            if len(meds) > 1 and meds[0]:
                gap = (meds[1] - meds[0]) / meds[0]
                print(f"        {name:<18} median gap {100 * gap:+6.2f}% (bound {100 * bound:.0f}%)")
        print(flush=True)

    if opts.json:
        with open(opts.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
