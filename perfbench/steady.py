#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs of the same code, each
running every workload with seeds 1..N.

    python3 perfbench/steady.py [--runs 10] [workload ...]

For each set and workload it prints, per end-to-end metric, the median,
the quartiles, min-max and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json, with the range of the environment
stamp's CPU calibration loop over the runs (a wide range means the
machine's speed moved during the set). It then compares the two sets:
per metric, both medians and how much worse the second is than the
first, as a share of the first, against the bound; and whether the share
of failed ops is the same. The exit code is 1 if a spread other than
setup_s's or a change of median exceeds its bound, or if the failed
shares differ.

Quartiles are Python's statistics.quantiles(values, n=4). Run from the
root of a checkout; each run goes through perfbench/run.py.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["calibration_s"] = json.loads(lines[0])["env"]["calibration_s"]
    if out.returncode != 0 or not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return res


def one_set(label, names, runs, seconds, metrics):
    """Run every workload with seeds 1..runs; print and return, per
    workload, the medians, spreads and failed shares."""
    summary = {}
    for name in names:
        results = [run(name, seed, seconds) for seed in range(1, runs + 1)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        cal = [r["calibration_s"] for r in results]
        print(f"set {label}, {name}: {runs} runs, failed share {shares}, "
              f"calibration loop {min(cal):.3f}-{max(cal):.3f} s (median {statistics.median(cal):.3f})")
        print(f"  {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
        medians, spreads = {}, {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            medians[m["name"]] = med
            spreads[m["name"]] = (q3 - q1) / med
            print(f"  {m['name']:14} {med:12.5g} {q1:12.5g} {q3:12.5g} {min(vals):12.5g} {max(vals):12.5g}"
                  f" {spreads[m['name']]:7.3f} {m['bound']:6.2f}")
        sys.stdout.flush()
        summary[name] = {"medians": medians, "spreads": spreads, "shares": shares}
    return summary


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    a = one_set("A", names, args.runs, bench["run_seconds"], metrics)
    b = one_set("B", names, args.runs, bench["run_seconds"], metrics)
    ok = True
    print("set B against set A: change of median in the worse direction, as a share of A")
    print(f"  {'workload':10} {'metric':14} {'median A':>12} {'median B':>12} {'worse by':>9} {'bound':>6}")
    for name in names:
        for m in metrics:
            ma, mb = a[name]["medians"][m["name"]], b[name]["medians"][m["name"]]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            over = worse > m["bound"] or any(
                s[name]["spreads"][m["name"]] > m["bound"] for s in (a, b)
                if m["name"] != "setup_s")
            ok = ok and not over
            print(f"  {name:10} {m['name']:14} {ma:12.5g} {mb:12.5g} {worse:9.3f} {m['bound']:6.2f}"
                  + ("  OVER" if over else ""))
        same = a[name]["shares"] == b[name]["shares"] and len(a[name]["shares"]) == 1
        ok = ok and same
        print(f"  {name:10} failed share {a[name]['shares']} / {b[name]['shares']}"
              + ("" if same else "  DIFFERS"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
