#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs two sets of runs of one build for each workload, each run with its
own seed, and prints per workload and end-to-end metric both sets'
medians and quartiles, the spread (Q3 - Q1) / median of each set, and
whether the sets agree within the bound BENCHMARK.json gives the metric:
every spread but setup_s within the bound, and the second set's median
not worse than the first's by more than the bound. The share of failed
operations must be the same in both sets.

    python3 e2ebench/steady.py                       # 2 sets x 10 runs, all workloads
    python3 e2ebench/steady.py --runs 5 --sets 1 --workloads simulate_dist

Run it from the checkout root. Raw results go to
.bench_build/e2ebench/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--second-seed", type=int, default=1001)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    raw = {}
    ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            first = args.first_seed if s == 0 else args.second_seed
            results = []
            for i in range(args.runs):
                res = run_once(bench["command"], w, first + i, seconds)
                if not res["correct"]:
                    print(f"{w} seed {first + i}: correct=false")
                    ok = False
                results.append(res)
                print(f"  {w} set {s + 1} seed {first + i}: attempted={res['attempted']} failed={res['failed']}",
                      file=sys.stderr, flush=True)
            sets.append(results)
        raw[w] = sets
        print(f"\n{w}")
        print(f"  {'metric':18} {'set':>3} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, results in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in results]
                q1, med, q3, sp = spread(vals)
                meds.append(med)
                steady = name == "setup_s" or sp <= bound
                ok &= steady
                verdict = "ok" if sp <= bound / 3 else ("within bound" if steady else "TOO WIDE")
                print(f"  {name:18} {s + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {sp:>8.4f} {bound:>6}  {verdict}")
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                agree = worse <= bound
                ok &= agree
                print(f"  {name:18} second median {'not worse' if agree else 'WORSE'} by {worse:+.4f} (bound {bound})")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        per_run = {r["failed"] / r["attempted"] for rs in sets for r in rs}
        same = len(per_run) == 1
        ok &= same
        print(f"  failed share per set {shares}; identical in every run: {same}")
    os.makedirs(".bench_build/e2ebench", exist_ok=True)
    with open(".bench_build/e2ebench/steady.json", "w") as f:
        json.dump(raw, f)
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
