#!/usr/bin/env python3
"""Run-to-run spread study for the rack-scale benchmark.

Runs `perfbench/run.py` once per seed for each chosen workload, then prints
for every metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the interquartile distance as a
share of the median -- the figure BENCHMARK.json's bounds are judged
against. Usage, from the repository root:

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10] [--seconds S]
                                [--markdown OUT]

Runs are untraced, so the study covers the end-to-end metrics the bounds
apply to. --markdown also writes the summary tables in the form
perfbench/README.md quotes them.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--markdown", help="also write the summary tables here")
    args = parser.parse_args()

    tables = []
    for wl in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                                  "--seed", str(seed), "--seconds", str(args.seconds),
                                  "--trace", "0"],
                                 cwd=ROOT, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print(f"{wl} seed {seed}: run failed (exit {out.returncode})\n{out.stderr[-2000:]}")
                return 1
            result = json.loads(last)
            runs.append(result)
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

        print(f"\n{wl}: {len(runs)} runs")
        tables.append(f"\n**{wl}** ({len(runs)} runs, seeds {args.seeds})\n\n"
                      "| metric | median | q1 | q3 | (q3-q1)/median | bound |\n"
                      "|---|---:|---:|---:|---:|---:|")
        print(f"  {'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} "
              f"{'bound':>6s}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            share = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(metric)
            flag = "" if bound is None or metric == "setup_s" or share < bound / 3 else "  <-- wide"
            print(f"  {metric:28s} {med:14.6g} {q1:14.6g} {q3:14.6g} {share:8.4f} "
                  f"{bound if bound is not None else '':>6}{flag}")
            tables.append(f"| {metric} | {med:.6g} | {q1:.6g} | {q3:.6g} | {share:.4f} | "
                          f"{bound if bound is not None else ''} |")
        print(flush=True)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write("\n".join(tables) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
