#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly and summarizes every metric.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads solve-general,serve-cold,serve-repeat] [--trace 0]

Each run uses its own seed (first-seed, first-seed + 1, ...) and the
`run_seconds` of BENCHMARK.json. For every end-to-end metric the report
prints the median, the first and third quartiles (Python's
`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median and the
metric's bound. All runs go one after another; nothing else should load the
machine meanwhile. Raw results are written to perfbench/out/steadiness.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    raw = {}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.monotonic()
            r = run_once(workload, seed, seconds, args.trace)
            took = time.monotonic() - start
            results.append({"seed": seed, "run_s": took, **r})
            print(f"{workload} seed {seed}: attempted {r['attempted']} "
                  f"failed {r['failed']}, {took:.1f} s", flush=True)
        raw[workload] = results
        print(f"\n{workload}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "WIDE" if spread > bound else (
                    "ok" if spread < bound / 3 else "ok (> bound/3)")
            print(f"  {name:<34}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}"
                  f"{spread:>9.3f}{'' if bound is None else bound:>7} {unit} {flag}")
        print(flush=True)
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    with open(os.path.join(ROOT, "perfbench", "out", "steadiness.json"), "w") as f:
        json.dump(raw, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
