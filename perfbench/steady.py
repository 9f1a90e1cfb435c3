#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and reports, for every
end-to-end metric, the median, the quartiles and the spread (the distance
between the quartiles as a share of the median) against the metric's
bound in BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                [--trace] [--out perfbench/baseline.json]

`--trace` adds one traced run per workload and reports its per-layer
metrics, plus the tracing overhead (its traced passes' latency quantiles
minus its untraced passes'). `--out` writes
every value to a JSON file (the recorded baseline).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed (exit {out.returncode})")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results = {}
    steady = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, bench["run_seconds"], False)
            runs.append(result)
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        print(f"{workload} ({len(runs)} runs, seeds {seeds[0]}..{seeds[-1]})")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        entry = {"seeds": seeds, "correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3, share = spread(values)
            flag = "" if share <= bound / 3 else ("  > bound/3" if share <= bound else "  > BOUND")
            steady &= share <= bound
            print(f"  {name:<14} {q2:>12.4f} {q1:>12.4f} {q3:>12.4f} {share:>8.4f} {bound:>6}{flag}")
            entry["metrics"][name] = {"median": q2, "q1": q1, "q3": q3, "spread": share,
                                      "bound": bound, "values": values}
        if args.trace:
            traced = run_once(workload, seeds[0], bench["run_seconds"], True)
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer"] = layers
            # Traced passes' latency quantiles minus the untraced passes'
            # of the same run (0 on service-mixed, whose spans are built
            # after its measured window).
            entry["trace_overhead"] = {
                "p50_ms": layers.get("trace.overhead_p50_ms"),
                "p90_ms": layers.get("trace.overhead_p90_ms"),
            }
            print(f"  traced run (seed {seeds[0]}): per-layer")
            for name, value in layers.items():
                print(f"    {name:<30} {value:>16.4f}")
            print(f"  tracing overhead: {entry['trace_overhead']}")
        results[workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"run_seconds": bench["run_seconds"], "workloads": results}, f, indent=1)
            f.write("\n")
    print("steady" if steady else "NOT steady: some spread exceeds its bound")


if __name__ == "__main__":
    main()
