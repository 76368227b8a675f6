"""Run the benchmark over several seeds and record the figures as a baseline.

    python3 bench/baseline.py --seeds 1-10 --seconds 10 --out bench/BENCH_0.json

For every workload it makes one untraced run per seed and one traced run
on the first seed, then writes each end-to-end metric's values, median,
quartiles and spread (quartile distance over the median) and the traced
per-layer figures.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import gen  # noqa: E402


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--seconds", type=float, default=20)  # run_seconds in BENCHMARK.json
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    report = {"seeds": seeds, "seconds": args.seconds, "python": platform.python_version(),
              "machine": f"{platform.machine()}, {os.cpu_count()} CPUs", "workloads": {}}
    for workload in gen.WORKLOADS:
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        traced = run(workload, seeds[0], args.seconds, 1)
        metrics = {name: summary([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "end_to_end": metrics,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, m in metrics.items():
            print(f"{workload:10s} {name:14s} median {m['median']:10.4f} spread {m['spread']:.3f}",
                  flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
