"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload categories|nerves|towers --seed N \
        --seconds S --trace 0|1

Run from the repository root.  With --trace 0 it prints the end-to-end
metrics: set-up time, tasks per second, task latency p50 and p90, and peak
memory.  With --trace 1 it prints the per-layer metrics of a traced pass
and of the command-line sample.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
orchestrating process never imports eulerkit; every measurement happens
in fresh child processes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import tracer  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 6  # fresh import-only processes, besides the worker itself
CHILD_TIMEOUT_S = 170


def _env():
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + BENCH)


def _spawn_ready(cmd):
    """Seconds from spawning `cmd` until it prints its post-import stamp."""
    t0 = time.monotonic()
    out = subprocess.run(cmd, env=_env(), capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S).stdout
    return float(out.split()[-1]) - t0


def setup_times():
    worker = [sys.executable, os.path.join(BENCH, "worker.py"), "--probe"]
    return [_spawn_ready(worker) for _ in range(SETUP_PROBES)]


def run_worker(args, workdir):
    out = os.path.join(workdir, "worker.json")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--spans", os.path.join(workdir, "spans.tsv")]
    t0 = time.monotonic()
    subprocess.run(cmd, env=_env(), check=True, timeout=CHILD_TIMEOUT_S)
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    res["setup_s"] = res["ready"] - t0
    return res


def end_to_end(res, setups):
    """Task times are scaled to the nominal host (see gen.reference_seconds)."""
    scale = gen.REFERENCE_NOMINAL_S / statistics.fmean(res["reference"])
    lat = [t * scale for t in res["latencies"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (len(lat) / sum(lat), "1/s"),
        "task_ms.p50": (statistics.median(lat) * 1e3, "ms"),
        "task_ms.p90": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
    }


# --- command-line sample ---------------------------------------------------------


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _timed(cmd):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return (time.perf_counter() - t0) * 1e3, proc.returncode


def cli_runs(seed, clidir):
    """(verb, argv, expected exit code) for the sample.  The sset files are
    nerves built by the `nerve` verb, two of them corrupted afterwards."""
    runs = []
    nerve_out = []
    for k, (verb, docs, code) in enumerate(gen.cli_sample(seed)):
        paths = [_write(os.path.join(clidir, f"{k}-{j}.json"), d) for j, d in enumerate(docs)]
        if verb == "nerve":
            out = os.path.join(clidir, f"{k}-nerve.json")
            nerve_out.append(out)
            runs.append((verb, [verb, paths[0], "--dim", "3", "-o", out], code))
        else:
            runs.append((verb, [verb] + paths, code))
    return runs, nerve_out


def _sset_runs(nerve_out):
    """chi-sset and horncheck on an intact, a duplicated and a deleted filler.

    A duplicate can also leave higher horns unfilled, so horncheck asks
    for unique fillers, which both corruptions break by construction.  A
    nerve the `nerve` verb failed to write leaves its two runs out; that
    verb's exit code has already counted as a mismatch."""
    files = []
    for path, mode in zip(nerve_out, (None, "dup", "del")):
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if mode:
            gen.corrupt(doc, mode, 0)
        files.append((_write(path.replace(".json", f"-{mode or 'intact'}.json"), doc),
                      0 if mode is None else 2))
    return ([("chi-sset", ["chi-sset", f], c) for f, c in files]
            + [("horncheck", ["horncheck", f, "--unique"], c) for f, c in files])


def run_cli_sample(seed, workdir):
    """Untraced timings and traced span statistics of every sampled verb."""
    clidir = os.path.join(workdir, "cli")
    os.makedirs(clidir)
    py = sys.executable
    imports = [_timed([py, "-c", "import eulerkit"])[0] for _ in range(3)]
    runs, nerve_out = cli_runs(seed, clidir)
    times: dict[str, list] = {}
    stats = []

    def plain(verb, argv):
        ms, code = _timed([py, "-m", "eulerkit.cli"] + argv)
        times.setdefault(verb, []).append(ms)
        return code

    def traced(verb, argv):
        out = os.path.join(clidir, f"stats-{len(stats)}.json")
        _, code = _timed([py, os.path.join(BENCH, "tracer.py"), "--out", out, "--spans",
                          out.replace(".json", ".tsv"), "--"] + argv)
        if os.path.exists(out):  # absent when the traced command crashed
            with open(out, encoding="utf-8") as fh:
                stats.append(json.load(fh))
        return code

    mismatch = 0
    sset_runs = None
    for launch in (plain, traced):
        for verb, argv, code in runs:
            mismatch += launch(verb, argv) != code
        if sset_runs is None:
            sset_runs = _sset_runs(nerve_out)
        for verb, argv, code in sset_runs:
            mismatch += launch(verb, argv) != code
    return imports, times, mismatch, stats


# --- per-layer metrics ---------------------------------------------------------------


def per_layer(res, imports, times, mismatch, cli_stats):
    stats = tracer.merge([res["trace"]] + cli_stats)
    task_s = res["trace"]["task_s"] + sum(s["task_s"] for s in cli_stats)
    metrics = tracer.layer_metrics(stats, task_s)
    untraced = sum(res["latencies"])
    metrics["trace.overhead_frac"] = ((res["trace"]["task_s"] - untraced) / untraced, "ratio")
    metrics["cli.import_ms"] = (statistics.median(imports), "ms")
    for verb in sorted(times):
        metrics[f"cli.{verb}_ms"] = (statistics.median(times[verb]), "ms")
    metrics["cli.exit_mismatch"] = (mismatch, "count")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description="eulerkit benchmark: one workload, one seed")
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eulerkit", "__init__.py")):
        print(f"run from the repository root: {SRC}/eulerkit not found", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    setups = setup_times()
    res = run_worker(args, workdir)
    setups.append(res["setup_s"])
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        imports, times, mismatch, cli_stats = run_cli_sample(args.seed, workdir)
        metrics = per_layer(res, imports, times, mismatch, cli_stats)
        attempted += 2 * sum(len(t) for t in times.values())  # plain and traced
        failed += mismatch
    else:
        metrics = end_to_end(res, setups)

    lat = res["latencies"]
    ref_ms = statistics.fmean(res["reference"]) * 1e3
    print(f"{args.workload} seed {args.seed}: {len(lat)} timed tasks, "
          f"{len(lat) - int(len(lat) * 0.9)} beyond p90; failed {failed} of {attempted} "
          f"(failed_frac {failed / attempted:.4f})")
    print(f"  unscaled: {len(lat) / sum(lat):.4g} tasks/s, p50 {statistics.median(lat) * 1e3:.4g} ms;"
          f" reference {ref_ms:.4g} ms against {gen.REFERENCE_NOMINAL_S * 1e3:g} ms nominal")
    for line in res["problems"]:
        print("  problem:", line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
