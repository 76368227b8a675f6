"""One workload process: a closed loop with one client over a seeded stream.

The package is imported first, so the time from process spawn to the
`ready` stamp is the set-up a command-line user pays on every call.  Each
task's library calls are timed with perf_counter; generating its input,
corrupting a serialized nerve and checking the answer happen outside the
timed region.  Results go to the JSON file named by --out.

    python3 bench/worker.py --probe
    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --out F
"""

import sys
import time

import eulerkit as ek

READY = time.monotonic()

import argparse  # noqa: E402  (after the set-up stamp on purpose)
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402

MIN_TASKS = 100  # so that at least ten samples lie beyond p90
WALL_LIMIT_S = 100.0  # keeps a whole run inside the three-minute limit


def _q(values):
    return None if values is None else [str(v) for v in values]


def _result(res):
    return {
        "exists": res.exists,
        "chi": None if res.value is None else str(res.value),
        "w": _q(res.witness_weighting.values) if res.witness_weighting else None,
        "u": _q(res.witness_coweighting.values) if res.witness_coweighting else None,
    }


def task_categories(item):
    perf = time.perf_counter
    t0 = perf()
    cat = ek.category_from_json(item["doc"])
    res = ek.euler_char(cat)
    eq = ek.equivalent(cat, ek.category_from_json(item["other"])) if "other" in item else None
    dt = perf() - t0
    ans = _result(res)
    ans["equivalent"] = eq
    return dt, ans, None


def task_nerves(item):
    perf = time.perf_counter
    t0 = perf()
    cat = ek.category_from_json(item["doc"])
    doc = ek.sset_to_json(ek.nerve(cat, item["dim"]))
    dt = perf() - t0
    nerve_counts = [len(doc["simplices"][str(n)]) for n in range(item["dim"] + 1)]
    sent = nerve_counts
    if "corrupt" in item:
        sent = gen.corrupt(doc, item["corrupt"]["mode"], item["corrupt"]["pick"])
    t1 = perf()
    sset = ek.sset_from_json(doc)
    res = ek.chi_sset(sset)
    dt += perf() - t1
    ans = _result(res)
    ans.update(nerve_counts=nerve_counts, sent_counts=sent, counts=sset.counts())
    return dt, ans, sset


def horn_report(ans, sset):
    """Add the filler counts the checker compares with path counts."""
    report = ek.filler_report(sset)
    ans["horns"] = {f"{n},{k}": [s.instances, s.unfilled, s.multiple]
                    for (n, k), s in report.per_horn.items()}


def task_towers(item):
    perf = time.perf_counter
    if item["kind"] == "datum":
        t0 = perf()
        res = ek.chi_n(ek.datum_from_json(item["doc"]))
        dt = perf() - t0
        return dt, _result(res), None
    t0 = perf()
    bicat = ek.bicat_from_json(item["doc"])
    res = ek.bicat_euler_char(bicat)
    part = ek.internal_equiv_classes(bicat)
    dt = perf() - t0
    ans = _result(res)
    ans["classes"] = part.classes()
    return dt, ans, None


TASKS = {"categories": task_categories, "nerves": task_nerves, "towers": task_towers}


def _attempt(workload, item, tracer, task_id):
    """Run one task, traced when a tracer is given: (seconds, answer JSON, problems)."""
    if tracer is not None:
        tracer.install()
        tracer.task_id = task_id
    try:
        dt, ans, sset = TASKS[workload](item)
    except Exception as exc:  # any exception is a failed task, not a failed run
        return None, repr(exc), [f"raised {exc!r}"]
    finally:
        if tracer is not None:
            tracer.task_id = -1  # stops recording for the untimed checks
            tracer.uninstall()
    try:
        if sset is not None:
            horn_report(ans, sset)
        return dt, json.dumps(ans, sort_keys=True), check.check(workload, item, ans)
    except Exception as exc:  # an answer that cannot be checked is a failed task too
        return dt, repr(exc), [f"answer could not be checked: {exc!r}"]


def run_pass(workload, seed, seconds, limit=None, tracer=None):
    """Closed loop over the stream until `seconds` of untraced task time and
    MIN_TASKS tasks are spent, in whole plan cycles, or exactly `limit`
    tasks; stops early past WALL_LIMIT_S of wall time.

    With a tracer every task also runs traced, the two in alternating
    order so that neither is always the warmer one; both answers are
    checked and must agree.
    """
    items = gen.stream(workload, seed)
    out = {"latencies": [], "traced_latencies": [], "reference": [], "attempted": 0,
           "failed": 0, "problems": []}
    began = time.monotonic()
    gc.collect()
    for n in itertools.count():
        if time.monotonic() - began > WALL_LIMIT_S:
            break
        if (limit is None and sum(out["latencies"]) >= seconds and n >= MIN_TASKS
                and n % gen.PERIOD == 0):
            break
        if limit is not None and n >= limit:
            break
        item = next(items)
        order = [None] if tracer is None else [None, tracer] if n % 2 else [tracer, None]
        results = {}
        for tr in order:
            out["attempted"] += 1
            dt, ans, bad = _attempt(workload, item, tr, n)
            results[tr is not None] = (dt, ans)
            if bad:
                out["failed"] += 1
                out["problems"].append(f"task {n} ({item['kind']}): {'; '.join(bad)}")
        if tracer is not None and results[True][1] != results[False][1]:
            out["failed"] += 1
            out["problems"].append(f"task {n} ({item['kind']}): traced answer differs")
        if results[False][0] is not None:
            out["latencies"].append(results[False][0])
        if tracer is not None and results[True][0] is not None:
            out["traced_latencies"].append(results[True][0])
        out["reference"].append(gen.reference_seconds())
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    if args.probe:
        print(repr(READY))
        return 0
    if not args.trace:
        out = run_pass(args.workload, args.seed, args.seconds)
    else:
        import tracer

        tr = tracer.Tracer()
        # half the run untraced, the other half on the same tasks traced
        out = run_pass(args.workload, args.seed, args.seconds / 2, tracer=tr)
        tr.write_spans(args.spans)
        out["trace"] = tr.aggregate()
        out["trace"]["task_s"] = sum(out["traced_latencies"])
    out["problems"] = out["problems"][:20]
    out["ready"] = READY
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
