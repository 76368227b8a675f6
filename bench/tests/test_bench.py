"""Self-tests of the benchmark harness; they stay out of the tier-1 suite.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import check  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def _files(out):
    return {name: open(os.path.join(out, name), "rb").read() for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_documents(tmp_path, workload):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.main(["--workload", workload, "--seed", str(seed), "--count", "14",
                  "--out", str(tmp_path / name)])
    first, again, other = (_files(tmp_path / n) for n in "abc")
    assert first == again
    assert first != other


def _first_answer(workload, kind):
    for item in gen.stream(workload, 5):
        if item["kind"] == kind and "corrupt" not in item:
            _, ans, sset = worker.TASKS[workload](item)
            if sset is not None:
                worker.horn_report(ans, sset)
            return item, ans
    raise AssertionError("unreachable: streams are endless")


@pytest.mark.parametrize("workload,kind", [
    ("categories", "poset"), ("categories", "product"),
    ("nerves", "sum(c3,Z2)"), ("towers", "datum"), ("towers", "suspension"),
])
def test_checker_counts_a_corrupted_weighting(workload, kind):
    item, ans = _first_answer(workload, kind)
    assert check.check(workload, item, ans) == []
    bad = json.loads(json.dumps(ans))
    bad["w"][0] = str(-1 - int(bad["w"][0].split("/")[0]))
    assert any("weighting" in p for p in check.check(workload, item, bad))


def test_checker_counts_wrong_verdicts():
    item, ans = next((it, worker.task_categories(it)[1])
                     for it in gen.stream("categories", 5) if "other" in it)
    flipped = dict(ans, equivalent=not ans["equivalent"])
    assert check.check("categories", item, flipped)
    item, ans = _first_answer("nerves", "product(c2,Z2)")
    assert check.check("nerves", item, dict(ans, horns={}))
    assert check.check("nerves", item, dict(ans, exists=False, chi=None, w=None, u=None))


def test_corrupted_nerves_stay_valid_and_are_counted_as_other():
    seen = set()
    for item in gen.stream("nerves", 2):
        if "corrupt" in item:
            _, ans, sset = worker.task_nerves(item)
            worker.horn_report(ans, sset)
            assert check.check("nerves", item, ans) == []
            assert not ans["exists"]
            seen.add(item["corrupt"]["mode"])
        if seen == {"dup", "del"}:
            break


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_and_untraced_answers_agree(workload):
    import eulerkit

    before = eulerkit.euler_char
    tr = tracer.Tracer()
    out = worker.run_pass(workload, 3, 0, limit=12, tracer=tr)
    assert eulerkit.euler_char is before  # every wrapper removed again
    assert out["attempted"] == 24 and out["failed"] == 0, out["problems"]
    stats = tr.aggregate()
    assert stats["spans"] > 0
    metrics = tracer.layer_metrics(stats, sum(out["traced_latencies"]))
    assert 0 <= metrics["trace.remainder_frac"][0] < 0.3


def test_a_differing_traced_answer_is_a_failure(monkeypatch):
    real = worker.TASKS["towers"]

    def skewed(item):
        dt, ans, sset = real(item)
        if tracer_box[0].task_id >= 0:
            ans["chi"] = "0"
        return dt, ans, sset

    tracer_box = [tracer.Tracer()]
    monkeypatch.setitem(worker.TASKS, "towers", skewed)
    out = worker.run_pass("towers", 3, 0, limit=2, tracer=tracer_box[0])
    assert any("traced answer differs" in p for p in out["problems"])


def test_self_time_subtracts_children():
    tr = tracer.Tracer()
    tr.names = ["a", "b"]
    for fid, parent, times in ((0, -1, (0.0, 1.0, 9.0, 10.0)), (1, 0, (2.0, 3.0, 5.0, 6.0))):
        tr.fid.append(fid)
        tr.parent.append(parent)
        tr.task.append(0)
        for arr, t in zip((tr.enter, tr.start, tr.end, tr.exit), times):
            arr.append(t)
    stats = tr.aggregate()
    assert stats["calls"]["a<"] == [1, 4.0]  # 8 s span minus a 4 s child footprint
    assert stats["calls"]["b<a"] == [1, 2.0]
    assert stats["wrapper_s"] == 4.0
