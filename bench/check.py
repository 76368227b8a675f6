"""Exact answer checks for the benchmark, standard library only.

Each check compares a task's answer with the outcome the generator built
in, and substitutes the witness vectors into a matrix obtained without
the package: hom counts read straight off the category document, or the
hom-characteristic matrix the generator computed with its own solver.
Rationals travel as strings and are compared as Fractions; nothing here
uses floating point.
"""

from __future__ import annotations

from fractions import Fraction


def doc_hom_counts(doc):
    index = {o: i for i, o in enumerate(doc["objects"])}
    rows = [[0] * len(index) for _ in index]
    for m in doc["morphisms"]:
        rows[index[m["src"]]][index[m["tgt"]]] += 1
    return rows


def _witness_problems(rows, ans, expect):
    """Existence, value and witness substitution for one characteristic."""
    if ans["exists"] != expect["exists"]:
        return [f"exists is {ans['exists']}, expected {expect['exists']}"]
    if not ans["exists"]:
        out = []
        if ans["chi"] is not None:
            out.append("a value was reported for a characteristic that does not exist")
        if ans["w"] is not None or ans["u"] is not None:
            out.append("a witness was reported for a system with no solution")
        return out
    rows = [[Fraction(x) for x in row] for row in rows]
    n = len(rows)
    w = [Fraction(x) for x in ans["w"]]
    u = [Fraction(x) for x in ans["u"]]
    out = []
    if len(w) != n or any(sum(rows[i][j] * w[j] for j in range(n)) != 1 for i in range(n)):
        out.append("weighting does not solve M w = 1")
    if len(u) != n or any(sum(u[i] * rows[i][j] for i in range(n)) != 1 for j in range(n)):
        out.append("coweighting does not solve u M = 1")
    chi = Fraction(ans["chi"])
    if not (sum(w) == sum(u) == chi):
        out.append("chi differs from the witness sums")
    if expect.get("chi") is not None and chi != Fraction(expect["chi"]):
        out.append(f"chi = {chi}, expected {expect['chi']}")
    return out


def check_categories(item, ans):
    expect = item["expect"]
    out = _witness_problems(doc_hom_counts(item["doc"]), ans, expect)
    if ans.get("equivalent") != expect.get("equivalent"):
        out.append(f"equivalent = {ans.get('equivalent')}, expected {expect.get('equivalent')}")
    return out


def check_nerves(item, ans):
    expect = item["expect"]
    out = []
    dim = item["dim"]
    if ans["nerve_counts"] != expect["counts"]:
        out.append(f"nerve level counts {ans['nerve_counts']} != path counts {expect['counts']}")
    if ans["counts"] != ans["sent_counts"]:
        out.append(f"loaded level counts {ans['counts']} != sent {ans['sent_counts']}")
    out += _witness_problems(doc_hom_counts(item["doc"]), ans, expect)
    horns = {tuple(map(int, k.split(","))): v for k, v in ans["horns"].items()}
    wanted = {(n, k) for n in range(2, dim + 1) for k in range(1, n)}
    if set(horns) != wanted:
        return out + [f"horn report covers {sorted(horns)}, expected {sorted(wanted)}"]
    mode = item.get("corrupt", {}).get("mode")
    if mode is None:
        for (n, k), (inst, unfilled, multiple) in sorted(horns.items()):
            if (inst, unfilled, multiple) != (expect["counts"][n], 0, 0):
                out.append(f"horn ({n},{k}): {inst} instances, {unfilled} unfilled, "
                           f"{multiple} multiple; expected {expect['counts'][n]}, 0, 0")
    elif mode == "dup" and horns[(2, 1)][2] < 1:
        out.append("a duplicated filler left no (2,1) horn with multiple fillers")
    elif mode == "del" and horns[(2, 1)][1] < 1:
        out.append("a deleted filler left no unfilled (2,1) horn")
    return out


def check_towers(item, ans):
    expect = item["expect"]
    out = _witness_problems(expect["matrix"], ans, expect)
    if "classes" in expect and ans.get("classes") != expect["classes"]:
        out.append(f"internal classes {ans.get('classes')}, expected {expect['classes']}")
    return out


CHECKS = {"categories": check_categories, "nerves": check_nerves, "towers": check_towers}


def check(workload, item, ans):
    """List of problems with one answer; empty when it is exactly right."""
    return CHECKS[workload](item, ans)
