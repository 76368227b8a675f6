"""Seeded input streams for the eulerkit benchmark, standard library only.

This module never imports eulerkit, so two versions of the package are fed
byte-identical documents for the same seed.  Every document is written in
the package's own JSON interchange formats and comes with the outcome
expected by construction: the sum, product and inverse-order rules for
Euler characteristics, poset weightings by back-substitution, path counts
for nerves, and the known non-existence for the nine-morphism category.

Run as a script to write a stream to disk:

    python3 bench/gen.py --workload categories --seed 3 --count 20 --out DIR
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("categories", "nerves", "towers")


# --- categories as plain tables ------------------------------------------------


@dataclass
class Cat:
    """A finite category: comp holds every composable pair, identities included."""

    objects: list
    mors: list  # (name, src, tgt)
    ident: list  # object index -> identity morphism index
    comp: dict  # (g, f) -> g after f


def poset_cat(leq, names):
    n = len(names)
    index = {}
    mors = []
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                index[(i, j)] = len(mors)
                mors.append((f"{names[i]}<{names[j]}", i, j))
    comp = {}
    for (i, j), f in index.items():
        for k in range(n):
            if leq[j][k]:
                comp[(index[(j, k)], f)] = index[(i, k)]
    return Cat(list(names), mors, [index[(i, i)] for i in range(n)], comp)


def monoid_cat(table, names, unit=0):
    m = len(table)
    mors = [(names[i], 0, 0) for i in range(m)]
    comp = {(i, j): table[i][j] for i in range(m) for j in range(m)}
    return Cat(["o"], mors, [unit], comp)


def cyclic(m):
    return monoid_cat([[(i + j) % m for j in range(m)] for i in range(m)],
                      [f"g{i}" for i in range(m)])


def idempotent():
    return monoid_cat([[0, 1], [1, 1]], ["u", "e"])


def transformations2():
    """All four self-maps of a two-point set under composition."""
    funcs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    index = {f: i for i, f in enumerate(funcs)}
    table = [[index[(f[g[0]], f[g[1]])] for g in funcs] for f in funcs]
    return monoid_cat(table, ["c0", "id", "sw", "c1"], unit=1)


def klein():
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[((a + c) % 2, (b + d) % 2)] for (c, d) in elems] for (a, b) in elems]
    return monoid_cat(table, ["e", "a", "b", "ab"])


def codiscrete(k):
    names = [f"c{i}" for i in range(k)]
    mors = [(f"u{i}_{j}", i, j) for i in range(k) for j in range(k)]
    comp = {(j * k + l, i * k + j): i * k + l
            for i in range(k) for j in range(k) for l in range(k)}
    return Cat(names, mors, [i * k + i for i in range(k)], comp)


def nine_morphism():
    """The catalog's category with hom counts [[2, 1], [4, 2]]: no weighting,
    no coweighting, hence no Euler characteristic."""
    mors = [("1x", 0, 0), ("1y", 1, 1), ("t", 0, 0), ("f", 0, 1),
            ("p0", 1, 0), ("p1", 1, 0), ("p2", 1, 0), ("p3", 1, 0), ("u", 1, 1)]
    comp = {(2, 2): 2, (3, 2): 3, (8, 3): 3, (8, 8): 8}
    for p in (4, 5, 6, 7):
        comp[(p, 3)] = 2
        comp[(3, p)] = 8
        comp[(2, p)] = 4
        comp[(p, 8)] = 4
    ident = [0, 1]
    for f, (_, s, t) in enumerate(mors):
        comp.setdefault((ident[t], f), f)
        comp.setdefault((f, ident[s]), f)
    return Cat(["x", "y"], mors, ident, comp)


def product(a, b):
    nb, nmb = len(b.objects), len(b.mors)
    objects = [f"<{x},{y}>" for x in a.objects for y in b.objects]
    mors = [(f"<{m[0]},{n[0]}>", m[1] * nb + n[1], m[2] * nb + n[2])
            for m in a.mors for n in b.mors]
    ident = [a.ident[x] * nmb + b.ident[y]
             for x in range(len(a.objects)) for y in range(len(b.objects))]
    comp = {(g1 * nmb + g2, f1 * nmb + f2): h1 * nmb + h2
            for (g1, f1), h1 in a.comp.items() for (g2, f2), h2 in b.comp.items()}
    return Cat(objects, mors, ident, comp)


def coproduct(a, b):
    na, nma = len(a.objects), len(a.mors)
    objects = [f"0:{o}" for o in a.objects] + [f"1:{o}" for o in b.objects]
    mors = [(f"0:{m}", s, t) for m, s, t in a.mors]
    mors += [(f"1:{m}", s + na, t + na) for m, s, t in b.mors]
    comp = dict(a.comp)
    comp.update({(g + nma, f + nma): h + nma for (g, f), h in b.comp.items()})
    return Cat(objects, mors, a.ident + [i + nma for i in b.ident], comp)


def relabel(cat, rng, prefix):
    """Isomorphic copy with shuffled object and morphism order and fresh names."""
    operm = list(range(len(cat.objects)))
    mperm = list(range(len(cat.mors)))
    rng.shuffle(operm)
    rng.shuffle(mperm)
    onew = {old: new for new, old in enumerate(operm)}
    mnew = {old: new for new, old in enumerate(mperm)}
    objects = [f"{prefix}o{new}" for new in range(len(operm))]
    mors = [None] * len(mperm)
    for old, new in mnew.items():
        _, s, t = cat.mors[old]
        mors[new] = (f"{prefix}m{new}", onew[s], onew[t])
    ident = [None] * len(operm)
    for x, i in enumerate(cat.ident):
        ident[onew[x]] = mnew[i]
    comp = {(mnew[g], mnew[f]): mnew[h] for (g, f), h in cat.comp.items()}
    return Cat(objects, mors, ident, comp)


def category_doc(cat):
    idents = set(cat.ident)
    return {
        "objects": list(cat.objects),
        "morphisms": [{"name": m, "src": cat.objects[s], "tgt": cat.objects[t]}
                      for m, s, t in cat.mors],
        "identities": {cat.objects[x]: cat.mors[i][0] for x, i in enumerate(cat.ident)},
        "composition": [
            {"first": cat.mors[f][0], "then": cat.mors[g][0], "equals": cat.mors[h][0]}
            for (g, f), h in sorted(cat.comp.items())
            if g not in idents and f not in idents
        ],
    }


def hom_counts(cat):
    n = len(cat.objects)
    rows = [[0] * n for _ in range(n)]
    for _, s, t in cat.mors:
        rows[s][t] += 1
    return rows


# --- exact linear algebra (independent of the package's solver) ---------------


def particular(rows, rhs):
    """A solution of rows * v = rhs over the rationals, or None.

    Fraction Gaussian elimination with row echelon form and back
    substitution; free variables are set to 0.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        for i in range(r + 1, m):
            if aug[i][c] != 0:
                q = aug[i][c] / aug[r][c]
                aug[i] = [x - q * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(aug[i][n] != 0 for i in range(r, m)):
        return None
    v = [Fraction(0)] * n
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        acc = aug[k][n] - sum(aug[k][j] * v[j] for j in range(c + 1, n))
        v[c] = acc / aug[k][c]
    return v


def chi_of_matrix(rows):
    """(weighting exists, coweighting exists, chi or None)."""
    n = len(rows)
    w = particular(rows, [1] * n)
    u = particular([[rows[i][j] for i in range(n)] for j in range(n)], [1] * n)
    if w is None or u is None:
        return w is not None, u is not None, None
    return True, True, sum(w, Fraction(0))


# A fixed exact elimination, timed after every task.  The host's speed
# drifts by tens of percent over seconds to minutes and this computation
# slows down with it, so run.py reports task times scaled to a host on
# which it takes REFERENCE_NOMINAL_S.
REFERENCE_NOMINAL_S = 0.002
_REFERENCE_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(9)]
                     for i in range(9)]


def reference_seconds():
    """Time of the reference computation, run once untimed to warm it up."""
    gc.disable()  # the program's heap must not change what the reference costs
    try:
        particular(_REFERENCE_MATRIX, [1] * 9)
        t0 = time.perf_counter()
        particular(_REFERENCE_MATRIX, [1] * 9)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def random_poset(rng, n, dims):
    """Intersection of `dims` random linear orders on n points, with its
    characteristic from the weighting by back-substitution."""
    pos = []
    for _ in range(dims):
        perm = list(range(n))
        rng.shuffle(perm)
        pos.append(perm)
    leq = [[all(p[x] <= p[y] for p in pos) for y in range(n)] for x in range(n)]
    w = [0] * n
    for x in sorted(range(n), key=lambda e: pos[0][e], reverse=True):
        w[x] = 1 - sum(w[y] for y in range(n) if y != x and leq[x][y])
    return leq, Fraction(sum(w))


def add_relation(leq, rng):
    """Close the order under one extra relation between incomparable points."""
    n = len(leq)
    pairs = [(x, y) for x in range(n) for y in range(n)
             if x != y and not leq[x][y] and not leq[y][x]]
    x, y = pairs[rng.randrange(len(pairs))]
    new = [row[:] for row in leq]
    for a in range(n):
        for b in range(n):
            if leq[a][x] and leq[y][b]:
                new[a][b] = True
    return new


def _names(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


# Small categories with their characteristics, for products and sums.
def _factors():
    return [
        ("Z2", cyclic(2), Fraction(1, 2)),
        ("Z3", cyclic(3), Fraction(1, 3)),
        ("idem", idempotent(), Fraction(1, 2)),
        ("T2", transformations2(), Fraction(1, 4)),
        ("V4", klein(), Fraction(1, 4)),
    ]


# --- categories workload -------------------------------------------------------

# One plan slot per task, cycled, so every seed gives the same mix of shapes
# and sizes and a run can stop at a whole number of cycles; the seed draws
# the orders and the names.  "equiv" slots also decide an equivalence,
# against a relabelled copy (true) or a copy with one added relation
# (false); they use two-dimensional posets only, whose hom-sets have at
# most one element, so the morphism half of the isomorphism search cannot
# blow up.  Products and codiscrete blocks step through their variants
# from one cycle to the next.
CATEGORY_PLAN = (
    ("equiv", 18, True), ("poset", 26, 3), ("poset", 34, 3), ("equiv", 20, True),
    ("poset", 44, 4), ("product", 8, 2), ("equiv", 22, True), ("codiscrete", 20, 3),
    ("poset", 30, 3), ("equiv", 24, True), ("nine", 24, 3), ("product", 11, 3),
    ("poset", 16, 2), ("equiv", 21, False), ("poset", 38, 4),
)


def category_item(rng, i):
    kind, n, arg = CATEGORY_PLAN[i % len(CATEGORY_PLAN)]
    cycle = i // len(CATEGORY_PLAN)
    leq, chi = random_poset(rng, n, 2 if kind == "equiv" else arg)
    cat = poset_cat(leq, _names("p", n))
    exists = True
    if kind == "product":
        _, factor, fchi = _factors()[cycle % len(_factors())]
        cat, chi = product(cat, factor), chi * fchi
    elif kind == "codiscrete":
        # codiscrete(k) x Z_m: k isomorphic objects, all hom counts m, chi 1/m
        k, m = 2 + cycle % 4, 1 + cycle % 3
        cat = coproduct(cat, product(codiscrete(k), cyclic(m)))
        chi += Fraction(1, m)
    elif kind == "nine":
        cat, chi, exists = coproduct(cat, nine_morphism()), None, False
    item = {
        "kind": kind,
        "doc": category_doc(cat),
        "expect": {"exists": exists, "chi": None if chi is None else str(chi)},
    }
    if kind == "equiv":
        other = relabel(cat if arg else poset_cat(add_relation(leq, rng), _names("p", n)),
                        rng, "r")
        item["other"] = category_doc(other)
        item["expect"]["equivalent"] = arg
    return item


# --- nerves workload -----------------------------------------------------------


def chain(k):
    return poset_cat([[i <= j for j in range(k)] for i in range(k)], _names("c", k))


def diamond():
    # bottom 0 under 1 and 2, both under top 3
    leq = [[i == j or i == 0 or j == 3 for j in range(4)] for i in range(4)]
    return poset_cat(leq, ["b", "l", "r", "t"])


def _nerve_bases(rng):
    leq, chi = random_poset(rng, rng.randint(3, 5), 2)
    return {
        "c2": (chain(2), Fraction(1)), "c3": (chain(3), Fraction(1)),
        "c4": (chain(4), Fraction(1)), "dia": (diamond(), Fraction(1)),
        "Z2": (cyclic(2), Fraction(1, 2)), "Z3": (cyclic(3), Fraction(1, 3)),
        "idem": (idempotent(), Fraction(1, 2)),
        "rp": (poset_cat(leq, _names("q", len(leq))), chi),
    }


def path_totals(cat, top):
    """Composable m-path counts for m = 0..top, by powers of the hom-count matrix."""
    rows = hom_counts(cat)
    n = len(rows)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    totals = []
    for _ in range(top + 1):
        totals.append(sum(map(sum, power)))
        power = [[sum(power[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    return totals


NERVE_MAX_TOP = 360  # simplices at the top level; filler_report grows fast past this

# A fixed cycle of shapes, so every seed gives the same mix of sizes; the
# seed draws the random poset "rp", the names, the order and the corrupted
# simplex.  Every shape has a non-degenerate 2-simplex to corrupt.
NERVE_PLAN = (
    ("sum", "c3", "Z2"), ("product", "c2", "Z2"), ("single", "Z3"), ("sum", "dia", "rp"),
    ("product", "Z2", "Z2"), ("sum", "c4", "Z3"), ("single", "c4"), ("product", "c2", "idem"),
    ("sum", "c3", "dia"), ("product", "dia", "Z2"), ("sum", "Z3", "idem"), ("product", "c2", "c3"),
    ("product", "idem", "idem"), ("single", "dia"), ("product", "c3", "Z2"),
)
NERVE_CORRUPT = {2: "dup", 6: "del", 10: "dup", 13: "del"}  # plan slots, about a quarter


def nerve_item(rng, i):
    shape, *parts = NERVE_PLAN[i % len(NERVE_PLAN)]
    bases = _nerve_bases(rng)
    cat, chi = bases[parts[0]]
    if shape == "sum":
        other, ochi = bases[parts[1]]
        cat, chi = coproduct(cat, other), chi + ochi
    elif shape == "product":
        other, ochi = bases[parts[1]]
        cat, chi = product(cat, other), chi * ochi
    counts = path_totals(cat, 4)
    dim = 4 if counts[4] <= NERVE_MAX_TOP else 3
    item = {
        "kind": f"{shape}({','.join(parts)})",
        "doc": category_doc(relabel(cat, rng, "n")),
        "dim": dim,
        "expect": {"counts": counts[: dim + 1], "exists": True, "chi": str(chi)},
    }
    mode = NERVE_CORRUPT.get(i % len(NERVE_PLAN))
    if mode:
        item["corrupt"] = {"mode": mode, "pick": rng.randrange(1 << 16)}
        item["expect"].update(exists=False, chi=None)
    return item


def _nondegenerate_2(doc):
    degenerate = set()
    for i in range(2):
        degenerate.update(doc["degeneracies"][f"1,{i}"].values())
    return sorted(s for s in doc["simplices"]["2"] if s not in degenerate)


def corrupt(doc, mode, pick):
    """Duplicate or delete one non-degenerate 2-simplex of a serialized nerve.

    A duplicate is glued along the same boundary, so its degeneracies are
    copied too; a deletion also removes every simplex above it.  Either way
    the result still satisfies the simplicial identities.
    """
    dim = doc["dim"]
    faces, degs, levels = doc["faces"], doc["degeneracies"], doc["simplices"]
    candidates = _nondegenerate_2(doc)
    target = candidates[pick % len(candidates)]
    if mode == "dup":
        block = {target: 2}
        frontier = [target]
        while frontier:
            s = frontier.pop()
            n = block[s]
            if n < dim:
                for i in range(n + 1):
                    d = degs[f"{n},{i}"][s]
                    if d not in block:
                        block[d] = n + 1
                        frontier.append(d)
        copy = {s: s + "'" for s in block}
        for s, n in sorted(block.items(), key=lambda kv: kv[1]):
            c = copy[s]
            levels[str(n)].append(c)
            for i in range(n + 1):
                f = faces[f"{n},{i}"][s]
                faces[f"{n},{i}"][c] = copy.get(f, f)
                if n < dim:
                    degs[f"{n},{i}"][c] = copy[degs[f"{n},{i}"][s]]
    else:
        gone = {target}
        for n in range(3, dim + 1):
            gone.update(s for s in levels[str(n)]
                        if any(faces[f"{n},{i}"][s] in gone for i in range(n + 1)))
        for n in range(2, dim + 1):
            levels[str(n)] = [s for s in levels[str(n)] if s not in gone]
            for i in range(n + 1):
                for s in gone.intersection(faces[f"{n},{i}"]):
                    del faces[f"{n},{i}"][s]
                if n < dim:
                    for s in gone.intersection(degs[f"{n},{i}"]):
                        del degs[f"{n},{i}"][s]
    return [len(levels[str(n)]) for n in range(dim + 1)]


# --- towers workload -----------------------------------------------------------


def _group_hom(m):
    """Z_m as a one-object category: 1-cell "e", 2-cells a0..a(m-1)."""
    return {
        "objects": ["e"],
        "morphisms": [{"name": f"a{j}", "src": "e", "tgt": "e"} for j in range(m)],
        "identities": {"e": "a0"},
        "composition": [{"first": f"a{j}", "then": f"a{i}", "equals": f"a{(i + j) % m}"}
                        for i in range(1, m) for j in range(1, m)],
    }


def suspension_doc(cells, m):
    """Every hom is Z_m and horizontal composition adds: chi = m, one class."""
    hom = {f"{x}|{y}": _group_hom(m) for x in cells for y in cells}
    two = [{"beta": f"a{b}", "alpha": f"a{a}", "equals": f"a{(a + b) % m}"}
           for b in range(m) for a in range(m) if (a, b) != (0, 0)]
    hcomp = {f"{x}|{y}|{z}": {"one_cells": [{"g": "e", "f": "e", "equals": "e"}],
                              "two_cells": two}
             for x in cells for y in cells for z in cells}
    return {"zero_cells": list(cells), "hom": hom, "hcomp": hcomp,
            "units": {x: "e" for x in cells}}


def cat_as_bicat_doc(cat):
    """The category as a strict bicategory with discrete hom-categories."""
    n = len(cat.objects)
    homs = [[[f for f, (_, s, t) in enumerate(cat.mors) if s == x and t == y]
             for y in range(n)] for x in range(n)]
    name = [m for m, _, _ in cat.mors]
    ob = cat.objects
    hom = {}
    for x in range(n):
        for y in range(n):
            if homs[x][y]:
                hom[f"{ob[x]}|{ob[y]}"] = {
                    "objects": [name[f] for f in homs[x][y]],
                    "morphisms": [{"name": f"i.{name[f]}", "src": name[f], "tgt": name[f]}
                                  for f in homs[x][y]],
                    "identities": {name[f]: f"i.{name[f]}" for f in homs[x][y]},
                    "composition": [],
                }
    hcomp = {}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                one = [{"g": name[g], "f": name[f], "equals": name[cat.comp[(g, f)]]}
                       for g in homs[y][z] for f in homs[x][y]]
                if one:
                    hcomp[f"{ob[x]}|{ob[y]}|{ob[z]}"] = {"one_cells": one}
    units = {ob[x]: name[cat.ident[x]] for x in range(n)}
    return {"zero_cells": list(ob), "hom": hom, "hcomp": hcomp, "units": units}


def _datum(level, cells, hom):
    return {"level": level, "cells": cells,
            "hom": {f"{cells[i]}|{cells[j]}": hom[i][j]
                    for i in range(len(cells)) for j in range(len(cells))}}


def _solvable(rng, size, draw):
    """Square table of (doc, chi) entries from `draw` whose chi matrix has a
    characteristic, with that matrix and characteristic."""
    while True:
        entries = [[draw() for _ in range(size)] for _ in range(size)]
        rows = [[chi for _, chi in row] for row in entries]
        w, u, chi = chi_of_matrix(rows)
        if chi is not None:
            return [[doc for doc, _ in row] for row in entries], rows, chi


POOL_CELLS = (2, 3, 2, 3, 3)  # cells of each level-2 datum in a tower's pool


def tower_doc(rng, cells3):
    """Level-3 datum whose hom data come from a small pool of level-2 data,
    each with 2x2 level-1 data; the sizes are fixed so the work per tower is."""
    def leaf():
        s = rng.choice((0, 1, 1, 2, 3))
        return {"level": 0, "size": s}, Fraction(s)

    def level1():
        docs, _, chi = _solvable(rng, 2, leaf)
        return _datum(1, ["a0", "a1"], docs), chi

    def level2(cells):
        docs, _, chi = _solvable(rng, cells, level1)
        return _datum(2, [f"b{j}" for j in range(cells)], docs), chi

    pool = [level2(c) for c in POOL_CELLS]
    docs, rows, chi = _solvable(rng, cells3, lambda: rng.choice(pool))
    return _datum(3, [f"t{j}" for j in range(cells3)], docs), rows, chi


# Categories as bicategories, group suspensions (cells, m) and datum towers
# (level-3 cells), cycled like the other plans.  Ranked by cost, the slot
# at the median (Z2 on five cells) and the one at p90 (Z6 on four cells)
# are suspensions, whose cost does not depend on the seed, with neighbours
# well apart from them.
TOWER_PLAN = (
    ("suspension", 2, 4), ("datum", 6), ("cat", "poset"), ("suspension", 3, 3),
    ("suspension", 3, 6), ("suspension", 2, 6), ("cat", "group"), ("suspension", 5, 2),
    ("datum", 5), ("suspension", 3, 2), ("datum", 10), ("cat", "product"),
    ("suspension", 5, 3), ("suspension", 4, 6), ("suspension", 4, 5),
)


def tower_item(rng, i):
    slot = TOWER_PLAN[i % len(TOWER_PLAN)]
    tag = rng.randrange(1 << 20)
    if slot[0] == "suspension":
        k, m = slot[1], slot[2]
        cells = [f"z{tag}_{j}" for j in range(k)]
        return {"kind": "suspension", "doc": suspension_doc(cells, m),
                "expect": {"exists": True, "chi": str(m),
                           "matrix": [[str(Fraction(1, m))] * k for _ in range(k)],
                           "classes": [list(range(k))]}}
    if slot[0] == "cat":
        if slot[1] == "group":
            m = rng.randint(2, 5)
            cat, chi = cyclic(m), Fraction(1, m)
        else:
            leq, chi = random_poset(rng, rng.randint(3, 6) - (slot[1] == "product"), 2)
            cat = poset_cat(leq, _names("p", len(leq)))
            if slot[1] == "product":
                cat, chi = product(cat, cyclic(2)), chi / 2
        cat = relabel(cat, rng, f"k{tag}.")
        n = len(cat.objects)
        # posets and their products with a group are skeletal; a group has one object
        return {"kind": "cat_as_bicat", "doc": cat_as_bicat_doc(cat),
                "expect": {"exists": True, "chi": str(chi),
                           "matrix": [[str(c) for c in row] for row in hom_counts(cat)],
                           "classes": [[x] for x in range(n)]}}
    doc, rows, chi = tower_doc(rng, slot[1])
    return {"kind": "datum", "doc": doc,
            "expect": {"exists": True, "chi": str(chi),
                       "matrix": [[str(c) for c in row] for row in rows]}}


# --- streams -------------------------------------------------------------------

_ITEMS = {"categories": category_item, "nerves": nerve_item, "towers": tower_item}

# Every plan has 15 slots: in a run of whole cycles the median and p90
# fall inside a block of equal slots instead of between two of them.
PERIOD = 15
assert len(CATEGORY_PLAN) == len(NERVE_PLAN) == len(TOWER_PLAN) == PERIOD


def stream(workload, seed):
    """Endless seeded stream of task items; item i depends only on (workload, seed, i)."""
    make = _ITEMS[workload]
    i = 0
    while True:
        yield make(random.Random(f"{workload}:{seed}:{i}"), i)
        i += 1


def cli_sample(seed):
    """Small fixed sample for the command-line verbs: (verb, [docs], exit code)."""
    rng = random.Random(f"cli:{seed}")
    out = []
    for i in (1, 5, 10):  # a poset, a product and the nine-morphism sum
        item = category_item(rng, i)
        out.append(("chi", [item["doc"]], 0 if item["expect"]["exists"] else 2))
    for i in (0, 3, 13):
        item = category_item(rng, i)
        out.append(("equivalent", [item["doc"], item["other"]], 0))
    for i in (0, 2, 3):  # two suspensions and a category as a bicategory
        doc = tower_item(rng, i)["doc"]
        out += [("chi-bicat", [doc], 0), ("internal-classes", [doc], 0)]
    for cells in (4, 5, 6):
        out.append(("chi-n", [tower_doc(rng, cells)[0]], 0))
    for i in (0, 1, 2):
        item = nerve_item(rng, i)
        out.append(("nerve", [item["doc"]], 0))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    items = stream(args.workload, args.seed)
    for i in range(args.count):
        path = os.path.join(args.out, f"{args.workload}-{i:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(next(items), fh, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
