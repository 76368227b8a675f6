"""Finite bicategories and recursive Euler data.

A bicategory is stored as zero-cells, one hom-category per ordered pair,
horizontal-composition tables (on 1-cells and on 2-cells), unit 1-cells,
and associator/unitor 2-cells.  Validation checks that the hom-categories
are categories, that the unit and composite tables are total and in range,
that 2-cell composites have the right endpoints, that horizontal
composition keeps identities and is functorial over composable pairs, and
that every associator and unitor has the right endpoints and is
invertible; it does not check the pentagon or triangle diagrams.
Omitted coherence cells default to identities, so a bare structure is read
as strict and validation then enforces that the tables are strictly
associative and unital; `bicat_to_json` omits exactly the identity cells.

Euler data generalise the adjacency-matrix picture to any level: a
level-0 datum is a finite set recorded by its size, and a level-n datum
is a cell list with a level-(n-1) datum per ordered pair of cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import catalog
from .errors import (
    BudgetExceededError,
    FormatError,
    HomChiUndefinedError,
    ValidationError,
)
from .fincat import (
    FinCat,
    IsoPartition,
    _arrows_from,
    _category_parts,
    _check_keys,
    _is_invertible,
    _partition,
    category_to_json,
    category_violations,
    objects_isomorphic,
    search_budget,
)
from .magnitude import EulerResult, Weighting, euler_char, euler_of_matrix
from .qlinalg import QMatrix


@dataclass(frozen=True)
class FinBicat:
    zero_cells: tuple[str, ...]
    homcat: dict[tuple[int, int], FinCat]
    hcomp_one: dict[tuple[int, int, int], dict[tuple[int, int], int]]
    hcomp_two: dict[tuple[int, int, int], dict[tuple[int, int], int]]
    unit_one_cell: tuple[int, ...]
    associator: dict[tuple, int]  # (x,y,z,w,h,g,f) -> 2-cell in homcat(x,w)
    left_unitor: dict[tuple[int, int, int], int]  # (x,y,f) -> 2-cell in homcat(x,y)
    right_unitor: dict[tuple[int, int, int], int]

    def hom(self, x: int, y: int) -> FinCat:
        return self.homcat[(x, y)]


_EMPTY_CAT = FinCat((), (), (), {})


def _coherence_cells(n, homcat, hcomp_one, units):
    """Every coherence 2-cell a bicategory carries, in report order: the
    associator (hg)f => h(gf) at each key (x,y,z,w,h,g,f), then the left
    unitors 1_y f => f and the right unitors f 1_x => f at each key (x,y,f).
    Yields (side, key, hom-category of the cell, source, target); the source
    is None when a composite on the way is missing, and so is the
    associator's target."""
    for x in range(n):
        for y in range(n):
            fs = range(len(homcat[(x, y)].objects))
            for z in range(n):
                g_f = hcomp_one[(x, y, z)]
                gs = range(len(homcat[(y, z)].objects))
                for w in range(n):
                    h_g, hg_f = hcomp_one[(y, z, w)], hcomp_one[(x, y, w)]
                    h_gf, hom = hcomp_one[(x, z, w)], homcat[(x, w)]
                    for h in range(len(homcat[(z, w)].objects)):
                        for g in gs:
                            hg = h_g.get((h, g))
                            for f in fs:
                                gf = g_f.get((g, f))
                                src = tgt = None
                                if hg is not None and gf is not None:
                                    src, tgt = hg_f.get((hg, f)), h_gf.get((h, gf))
                                yield "associator", (x, y, z, w, h, g, f), hom, src, tgt
    for side in ("left", "right"):
        for x in range(n):
            for y in range(n):
                hom = homcat[(x, y)]
                table = hcomp_one[(x, y, y)] if side == "left" else hcomp_one[(x, x, y)]
                for f in range(len(hom.objects)):
                    pair = (units[y], f) if side == "left" else (f, units[x])
                    yield side, (x, y, f), hom, table.get(pair), f


def _check_unit_count(units, n):
    if len(units) != n:
        raise FormatError(f"units: list length {len(units)} != zero-cell count {n}")


def _fill_strict_defaults(zero_cells, homcat, hcomp_one, hcomp_two, units,
                          associator, left_unitor, right_unitor):
    """Complete omitted parts with their strict (identity) readings.

    No default can be read from an hcomp key naming a missing zero-cell,
    a 1-cell composite out of range of its hom-categories or a unit list
    of the wrong length, so each raises FormatError naming the entry."""
    n = len(zero_cells)
    homcat = dict(homcat)
    for x in range(n):
        for y in range(n):
            homcat.setdefault((x, y), _EMPTY_CAT)
    hcomp_two = hcomp_two or {}
    for x, y, z in [*hcomp_one, *hcomp_two]:
        if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
            raise FormatError(f"hcomp key ({x},{y},{z}) out of range")
    _check_unit_count(units, n)
    triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    hcomp_one = {key: dict(hcomp_one.get(key, {})) for key in triples}
    hcomp_two = {key: dict(hcomp_two.get(key, {})) for key in triples}
    # Identity 2-cell pairs compose to the identity of the composite 1-cell.
    for (x, y, z), table in hcomp_one.items():
        two = hcomp_two[(x, y, z)]
        hyz, hxy, hxz = homcat[(y, z)], homcat[(x, y)], homcat[(x, z)]
        for (g, f), gf in table.items():
            if not (0 <= g < len(hyz.objects) and 0 <= f < len(hxy.objects)
                    and 0 <= gf < len(hxz.objects)):
                raise FormatError(
                    f"hcomp({zero_cells[x]},{zero_cells[y]},{zero_cells[z]}): "
                    f"1-cell composite {(g, f)} -> {gf} out of range")
            pair = (hyz.identity[g], hxy.identity[f])
            if pair not in two:
                two[pair] = hxz.identity[gf]
    cells = {"associator": dict(associator or {}), "left": dict(left_unitor or {}),
             "right": dict(right_unitor or {})}
    for side, key, hom, src, _ in _coherence_cells(n, homcat, hcomp_one, units):
        if src is not None and key not in cells[side]:
            cells[side][key] = hom.identity[src]
    return (homcat, hcomp_one, hcomp_two, *cells.values())


def bicat_violations(zero_cells, homcat, hcomp_one, hcomp_two, units,
                     associator, left_unitor, right_unitor) -> list[str]:
    """All structural violations; inputs must already carry strict defaults."""
    v: list[str] = []
    n = len(zero_cells)

    broken = set()  # hom-categories that are not categories
    for (x, y), cat in sorted(homcat.items()):
        if not (0 <= x < n and 0 <= y < n):
            raise FormatError(f"hom-category key ({x},{y}) out of range")
        inner = category_violations(cat.objects, cat.morphisms, cat.identity, cat.comp)
        if inner:
            broken.add((x, y))
        v.extend(f"hom({zero_cells[x]},{zero_cells[y]}): {msg}" for msg in inner)

    _check_unit_count(units, n)
    for x in range(n):
        if not (0 <= units[x] < len(homcat[(x, x)].objects)):
            v.append(f"unit 1-cell of {zero_cells[x]} is out of range")

    for (x, y, z), table in sorted(hcomp_one.items()):
        hyz, hxy, hxz = homcat[(y, z)], homcat[(x, y)], homcat[(x, z)]
        dom = {(g, f) for g in range(len(hyz.objects)) for f in range(len(hxy.objects))}
        where = f"hcomp({zero_cells[x]},{zero_cells[y]},{zero_cells[z]})"
        for pair in sorted(dom - table.keys()):
            v.append(f"{where}: missing 1-cell composite for {pair}")
        for pair in sorted(table.keys() - dom):
            v.append(f"{where}: 1-cell composite on out-of-range pair {pair}")
        for pair, res in sorted(table.items()):
            if pair in dom and not (0 <= res < len(hxz.objects)):
                v.append(f"{where}: 1-cell composite {pair} -> {res} out of range")

        two = hcomp_two[(x, y, z)]
        dom2 = {
            (b, a)
            for b in range(len(hyz.morphisms))
            for a in range(len(hxy.morphisms))
        }
        for pair in sorted(dom2 - two.keys()):
            v.append(f"{where}: missing 2-cell composite for {pair}")
        for pair in sorted(two.keys() - dom2):
            v.append(f"{where}: 2-cell composite on out-of-range pair {pair}")
        ok_endpoints = True
        for (b, a), res in sorted(two.items()):
            if (b, a) not in dom2:
                continue
            if not (0 <= res < len(hxz.morphisms)):
                v.append(f"{where}: 2-cell composite {(b, a)} -> {res} out of range")
                ok_endpoints = False
                continue
            beta, alpha = hyz.morphisms[b], hxy.morphisms[a]
            want_src = table.get((beta.src, alpha.src))
            want_tgt = table.get((beta.tgt, alpha.tgt))
            got = hxz.morphisms[res]
            if want_src is not None and got.src != want_src:
                v.append(f"{where}: 2-cell composite {(b, a)} has source {got.src}, expected {want_src}")
                ok_endpoints = False
            if want_tgt is not None and got.tgt != want_tgt:
                v.append(f"{where}: 2-cell composite {(b, a)} has target {got.tgt}, expected {want_tgt}")
                ok_endpoints = False
        # Functoriality of horizontal composition, where all three homs are
        # categories: a broken one is already reported and may lack composites.
        if (not two.keys() - dom2 and not dom2 - two.keys() and ok_endpoints
                and broken.isdisjoint({(y, z), (x, y), (x, z)})):
            for (g, f), gf in sorted(table.items()):
                if (g, f) in dom:
                    idp = (hyz.identity[g], hxy.identity[f])
                    if two[idp] != hxz.identity[gf]:
                        v.append(f"{where}: identity 2-cells at {(g, f)} do not compose to an identity")
            # over composable pairs only: (b2, a2) leaving the targets of (b1, a1)
            after_b, after_a = _arrows_from(hyz.morphisms), _arrows_from(hxy.morphisms)
            for (b1, a1), r1 in sorted(two.items()):
                for b2 in after_b.get(hyz.morphisms[b1].tgt, ()):
                    for a2 in after_a.get(hxy.morphisms[a1].tgt, ()):
                        vert = (hyz.comp[(b2, b1)], hxy.comp[(a2, a1)])
                        want = hxz.comp.get((two[(b2, a2)], r1))
                        if two[vert] != want:
                            v.append(
                                f"{where}: horizontal composition is not functorial at "
                                f"(({b2},{a2}) . ({b1},{a1}))"
                            )

    # Coherence cells: total over their 1-cells, endpoints, invertibility.
    cells = {"associator": associator, "left": left_unitor, "right": right_unitor}
    for side, key, hom, src, tgt in _coherence_cells(n, homcat, hcomp_one, units):
        cell = cells[side].get(key)
        if cell is None:
            problem = "missing"
        elif src is None or tgt is None:
            continue  # already reported as hcomp gaps
        elif not (0 <= cell < len(hom.morphisms)):
            problem = "cell index out of range"
        elif (hom.morphisms[cell].src, hom.morphisms[cell].tgt) != (src, tgt):
            mor = hom.morphisms[cell]
            problem = f"endpoints {mor.src}->{mor.tgt}, expected {src}->{tgt}"
        elif not _is_invertible(hom, cell):
            problem = "not invertible"
        else:
            continue
        if side == "associator":
            x, y, z, w, h, g, f = key
            name = (f"associator({zero_cells[x]},{zero_cells[y]},{zero_cells[z]},"
                    f"{zero_cells[w]}; h={h},g={g},f={f})")
        else:
            x, y, f = key
            name = f"{side} unitor({zero_cells[x]},{zero_cells[y]}; f={f})"
        v.append(f"{name}: {problem}")
    return v


def bicat_from_parts(zero_cells, homcat, hcomp_one, hcomp_two=None, units=None,
                     associator=None, left_unitor=None, right_unitor=None) -> FinBicat:
    """Validated bicategory; omitted coherence data is read as strict."""
    if units is None:
        raise FormatError("unit 1-cells are required")
    zero_cells = tuple(str(z) for z in zero_cells)
    if len(set(zero_cells)) != len(zero_cells):
        raise FormatError("zero-cell names are not unique")
    units = tuple(int(u) for u in units)
    homcat, hcomp_one, hcomp_two, associator, left_unitor, right_unitor = (
        _fill_strict_defaults(zero_cells, homcat, hcomp_one, hcomp_two, units,
                              associator, left_unitor, right_unitor)
    )
    violations = bicat_violations(zero_cells, homcat, hcomp_one, hcomp_two, units,
                                  associator, left_unitor, right_unitor)
    if violations:
        raise ValidationError(violations)
    return FinBicat(zero_cells, homcat, hcomp_one, hcomp_two, units,
                    associator, left_unitor, right_unitor)


def cat_as_bicat(cat: FinCat) -> FinBicat:
    """View a category as a strict bicategory with discrete hom-categories."""
    n = len(cat.objects)
    hom_lists = {(x, y): cat.hom(x, y) for x in range(n) for y in range(n)}
    local = {}
    for pair, mors in hom_lists.items():
        local.update({(pair, m): i for i, m in enumerate(mors)})
    homcat = {
        pair: catalog.discrete(len(mors), [cat.morphisms[m].name for m in mors])
        for pair, mors in hom_lists.items()
    }
    hcomp_one = {}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                table = {}
                for jg, g in enumerate(hom_lists[(y, z)]):
                    for jf, f in enumerate(hom_lists[(x, y)]):
                        table[(jg, jf)] = local[((x, z), cat.comp[(g, f)])]
                hcomp_one[(x, y, z)] = table
    units = tuple(local[((x, x), cat.identity[x])] for x in range(n))
    return bicat_from_parts(cat.objects, homcat, hcomp_one, units=units)


def bicat_adjacency(bicat: FinBicat) -> QMatrix:
    """Matrix of hom-category Euler characteristics in zero-cell order."""
    n = len(bicat.zero_cells)
    entries = []
    for i in range(n):
        for j in range(n):
            res = euler_char(bicat.homcat[(i, j)])
            if not res.exists:
                raise HomChiUndefinedError(
                    (bicat.zero_cells[i], bicat.zero_cells[j])
                )
            entries.append(res.value)
    return QMatrix(n, n, tuple(entries))


def bicat_euler_char(bicat: FinBicat) -> EulerResult:
    return euler_of_matrix(bicat_adjacency(bicat))


# --- Euler data ---------------------------------------------------------------


@dataclass(frozen=True)
class EulerDatum:
    """Recursive hom-size data: level 0 is a set size, level n >= 1 is a
    cell list with a level-(n-1) datum per ordered pair of cells."""

    level: int
    size: int | None = None
    cells: tuple[str, ...] | None = None
    hom: dict[tuple[int, int], "EulerDatum"] | None = None

    def __post_init__(self):
        if self.level < 0:
            raise FormatError("negative level")
        if self.level == 0:
            if self.size is None or self.size < 0:
                raise FormatError("level-0 datum needs a nonnegative size")
            if self.cells is not None or self.hom is not None:
                raise FormatError("level-0 datum carries only a size")
            return
        if self.size is not None:
            raise FormatError("positive-level datum must not carry a size")
        if self.cells is None or self.hom is None:
            raise FormatError("positive-level datum needs cells and hom data")
        object.__setattr__(self, "cells", tuple(str(c) for c in self.cells))
        n = len(self.cells)
        for key in self.hom:
            i, j = key
            if not (0 <= i < n and 0 <= j < n):
                raise FormatError(f"hom datum pair {key} out of range")
        for i in range(n):
            for j in range(n):
                sub = self.hom.get((i, j))
                if sub is None:
                    raise FormatError(f"missing hom datum for pair ({i},{j})")
                if sub.level != self.level - 1:
                    raise FormatError(
                        f"hom datum at ({i},{j}) has level {sub.level}, "
                        f"expected {self.level - 1}"
                    )


def datum_of_category(cat: FinCat) -> EulerDatum:
    """Level-1 datum recording the hom-set sizes of a category."""
    n = len(cat.objects)
    hom = {
        (i, j): EulerDatum(0, size=cat.hom_count(i, j))
        for i in range(n)
        for j in range(n)
    }
    return EulerDatum(1, cells=cat.objects, hom=hom)


def bicat_to_datum(bicat: FinBicat) -> EulerDatum:
    """Level-2 datum: zero-cells, then each hom-category's level-1 datum."""
    n = len(bicat.zero_cells)
    hom = {
        (i, j): datum_of_category(bicat.homcat[(i, j)])
        for i in range(n)
        for j in range(n)
    }
    return EulerDatum(2, cells=bicat.zero_cells, hom=hom)


def chi_n(datum: EulerDatum, _path: tuple = ()) -> EulerResult:
    """Euler characteristic of a datum at any level.

    Level 0 is the set size.  At level n the adjacency matrix collects the
    recursive characteristics of the hom data; if one of those does not
    exist the computation cannot proceed and HomChiUndefinedError reports
    the pair, its depth, and the descent path.  Non-existence at the top
    level itself is an ordinary EulerResult(exists=False).
    """
    if datum.level == 0:
        ones = tuple(Fraction(1) for _ in range(datum.size))
        return EulerResult(
            True,
            Fraction(datum.size),
            Weighting(ones, "weighting"),
            Weighting(ones, "coweighting"),
        )
    n = len(datum.cells)
    entries = []
    for i in range(n):
        for j in range(n):
            pair = (datum.cells[i], datum.cells[j])
            path = _path + (pair,)
            sub = chi_n(datum.hom[(i, j)], path)
            if not sub.exists:
                raise HomChiUndefinedError(pair, depth=len(path), path=path)
            entries.append(sub.value)
    return euler_of_matrix(QMatrix(n, n, tuple(entries)))


# --- internal equivalence ------------------------------------------------------


def internally_equivalent(bicat: FinBicat, x: int, y: int,
                          budget: int | None = None) -> bool:
    """1-cells f: x->y, g: y->x with both round trips isomorphic to units."""
    if x == y:
        return True
    limit = search_budget(budget)
    nodes = 0
    hom_xy = bicat.homcat[(x, y)]
    hom_yx = bicat.homcat[(y, x)]
    gf_table = bicat.hcomp_one[(x, y, x)]
    fg_table = bicat.hcomp_one[(y, x, y)]
    for f in range(len(hom_xy.objects)):
        for g in range(len(hom_yx.objects)):
            nodes += 1
            if nodes > limit:
                raise BudgetExceededError(limit)
            if objects_isomorphic(
                bicat.homcat[(x, x)], gf_table[(g, f)], bicat.unit_one_cell[x]
            ) and objects_isomorphic(
                bicat.homcat[(y, y)], fg_table[(f, g)], bicat.unit_one_cell[y]
            ):
                return True
    return False


def internal_equiv_classes(bicat: FinBicat, budget: int | None = None) -> IsoPartition:
    return _partition(
        len(bicat.zero_cells),
        lambda x, y: internally_equivalent(bicat, x, y, budget=budget),
    )


# --- JSON interchange ----------------------------------------------------------


def _split_key(key: str, parts: int, where: str, names: dict[str, int]) -> tuple[int, ...]:
    bits = key.split("|")
    if len(bits) != parts:
        raise FormatError(f"{where}: key {key!r} must have {parts} |-separated cells")
    out = []
    for b in bits:
        if b not in names:
            raise FormatError(f"{where}: unknown zero-cell {b!r} in key {key!r}")
        out.append(names[b])
    return tuple(out)


_BICAT_KEYS = {"zero_cells": list, "hom": dict, "hcomp": dict, "units": dict,
               "associators": list, "unitors": dict}
_HCOMP_KEYS = {"one_cells": list, "two_cells": list}
_ONE_CELL_KEYS = {"g": str, "f": str, "equals": str}
_TWO_CELL_KEYS = {"beta": str, "alpha": str, "equals": str}
_ASSOCIATOR_KEYS = {"path": str, "h": str, "g": str, "f": str, "equals": str}
_UNITOR_KEYS = {"path": str, "f": str, "equals": str}


def bicat_from_json(data: dict) -> FinBicat:
    _check_keys(data, _BICAT_KEYS, "bicategory",
                required=("zero_cells", "hom", "hcomp", "units"))
    zero_cells = data["zero_cells"]
    if not all(isinstance(z, str) for z in zero_cells):
        raise FormatError("bicategory: zero_cells must be a list of strings")
    if any("|" in z for z in zero_cells):
        raise FormatError("bicategory: zero-cell names may not contain '|'")
    if len(set(zero_cells)) != len(zero_cells):
        raise FormatError("bicategory: zero-cell names are not unique")
    names = {z: i for i, z in enumerate(zero_cells)}

    # Homs are decoded unchecked: bicat_violations checks each one once.
    homcat = {}
    for key, sub in data["hom"].items():
        pair = _split_key(key, 2, "hom", names)
        homcat[pair] = FinCat(*_category_parts(sub))
    n = len(zero_cells)
    for x in range(n):
        for y in range(n):
            homcat.setdefault((x, y), _EMPTY_CAT)

    def obj_index(cat: FinCat, name, where):
        try:
            return cat.objects.index(name)
        except ValueError:
            raise FormatError(f"{where}: unknown 1-cell {name!r}") from None

    def mor_index(cat: FinCat, name, where):
        for i, m in enumerate(cat.morphisms):
            if m.name == name:
                return i
        raise FormatError(f"{where}: unknown 2-cell {name!r}")

    hcomp_one: dict = {}
    hcomp_two: dict = {}
    for key, tables in data["hcomp"].items():
        x, y, z = _split_key(key, 3, "hcomp", names)
        _check_keys(tables, _HCOMP_KEYS, f"hcomp {key!r}", required=())
        one = {}
        for k, entry in enumerate(tables.get("one_cells", [])):
            where = f"hcomp {key!r} one_cells #{k}"
            _check_keys(entry, _ONE_CELL_KEYS, where)
            one[(obj_index(homcat[(y, z)], entry["g"], where),
                 obj_index(homcat[(x, y)], entry["f"], where))] = obj_index(
                homcat[(x, z)], entry["equals"], where)
        two = {}
        for k, entry in enumerate(tables.get("two_cells", [])):
            where = f"hcomp {key!r} two_cells #{k}"
            _check_keys(entry, _TWO_CELL_KEYS, where)
            two[(mor_index(homcat[(y, z)], entry["beta"], where),
                 mor_index(homcat[(x, y)], entry["alpha"], where))] = mor_index(
                homcat[(x, z)], entry["equals"], where)
        hcomp_one[(x, y, z)] = one
        hcomp_two[(x, y, z)] = two

    units_raw = data["units"]
    _check_keys(units_raw, dict.fromkeys(zero_cells, str), "units")
    units = tuple(
        obj_index(homcat[(names[z], names[z])], units_raw[z], f"units[{z!r}]")
        for z in zero_cells
    )

    associator = {}
    for k, entry in enumerate(data.get("associators", [])):
        where = f"associators #{k}"
        _check_keys(entry, _ASSOCIATOR_KEYS, where)
        x, y, z, w = _split_key(entry["path"], 4, where, names)
        associator[(x, y, z, w,
                    obj_index(homcat[(z, w)], entry["h"], where),
                    obj_index(homcat[(y, z)], entry["g"], where),
                    obj_index(homcat[(x, y)], entry["f"], where))] = mor_index(
            homcat[(x, w)], entry["equals"], where)

    left_unitor: dict = {}
    right_unitor: dict = {}
    unitors = data.get("unitors", {})
    _check_keys(unitors, {"left": list, "right": list}, "unitors", required=())
    for side, store in (("left", left_unitor), ("right", right_unitor)):
        for k, entry in enumerate(unitors.get(side, [])):
            where = f"unitors.{side} #{k}"
            _check_keys(entry, _UNITOR_KEYS, where)
            x, y = _split_key(entry["path"], 2, where, names)
            store[(x, y, obj_index(homcat[(x, y)], entry["f"], where))] = mor_index(
                homcat[(x, y)], entry["equals"], where)

    return bicat_from_parts(zero_cells, homcat, hcomp_one, hcomp_two, units,
                            associator, left_unitor, right_unitor)


def bicat_to_json(bicat: FinBicat) -> dict:
    """Inverse of bicat_from_json; inferable strict data is left implicit."""
    zc = bicat.zero_cells
    hom = {}
    for (x, y), cat in sorted(bicat.homcat.items()):
        if cat.objects:
            hom[f"{zc[x]}|{zc[y]}"] = category_to_json(cat)
    hcomp = {}
    for (x, y, z), table in sorted(bicat.hcomp_one.items()):
        if not table:
            continue
        hyz, hxy, hxz = bicat.homcat[(y, z)], bicat.homcat[(x, y)], bicat.homcat[(x, z)]
        one = [
            {"g": hyz.objects[g], "f": hxy.objects[f], "equals": hxz.objects[r]}
            for (g, f), r in sorted(table.items())
        ]
        two = []
        for (b, a), r in sorted(bicat.hcomp_two[(x, y, z)].items()):
            beta, alpha = hyz.morphisms[b], hxy.morphisms[a]
            if b == hyz.identity[beta.src] and a == hxy.identity[alpha.src]:
                continue  # inferable identity pair
            two.append({"beta": beta.name, "alpha": alpha.name, "equals": hxz.morphisms[r].name})
        entry: dict = {"one_cells": one}
        if two:
            entry["two_cells"] = two
        hcomp[f"{zc[x]}|{zc[y]}|{zc[z]}"] = entry
    units = {
        zc[x]: bicat.homcat[(x, x)].objects[u]
        for x, u in enumerate(bicat.unit_one_cell)
    }
    out = {"zero_cells": list(zc), "hom": hom, "hcomp": hcomp, "units": units}
    cells = {"associator": bicat.associator, "left": bicat.left_unitor,
             "right": bicat.right_unitor}
    rows: dict = {side: [] for side in cells}
    for side, key, cat, src, _ in _coherence_cells(len(zc), bicat.homcat,
                                                   bicat.hcomp_one, bicat.unit_one_cell):
        cell = cells[side].get(key)
        if cell is None or cell == cat.identity[src]:
            continue
        if side == "associator":
            x, y, z, w, h, g, f = key
            rows[side].append({
                "path": f"{zc[x]}|{zc[y]}|{zc[z]}|{zc[w]}",
                "h": bicat.homcat[(z, w)].objects[h],
                "g": bicat.homcat[(y, z)].objects[g],
                "f": bicat.homcat[(x, y)].objects[f],
                "equals": cat.morphisms[cell].name,
            })
        else:
            x, y, f = key
            rows[side].append({"path": f"{zc[x]}|{zc[y]}", "f": cat.objects[f],
                               "equals": cat.morphisms[cell].name})
    if rows["associator"]:
        out["associators"] = rows["associator"]
    unitors = {side: rows[side] for side in ("left", "right") if rows[side]}
    if unitors:
        out["unitors"] = unitors
    return out


_DATUM_LEAF_KEYS = {"level": int, "size": int}
_DATUM_KEYS = {"level": int, "cells": list, "hom": dict}


def datum_from_json(data: dict) -> EulerDatum:
    level = data.get("level") if isinstance(data, dict) else None
    _check_keys(data, _DATUM_LEAF_KEYS if level == 0 else _DATUM_KEYS, "datum")
    if level < 0:
        raise FormatError("datum: level must be a nonnegative integer")
    if level == 0:
        if data["size"] < 0:
            raise FormatError("datum: level 0 needs a nonnegative integer size")
        return EulerDatum(0, size=data["size"])
    cells = data["cells"]
    if not all(isinstance(c, str) for c in cells):
        raise FormatError("datum: cells must be a list of strings")
    if any("|" in c for c in cells):
        raise FormatError("datum: cell names may not contain '|'")
    if len(set(cells)) != len(cells):
        raise FormatError("datum: cell names are not unique")
    names = {c: i for i, c in enumerate(cells)}
    hom = {}
    for key, sub in data["hom"].items():
        pair = _split_key(key, 2, "datum hom", names)
        hom[pair] = datum_from_json(sub)
    return EulerDatum(level, cells=tuple(cells), hom=hom)


def datum_to_json(datum: EulerDatum) -> dict:
    if datum.level == 0:
        return {"level": 0, "size": datum.size}
    return {
        "level": datum.level,
        "cells": list(datum.cells),
        "hom": {
            f"{datum.cells[i]}|{datum.cells[j]}": datum_to_json(sub)
            for (i, j), sub in sorted(datum.hom.items())
        },
    }
