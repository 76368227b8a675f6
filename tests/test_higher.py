"""Bicategories, recursive characteristic data, internal equivalence."""

import json
from fractions import Fraction

import pytest

from eulerkit import (
    BudgetExceededError,
    EulerDatum,
    FinCat,
    FormatError,
    HomChiUndefinedError,
    ValidationError,
    bicat_adjacency,
    bicat_euler_char,
    bicat_from_json,
    bicat_from_parts,
    bicat_to_datum,
    bicat_to_json,
    bicat_violations,
    cat_as_bicat,
    catalog,
    chi_n,
    datum_from_json,
    datum_of_category,
    datum_to_json,
    equivalent,
    euler_char,
    internal_equiv_classes,
    internally_equivalent,
)
from eulerkit.cli import main
from oracles import oracle_chi

POOL = [
    catalog.arrow(),
    catalog.thick_arrow(),
    catalog.parallel_pair(),
    catalog.cyclic_group(2),
    catalog.codiscrete(3),
    catalog.chain(3),
    catalog.discrete(2),
]


def test_category_seen_as_bicategory_keeps_chi():
    for cat in POOL:
        bicat = cat_as_bicat(cat)
        want = euler_char(cat)
        got = bicat_euler_char(bicat)
        assert got.exists == want.exists and got.value == want.value


def test_adjacency_of_derived_bicategory_counts_homs():
    rows = bicat_adjacency(cat_as_bicat(catalog.thick_arrow())).to_rows()
    assert [list(r) for r in rows] == [[1, 1, 1], [1, 1, 1], [0, 0, 1]]


def test_stock_bicategories():
    # hom-characteristics all 1/2: the suspension doubles the point
    susp = catalog.suspension_z2()
    rows = [list(r) for r in bicat_adjacency(susp).to_rows()]
    assert rows == [[Fraction(1, 2)] * 2] * 2
    assert oracle_chi(rows) == (True, Fraction(2))
    assert bicat_euler_char(susp).value == Fraction(2)

    tri = catalog.upper_triangular_bicat()
    rows = [list(r) for r in bicat_adjacency(tri).to_rows()]
    assert rows == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1, 2)]]
    ok, val = oracle_chi(rows)
    assert ok and val == Fraction(-1)
    assert bicat_euler_char(tri).value == Fraction(-1)

    nw = catalog.no_weighting_bicat()
    rows = [list(r) for r in bicat_adjacency(nw).to_rows()]
    assert rows == [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]]
    assert oracle_chi(rows) == (False, None)
    res = bicat_euler_char(nw)
    assert not res.exists and res.value is None


def test_adjacency_refuses_characteristic_free_hom():
    # hom(x, y) has no characteristic, so no matrix entry can be written
    bad = catalog.undefined_hom_bicat()
    with pytest.raises(HomChiUndefinedError) as exc:
        bicat_adjacency(bad)
    assert tuple(exc.value.pair) == ("x", "y")
    assert exc.value.depth == 1


def test_from_parts_requires_units_and_unique_names():
    with pytest.raises(FormatError):
        bicat_from_parts(["x"], {(0, 0): catalog.discrete(1)}, {(0, 0, 0): {(0, 0): 0}})
    with pytest.raises(FormatError):
        bicat_from_parts(
            ["x", "x"],
            {(0, 0): catalog.discrete(1)},
            {(0, 0, 0): {(0, 0): 0}},
            units=[0, 0],
        )


def _one_object_idempotent_parts():
    """One 0-cell, one 1-cell, 2-cells {1, e} with e e = e."""
    hom = catalog.idempotent_monoid()
    homcat = {(0, 0): hom}
    hcomp_one = {(0, 0, 0): {(0, 0): 0}}
    one = hom.morphism_index("1")
    e = hom.morphism_index("e")
    mult = {
        (one, one): one,
        (one, e): e,
        (e, one): e,
        (e, e): e,
    }
    hcomp_two = {(0, 0, 0): mult}
    return homcat, hcomp_one, hcomp_two, e


def test_one_object_bicat_with_idempotent_two_cell():
    homcat, h1, h2, _ = _one_object_idempotent_parts()
    b = bicat_from_parts(["*"], homcat, h1, hcomp_two=h2, units=[0])
    # single hom of characteristic 1/2, so the weight doubles
    assert oracle_chi([[Fraction(1, 2)]]) == (True, Fraction(2))
    assert bicat_euler_char(b).value == Fraction(2)


def test_violations_flag_noninvertible_unitor():
    homcat, h1, h2, e = _one_object_idempotent_parts()
    with pytest.raises(ValidationError) as exc:
        bicat_from_parts(
            ["*"], homcat, h1, hcomp_two=h2, units=[0],
            left_unitor={(0, 0, 0): e},
        )
    assert any("invertible" in v for v in exc.value.violations)


def test_violations_flag_broken_tables():
    susp = catalog.suspension_z2()
    bad_one = {k: dict(v) for k, v in susp.hcomp_one.items()}
    bad_one[(0, 0, 0)][(0, 0)] = 7  # out of range
    v = bicat_violations(
        susp.zero_cells, susp.homcat, bad_one, susp.hcomp_two,
        susp.unit_one_cell, susp.associator, susp.left_unitor, susp.right_unitor,
    )
    assert v

    bad_two = {k: dict(v) for k, v in susp.hcomp_two.items()}
    key = next(iter(bad_two[(0, 0, 0)]))
    bad_two[(0, 0, 0)][key] = 1 - bad_two[(0, 0, 0)][key]
    v = bicat_violations(
        susp.zero_cells, susp.homcat, susp.hcomp_one, bad_two,
        susp.unit_one_cell, susp.associator, susp.left_unitor, susp.right_unitor,
    )
    assert v

    missing = {k: dict(v) for k, v in susp.hcomp_one.items()}
    del missing[(0, 1, 1)][(0, 0)]
    v = bicat_violations(
        susp.zero_cells, susp.homcat, missing, susp.hcomp_two,
        susp.unit_one_cell, susp.associator, susp.left_unitor, susp.right_unitor,
    )
    assert any("missing" in msg for msg in v)


def test_datum_construction_errors():
    with pytest.raises(FormatError):
        EulerDatum(0, size=-1)
    with pytest.raises(FormatError):
        EulerDatum(0, size=2, cells=("a",))
    with pytest.raises(FormatError):
        EulerDatum(1, cells=("a",), hom={})
    with pytest.raises(FormatError):
        EulerDatum(1, cells=("a",), hom={(0, 1): EulerDatum(0, size=1)})
    with pytest.raises(FormatError):
        EulerDatum(
            1,
            cells=("a",),
            hom={(0, 0): EulerDatum(1, cells=(), hom={})},
        )


def test_chi_levels_agree():
    assert chi_n(EulerDatum(0, size=5)).value == 5
    for cat in POOL:
        assert chi_n(datum_of_category(cat)).value == euler_char(cat).value
    for bicat in (
        catalog.suspension_z2(),
        catalog.upper_triangular_bicat(),
        cat_as_bicat(catalog.thick_arrow()),
    ):
        assert chi_n(bicat_to_datum(bicat)).value == bicat_euler_char(bicat).value
    nw = bicat_to_datum(catalog.no_weighting_bicat())
    res = chi_n(nw)
    assert not res.exists


def _tower_level3():
    """Two cells over [[1,1],[0,1]] with arrow-shaped hom towers."""
    arrow2 = bicat_to_datum(cat_as_bicat(catalog.arrow()))
    empty2 = EulerDatum(2, cells=(), hom={})
    return EulerDatum(
        3,
        cells=("a", "b"),
        hom={(0, 0): arrow2, (0, 1): arrow2, (1, 0): empty2, (1, 1): arrow2},
    )


def test_level_three_tower():
    # each hom tower has characteristic 1, so the top matrix is [[1,1],[0,1]]
    assert oracle_chi([[1, 1], [0, 1]]) == (True, Fraction(1))
    res = chi_n(_tower_level3())
    assert res.exists and res.value == Fraction(1)


def test_undefined_hom_characteristic_carries_path():
    nw2 = bicat_to_datum(catalog.no_weighting_bicat())
    ok2 = bicat_to_datum(cat_as_bicat(catalog.arrow()))
    datum = EulerDatum(
        3,
        cells=("a", "b"),
        hom={(0, 0): nw2, (0, 1): ok2, (1, 0): ok2, (1, 1): ok2},
    )
    with pytest.raises(HomChiUndefinedError) as exc:
        chi_n(datum)
    assert exc.value.depth == 1
    assert ("a", "a") in (tuple(exc.value.pair),)
    assert "depth 1" in str(exc.value)


def test_internal_equivalence_classes():
    ta = cat_as_bicat(catalog.thick_arrow())
    part = internal_equiv_classes(ta)
    assert sorted(map(sorted, part.classes())) == [[0, 1], [2]]

    assert internal_equiv_classes(catalog.suspension_z2()).classes() == [[0, 1]]
    assert internal_equiv_classes(catalog.upper_triangular_bicat()).classes() == [
        [0],
        [1],
    ]
    assert internal_equiv_classes(cat_as_bicat(catalog.codiscrete(3))).classes() == [
        [0, 1, 2]
    ]


def test_internal_equivalence_basics():
    susp = catalog.suspension_z2()
    assert internally_equivalent(susp, 0, 0)
    assert internally_equivalent(susp, 0, 1)
    with pytest.raises(BudgetExceededError):
        internally_equivalent(susp, 0, 1, budget=0)


def test_equivalent_zero_cells_have_equivalent_homs():
    ta = cat_as_bicat(catalog.thick_arrow())
    part = internal_equiv_classes(ta)
    for cls in part.classes():
        for x in cls:
            for y in cls:
                for z in range(len(ta.zero_cells)):
                    assert equivalent(ta.hom(x, z), ta.hom(y, z))
                    assert equivalent(ta.hom(z, x), ta.hom(z, y))


def test_bicat_json_roundtrip():
    for bicat in (
        catalog.suspension_z2(),
        catalog.upper_triangular_bicat(),
        catalog.no_weighting_bicat(),
        cat_as_bicat(catalog.thick_arrow()),
    ):
        assert bicat_from_json(bicat_to_json(bicat)) == bicat


def test_bicat_json_rejects_bad_documents():
    doc = bicat_to_json(catalog.suspension_z2())
    doc["extra"] = 1
    with pytest.raises(FormatError):
        bicat_from_json(doc)
    doc = bicat_to_json(catalog.suspension_z2())
    doc["zero_cells"] = ["a|b", "c"]
    with pytest.raises(FormatError):
        bicat_from_json(doc)
    doc = bicat_to_json(catalog.suspension_z2())
    doc["units"] = {"x": "e0"}
    with pytest.raises(FormatError):
        bicat_from_json(doc)


def test_datum_json_roundtrip():
    data = [
        EulerDatum(0, size=3),
        datum_of_category(catalog.thick_arrow()),
        bicat_to_datum(catalog.upper_triangular_bicat()),
        _tower_level3(),
    ]
    for datum in data:
        assert datum_from_json(datum_to_json(datum)) == datum
    with pytest.raises(FormatError):
        datum_from_json({"level": 1, "cells": ["a"], "hom": {}, "junk": 0})


def _z2_two_group_doc(associator="gt"):
    """The 2-group with pi_1 = pi_2 = Z/2 whose associator is the cocycle
    xyz generating H^3(Z/2; Z/2): one zero-cell *, 1-cells e and t, each
    with automorphisms {1, g}; horizontal composition adds mod 2 on 1-cells
    and on 2-cells, and the associator at (t, t, t) is the given 2-cell."""
    hom = {
        "objects": ["e", "t"],
        "morphisms": [{"name": f"{c}{o}", "src": o, "tgt": o} for o in "et" for c in "1g"],
        "identities": {"e": "1e", "t": "1t"},
        "composition": [{"first": f"g{o}", "then": f"g{o}", "equals": f"1{o}"} for o in "et"],
    }
    add = {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"}
    two = [
        {"beta": f"{b}{g}", "alpha": f"{a}{f}",
         "equals": f"{'1g'[(b == 'g') != (a == 'g')]}{add[(g, f)]}"}
        for g in "et" for b in "1g" for f in "et" for a in "1g"
    ]
    return {
        "zero_cells": ["*"],
        "hom": {"*|*": hom},
        "hcomp": {"*|*|*": {
            "one_cells": [{"g": g, "f": f, "equals": add[(g, f)]} for (g, f) in add],
            "two_cells": two,
        }},
        "units": {"*": "e"},
        "associators": [
            {"path": "*|*|*|*", "h": "t", "g": "t", "f": "t", "equals": associator}
        ],
    }


def test_weak_two_group(tmp_path, capsys):
    doc = _z2_two_group_doc()
    bicat = bicat_from_json(doc)
    out = bicat_to_json(bicat)
    assert out["associators"] == [
        {"path": "*|*|*|*", "h": "t", "g": "t", "f": "t", "equals": "gt"}
    ]
    assert "unitors" not in out
    assert bicat_from_json(out) == bicat
    assert oracle_chi([[1]]) == (True, Fraction(1))
    assert bicat_euler_char(bicat).value == Fraction(1)
    path = tmp_path / "two_group.json"
    path.write_text(json.dumps(doc))
    assert main(["chi-bicat", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "chi = 1"

    with pytest.raises(ValidationError) as exc:
        bicat_from_json(_z2_two_group_doc(associator="ge"))
    assert exc.value.violations == [
        "associator(*,*,*,*; h=1,g=1,f=1): endpoints 0->0, expected 1->1"
    ]


def _idempotent_bicat():
    homcat, h1, h2, _ = _one_object_idempotent_parts()
    return bicat_from_parts(["*"], homcat, h1, hcomp_two=h2, units=[0])


def _with_extra_composite(cat, pair, value):
    return FinCat(cat.objects, cat.morphisms, cat.identity, {**cat.comp, pair: value})


H = "hcomp(*,*,*): "
NF = H + "horizontal composition is not functorial at "
ASSOC = "associator(*,*,*,*; h=1,g=1,f=1): "

# One single-entry edit per kind of violation, with the full report it gives.
# In the 2-group, 1-cells are 0 = e, 1 = t and 2-cells 0 = 1e, 1 = ge,
# 2 = 1t, 3 = gt; in the idempotent bicategory 2-cell 1 is e with e e = e.
PINNED_VIOLATIONS = [
    ("broken hom-category", "two_group",
     lambda p: p["homcat"].update({(0, 0): _with_extra_composite(p["homcat"][(0, 0)], (3, 1), 3)}),
     ["hom(*,*): composite defined for non-composable pair (g=3, f=1)"]),
    ("unit out of range", "two_group", lambda p: p.update(units=(2,)),
     ["unit 1-cell of * is out of range"]),
    ("1-cell composite missing", "two_group", lambda p: p["hcomp_one"][(0, 0, 0)].pop((1, 1)),
     [H + "missing 1-cell composite for (1, 1)"]),
    ("1-cell composite on out-of-range pair", "two_group",
     lambda p: p["hcomp_one"][(0, 0, 0)].update({(2, 0): 0}),
     [H + "1-cell composite on out-of-range pair (2, 0)"]),
    ("1-cell composite out of range", "two_group",
     lambda p: p["hcomp_one"][(0, 0, 0)].update({(1, 1): 2}),
     [H + "1-cell composite (1, 1) -> 2 out of range",
      H + "2-cell composite (2, 2) has source 0, expected 2",
      H + "2-cell composite (2, 2) has target 0, expected 2",
      H + "2-cell composite (2, 3) has source 0, expected 2",
      H + "2-cell composite (2, 3) has target 0, expected 2",
      H + "2-cell composite (3, 2) has source 0, expected 2",
      H + "2-cell composite (3, 2) has target 0, expected 2",
      H + "2-cell composite (3, 3) has source 0, expected 2",
      H + "2-cell composite (3, 3) has target 0, expected 2",
      "associator(*,*,*,*; h=1,g=0,f=1): endpoints 0->0, expected 2->2"]),
    # e e = t moves the endpoints of cells of every kind: pins their report order
    ("1-cell composite of the units", "two_group",
     lambda p: p["hcomp_one"][(0, 0, 0)].update({(0, 0): 1}),
     [H + "2-cell composite (0, 0) has source 0, expected 1",
      H + "2-cell composite (0, 0) has target 0, expected 1",
      H + "2-cell composite (0, 1) has source 0, expected 1",
      H + "2-cell composite (0, 1) has target 0, expected 1",
      H + "2-cell composite (1, 0) has source 0, expected 1",
      H + "2-cell composite (1, 0) has target 0, expected 1",
      H + "2-cell composite (1, 1) has source 0, expected 1",
      H + "2-cell composite (1, 1) has target 0, expected 1",
      "associator(*,*,*,*; h=0,g=0,f=0): endpoints 0->0, expected 1->1",
      "associator(*,*,*,*; h=0,g=0,f=1): endpoints 1->1, expected 0->1",
      "associator(*,*,*,*; h=0,g=1,f=1): endpoints 0->0, expected 0->1",
      "associator(*,*,*,*; h=1,g=0,f=0): endpoints 1->1, expected 1->0",
      "associator(*,*,*,*; h=1,g=1,f=0): endpoints 0->0, expected 1->0",
      "left unitor(*,*; f=0): endpoints 0->0, expected 1->0",
      "right unitor(*,*; f=0): endpoints 0->0, expected 1->0"]),
    ("2-cell composite missing", "two_group", lambda p: p["hcomp_two"][(0, 0, 0)].pop((3, 3)),
     [H + "missing 2-cell composite for (3, 3)"]),
    ("2-cell composite on out-of-range pair", "two_group",
     lambda p: p["hcomp_two"][(0, 0, 0)].update({(4, 0): 0}),
     [H + "2-cell composite on out-of-range pair (4, 0)"]),
    ("2-cell composite out of range", "two_group",
     lambda p: p["hcomp_two"][(0, 0, 0)].update({(3, 3): 4}),
     [H + "2-cell composite (3, 3) -> 4 out of range"]),
    ("2-cell composite endpoints", "two_group",
     lambda p: p["hcomp_two"][(0, 0, 0)].update({(3, 3): 2}),
     [H + "2-cell composite (3, 3) has source 1, expected 0",
      H + "2-cell composite (3, 3) has target 1, expected 0"]),
    ("identity 2-cells", "two_group", lambda p: p["hcomp_two"][(0, 0, 0)].update({(0, 0): 1}),
     [H + "identity 2-cells at (0, 0) do not compose to an identity",
      NF + "((0,0) . (0,0))", NF + "((0,1) . (0,0))", NF + "((1,0) . (0,0))",
      NF + "((1,1) . (0,0))", NF + "((0,0) . (0,1))", NF + "((0,1) . (0,1))",
      NF + "((0,0) . (1,0))", NF + "((1,0) . (1,0))", NF + "((0,0) . (1,1))",
      NF + "((1,1) . (1,1))"]),
    ("not functorial", "two_group", lambda p: p["hcomp_two"][(0, 0, 0)].update({(1, 1): 1}),
     [NF + "((1,0) . (0,1))", NF + "((1,1) . (0,1))", NF + "((0,1) . (1,0))",
      NF + "((1,1) . (1,0))", NF + "((0,1) . (1,1))", NF + "((1,0) . (1,1))"]),
    ("associator missing", "two_group", lambda p: p["associator"].pop((0, 0, 0, 0, 1, 1, 1)),
     [ASSOC + "missing"]),
    ("associator out of range", "two_group",
     lambda p: p["associator"].update({(0, 0, 0, 0, 1, 1, 1): 4}),
     [ASSOC + "cell index out of range"]),
    ("associator endpoints", "two_group",
     lambda p: p["associator"].update({(0, 0, 0, 0, 1, 1, 1): 1}),
     [ASSOC + "endpoints 0->0, expected 1->1"]),
    ("associator not invertible", "idempotent",
     lambda p: p["associator"].update({(0, 0, 0, 0, 0, 0, 0): 1}),
     ["associator(*,*,*,*; h=0,g=0,f=0): not invertible"]),
    ("left unitor missing", "two_group", lambda p: p["left_unitor"].pop((0, 0, 1)),
     ["left unitor(*,*; f=1): missing"]),
    ("left unitor out of range", "two_group", lambda p: p["left_unitor"].update({(0, 0, 1): -1}),
     ["left unitor(*,*; f=1): cell index out of range"]),
    ("left unitor endpoints", "two_group", lambda p: p["left_unitor"].update({(0, 0, 1): 0}),
     ["left unitor(*,*; f=1): endpoints 0->0, expected 1->1"]),
    ("left unitor not invertible", "idempotent",
     lambda p: p["left_unitor"].update({(0, 0, 0): 1}),
     ["left unitor(*,*; f=0): not invertible"]),
    ("right unitor missing", "two_group", lambda p: p["right_unitor"].pop((0, 0, 0)),
     ["right unitor(*,*; f=0): missing"]),
    ("right unitor out of range", "two_group", lambda p: p["right_unitor"].update({(0, 0, 0): 4}),
     ["right unitor(*,*; f=0): cell index out of range"]),
    ("right unitor endpoints", "two_group", lambda p: p["right_unitor"].update({(0, 0, 0): 3}),
     ["right unitor(*,*; f=0): endpoints 1->1, expected 0->0"]),
    ("right unitor not invertible", "idempotent",
     lambda p: p["right_unitor"].update({(0, 0, 0): 1}),
     ["right unitor(*,*; f=0): not invertible"]),
]


@pytest.mark.parametrize(
    "base, edit, expected",
    [case[1:] for case in PINNED_VIOLATIONS],
    ids=[case[0] for case in PINNED_VIOLATIONS],
)
def test_each_violation_kind_reports_its_exact_list(base, edit, expected):
    b = bicat_from_json(_z2_two_group_doc()) if base == "two_group" else _idempotent_bicat()
    assert bicat_violations(b.zero_cells, b.homcat, b.hcomp_one, b.hcomp_two, b.unit_one_cell,
                            b.associator, b.left_unitor, b.right_unitor) == []
    parts = {
        "zero_cells": b.zero_cells,
        "homcat": dict(b.homcat),
        "hcomp_one": {k: dict(v) for k, v in b.hcomp_one.items()},
        "hcomp_two": {k: dict(v) for k, v in b.hcomp_two.items()},
        "units": b.unit_one_cell,
        "associator": dict(b.associator),
        "left_unitor": dict(b.left_unitor),
        "right_unitor": dict(b.right_unitor),
    }
    edit(parts)
    assert bicat_violations(**parts) == expected


def test_from_parts_rejects_out_of_range_hcomp_key():
    with pytest.raises(FormatError, match=r"hcomp key \(0,0,1\) out of range"):
        bicat_from_parts(
            ["x"],
            {(0, 0): catalog.discrete(1)},
            {(0, 0, 0): {(0, 0): 0}, (0, 0, 1): {}},
            units=[0],
        )
    with pytest.raises(FormatError, match=r"hcomp key \(0,2,0\) out of range"):
        bicat_from_parts(
            ["x"],
            {(0, 0): catalog.discrete(1)},
            {(0, 0, 0): {(0, 0): 0}},
            hcomp_two={(0, 2, 0): {}},
            units=[0],
        )


# Out-of-range 1-cell composites and a short unit list used to reach a raw
# IndexError while the identity defaults were filled in.
@pytest.mark.parametrize(
    "hcomp_one, units, message",
    [
        ({(0, 0, 0): {(0, 0): 5}}, [0], r"hcomp\(x,x,x\): 1-cell composite \(0, 0\) -> 5 out of range"),
        ({(0, 0, 0): {(3, 0): 0}}, [0], r"hcomp\(x,x,x\): 1-cell composite \(3, 0\) -> 0 out of range"),
        ({(0, 0, 0): {(0, 0): 0}}, [], r"units: list length 0 != zero-cell count 1"),
    ],
    ids=["composite value", "composite key", "short unit list"],
)
def test_from_parts_names_the_bad_entry(hcomp_one, units, message):
    with pytest.raises(FormatError, match=message):
        bicat_from_parts(["x"], {(0, 0): catalog.discrete(1)}, hcomp_one, units=units)


def test_hom_missing_a_composite_is_reported_not_raised():
    # Functoriality used to look the missing composite up and raise KeyError.
    z2 = catalog.cyclic_group(2)
    comp = dict(z2.comp)
    del comp[(1, 1)]
    broken = FinCat(z2.objects, z2.morphisms, z2.identity, comp)
    two = {(b, a): (a + b) % 2 for b in range(2) for a in range(2)}
    with pytest.raises(ValidationError) as exc:
        bicat_from_parts(["*"], {(0, 0): broken}, {(0, 0, 0): {(0, 0): 0}},
                         {(0, 0, 0): two}, units=[0])
    assert exc.value.violations == [
        "hom(*,*): missing composite for composable pair (g=1, f=1)"
    ]
