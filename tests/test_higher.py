"""Bicategories, recursive characteristic data, internal equivalence."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    category_from_json,
    category_to_json,
    chi_n,
    datum_from_json,
    datum_of_category,
    datum_to_json,
    equivalent,
    euler_char,
    euler_of_matrix,
    internal_equiv_classes,
    internally_equivalent,
    product,
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


def _renamed(datum, prefix):
    """An equal-shaped copy of `datum` with every cell name prefixed."""
    if datum.level == 0:
        return EulerDatum(0, size=datum.size)
    return EulerDatum(
        datum.level,
        cells=tuple(prefix + c for c in datum.cells),
        hom={pair: _renamed(sub, prefix) for pair, sub in datum.hom.items()},
    )


def _shape(datum, positive):
    """Shape of `datum` without its names; adds every positive-level shape
    at or below it to `positive`."""
    if datum.level == 0:
        return datum.size
    n = len(datum.cells)
    shape = (n, tuple(_shape(datum.hom[(i, j)], positive) for i in range(n) for j in range(n)))
    positive.add(shape)
    return shape


def _square(level, cells, homs):
    n = len(cells)
    return EulerDatum(level, cells=cells,
                      hom={(i, j): homs[i * n + j] for i in range(n) for j in range(n)})


def test_chi_n_solves_each_distinct_shape_once(monkeypatch):
    arrow2 = bicat_to_datum(cat_as_bicat(catalog.arrow()))
    susp2 = bicat_to_datum(catalog.suspension_z2())
    # shared objects, renamed copies and fresh data of the same shapes
    pool = [arrow2, susp2, _renamed(arrow2, "x."), _renamed(susp2, "y."), arrow2]
    tower = _square(3, ("a", "b", "c"), [pool[k % 5] for k in range(9)])
    positive: set = set()
    _shape(tower, positive)

    solved = []

    def counted(matrix):
        solved.append(matrix)
        return euler_of_matrix(matrix)

    monkeypatch.setattr("eulerkit.higher.euler_of_matrix", counted)
    res = chi_n(tower)
    assert len(solved) == len(positive) == 6
    assert len(set(solved)) == len(solved)

    rows = [[chi_n(tower.hom[(i, j)]).value for j in range(3)] for i in range(3)]
    assert (res.exists, res.value) == oracle_chi(rows)


def test_first_failing_descent_names_its_own_position():
    good = datum_of_category(catalog.arrow())
    bad = EulerDatum(1, cells=("z",), hom={(0, 0): EulerDatum(0, size=0)})  # [[0]]
    x = _square(2, ("p", "q"), [good] * 4)
    # good repeats before and after bad inside y, and x before and after y
    y = _square(2, ("r", "s"), [_renamed(good, "g."), bad, good, _renamed(bad, "h.")])
    w = _square(2, ("u", "v"), [bad, good, good, good])
    tower = _square(3, ("a", "b"), [x, y, x, w])
    with pytest.raises(HomChiUndefinedError) as exc:
        chi_n(tower)
    assert exc.value.pair == ("r", "s")
    assert exc.value.depth == 2
    assert exc.value.path == (("a", "b"), ("r", "s"))
    assert str(exc.value) == "hom-EC undefined at depth 2, pair (r,s) via (a,b) -> (r,s)"


def test_shared_and_renamed_sub_data_give_equal_results():
    tri2 = bicat_to_datum(catalog.upper_triangular_bicat())
    arrow2 = bicat_to_datum(cat_as_bicat(catalog.arrow()))
    empty2 = EulerDatum(2, cells=(), hom={})
    shared = _square(3, ("a", "b"), [tri2, arrow2, empty2, tri2])
    copies = _square(3, ("u", "v"), [_renamed(tri2, "1."), _renamed(arrow2, "2."),
                                     EulerDatum(2, cells=(), hom={}), _renamed(tri2, "3.")])
    got = chi_n(shared)
    assert got.exists and got.witness_weighting and got.witness_coweighting
    assert got == chi_n(copies)
    # the top matrix is [[-1, 1], [0, -1]], as each hom solved on its own gives
    rows = [[chi_n(shared.hom[(i, j)]).value for j in range(2)] for i in range(2)]
    assert rows == [[-1, 1], [0, -1]]
    assert oracle_chi(rows) == (True, got.value)


def _one_cell_tower(levels, leaf_size):
    node = EulerDatum(0, size=leaf_size)
    for level in range(1, levels + 1):
        node = EulerDatum(level, cells=(f"c{level}",), hom={(0, 0): node})
    return node


def test_chi_n_depth_is_not_bounded_by_recursion():
    # chi alternates 1/2, 2, 1/2, ... up the levels of [[2]], [[1/2]], ...
    res = chi_n(_one_cell_tower(3000, 2))
    assert res.exists and res.value == 2
    assert res.witness_weighting.values == (Fraction(2),)
    # [[0]] at level 1 has no weighting: the level-2 cell above it names it
    with pytest.raises(HomChiUndefinedError) as exc:
        chi_n(_one_cell_tower(3000, 0))
    assert exc.value.pair == ("c2", "c2")
    assert exc.value.depth == 2999
    assert exc.value.path == tuple((f"c{k}", f"c{k}") for k in range(3000, 1, -1))


def test_level_zero_sizes_past_the_budget(monkeypatch):
    # below the top only the size enters a matrix, so no witness is listed
    huge = EulerDatum(1, cells=("a",), hom={(0, 0): EulerDatum(0, size=10**30)})
    assert chi_n(huge).value == Fraction(1, 10**30)
    # a top-level set lists one weight per element, at most the budget
    monkeypatch.setenv("EULERKIT_BUDGET", "4")
    assert chi_n(EulerDatum(0, size=4)).witness_weighting.values == (Fraction(1),) * 4
    with pytest.raises(BudgetExceededError) as exc:
        chi_n(EulerDatum(0, size=5))
    assert str(exc.value) == "search budget of 4 nodes exceeded in chi_n witness"


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


def test_internal_equivalence_basics(monkeypatch):
    susp = catalog.suspension_z2()
    assert internally_equivalent(susp, 0, 0)
    assert internally_equivalent(susp, 0, 1)
    retract = cat_as_bicat(product(catalog.walking_retract(), catalog.cyclic_group(2)))
    assert not internally_equivalent(retract, 0, 1)
    monkeypatch.setenv("EULERKIT_BUDGET", "3")
    with pytest.raises(BudgetExceededError) as caught:
        internally_equivalent(retract, 0, 1)
    assert caught.value.search == "internally_equivalent"


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


# Every place a bicategory file names a 1-cell or a 2-cell, with the message
# an unknown name there gives.
@pytest.mark.parametrize(
    "path, message",
    [
        (("hcomp", "x|x|y", "one_cells", 0, "g"), "hcomp 'x|x|y' one_cells #0: unknown 1-cell"),
        (("hcomp", "x|x|y", "one_cells", 0, "f"), "hcomp 'x|x|y' one_cells #0: unknown 1-cell"),
        (("hcomp", "x|x|y", "one_cells", 0, "equals"), "hcomp 'x|x|y' one_cells #0: unknown 1-cell"),
        (("hcomp", "x|x|y", "two_cells", 1, "beta"), "hcomp 'x|x|y' two_cells #1: unknown 2-cell"),
        (("hcomp", "x|x|y", "two_cells", 1, "alpha"), "hcomp 'x|x|y' two_cells #1: unknown 2-cell"),
        (("hcomp", "x|x|y", "two_cells", 1, "equals"), "hcomp 'x|x|y' two_cells #1: unknown 2-cell"),
        (("units", "y"), "units['y']: unknown 1-cell"),
        (("associators", 0, "h"), "associators #0: unknown 1-cell"),
        (("associators", 0, "g"), "associators #0: unknown 1-cell"),
        (("associators", 0, "f"), "associators #0: unknown 1-cell"),
        (("associators", 0, "equals"), "associators #0: unknown 2-cell"),
        (("unitors", "left", 0, "f"), "unitors.left #0: unknown 1-cell"),
        (("unitors", "right", 0, "equals"), "unitors.right #0: unknown 2-cell"),
    ],
)
def test_bicat_json_names_an_unknown_cell(path, message):
    doc = bicat_to_json(catalog.suspension_z2())
    doc["associators"] = [{"path": "x|y|x|y", "h": "*", "g": "*", "f": "*", "equals": "g0"}]
    doc["unitors"] = {side: [{"path": "y|x", "f": "*", "equals": "g0"}]
                      for side in ("left", "right")}
    assert bicat_from_json(doc) == catalog.suspension_z2()
    *inner, last = path
    target = doc
    for key in inner:
        target = target[key]
    target[last] = "nope"
    with pytest.raises(FormatError) as exc:
        bicat_from_json(doc)
    assert str(exc.value) == f"{message} 'nope'"


def _weak_z2_doc():
    """suspension_z2 with an associator and both unitors written out."""
    doc = bicat_to_json(catalog.suspension_z2())
    doc["associators"] = [{"path": "x|y|x|y", "h": "*", "g": "*", "f": "*", "equals": "g0"}]
    doc["unitors"] = {side: [{"path": "y|x", "f": "*", "equals": "g0"}]
                      for side in ("left", "right")}
    return doc


def _put(*path_and_value):
    *inner, last, value = path_and_value

    def edit(doc):
        for key in inner:
            doc = doc[key]
        doc[last] = value
    return edit


def _drop(*path):
    *inner, last = path

    def edit(doc):
        for key in inner:
            doc = doc[key]
        del doc[last]
    return edit


def _retract_doc():
    return category_to_json(catalog.walking_retract())


def _z2_datum_doc():
    return datum_to_json(bicat_to_datum(catalog.suspension_z2()))


# One malformed document per kind of list entry and per list of names the
# three loaders read, with the exact message.  Where a document has two
# faults, the one reported first is pinned: a morphism's source before its
# target, a composite's result before its factors, a separator before a
# repeated name, and in a datum, read depth first, a hom key before its
# datum and a node's own checks after its hom data.
LOADER_ERRORS = [
    ("morphism row", category_from_json, _retract_doc, [_drop("morphisms", 2, "tgt")],
     "morphism #2: missing key 'tgt'"),
    ("morphism object", category_from_json, _retract_doc,
     [_put("morphisms", 3, "tgt", "q")], "morphism #3: unknown object 'q'"),
    ("source before target", category_from_json, _retract_doc,
     [_put("morphisms", 3, "src", "p"), _put("morphisms", 3, "tgt", "q")],
     "morphism #3: unknown object 'p'"),
    ("composition row", category_from_json, _retract_doc,
     [_put("composition", 1, "equals", 3)], "composition #1: 'equals' must be a string"),
    ("composition morphism", category_from_json, _retract_doc,
     [_put("composition", 4, "then", "q")], "composition #4: unknown morphism 'q'"),
    ("conflicting duplicate", category_from_json, _retract_doc,
     [_put("composition", [{"first": "r", "then": "s", "equals": "e"},
                           {"first": "r", "then": "s", "equals": "1b"}])],
     "composition #1: conflicting duplicate for (first='r', then='s')"),
    ("objects", category_from_json, _retract_doc, [_put("objects", 1, 7)],
     "category: objects must be a list of strings"),
    ("object names", category_from_json, _retract_doc, [_put("objects", ["a", "a"])],
     "category: object names are not unique"),
    ("morphism names", category_from_json, _retract_doc, [_put("morphisms", 4, "name", "r")],
     "category: morphism names are not unique"),
    ("hom row", bicat_from_json, _weak_z2_doc, [_drop("hom", "x|y", "morphisms", 1, "src")],
     "morphism #1: missing key 'src'"),
    ("one_cells", bicat_from_json, _weak_z2_doc,
     [_drop("hcomp", "x|x|y", "one_cells", 0, "g")], "hcomp 'x|x|y' one_cells #0: missing key 'g'"),
    ("composite before factors", bicat_from_json, _weak_z2_doc,
     [_put("hcomp", "x|x|y", "one_cells", 0, "g", "p"),
      _put("hcomp", "x|x|y", "one_cells", 0, "equals", "q")],
     "hcomp 'x|x|y' one_cells #0: unknown 1-cell 'q'"),
    ("two_cells", bicat_from_json, _weak_z2_doc,
     [_put("hcomp", "y|x|y", "two_cells", 2, "alpha", None)],
     "hcomp 'y|x|y' two_cells #2: 'alpha' must be a string"),
    ("associators", bicat_from_json, _weak_z2_doc, [_put("associators", 0, "extra", 1)],
     "associators #0: unknown keys ['extra']"),
    ("unitors.left", bicat_from_json, _weak_z2_doc, [_put("unitors", "left", 0, "x")],
     "unitors.left #0: expected an object"),
    ("unitors.right", bicat_from_json, _weak_z2_doc, [_put("unitors", "right", 0, "f", 0)],
     "unitors.right #0: 'f' must be a string"),
    ("zero_cells", bicat_from_json, _weak_z2_doc, [_put("zero_cells", ["x", None])],
     "bicategory: zero_cells must be a list of strings"),
    ("zero-cell separator", bicat_from_json, _weak_z2_doc, [_put("zero_cells", ["x|", "y"])],
     "bicategory: zero-cell names may not contain '|'"),
    ("zero-cell names", bicat_from_json, _weak_z2_doc, [_put("zero_cells", ["x", "x"])],
     "bicategory: zero-cell names are not unique"),
    ("separator before repeats", bicat_from_json, _weak_z2_doc, [_put("zero_cells", ["x|", "x|"])],
     "bicategory: zero-cell names may not contain '|'"),
    ("cells", datum_from_json, _z2_datum_doc, [_put("cells", ["x", 3])],
     "datum: cells must be a list of strings"),
    ("cell separator", datum_from_json, _z2_datum_doc, [_put("hom", "x|y", "cells", ["*|"])],
     "datum: cell names may not contain '|'"),
    ("cell names", datum_from_json, _z2_datum_doc, [_put("cells", ["x", "x"])],
     "datum: cell names are not unique"),
    ("deep error first", datum_from_json, _z2_datum_doc,
     [_put("hom", "x|x", "hom", "*|*", "size", -1), _put("hom", "x|y", "cells", 0)],
     "datum: level 0 needs a nonnegative integer size"),
    ("child checks first", datum_from_json, _z2_datum_doc,
     [_put("hom", "x|y", "hom", {}), _drop("hom", "y|y")],
     "missing hom datum for pair (0,0)"),
    ("key before its datum", datum_from_json, _z2_datum_doc,
     [_put("hom", "x|y", "hom", "*|q", {"level": -1})],
     "datum hom: unknown zero-cell 'q' in key '*|q'"),
]


@pytest.mark.parametrize(
    "load, base, edits, message",
    [case[1:] for case in LOADER_ERRORS],
    ids=[case[0] for case in LOADER_ERRORS],
)
def test_loader_errors_keep_their_wording(load, base, edits, message):
    doc = base()
    load(doc)
    for edit in edits:
        edit(doc)
    with pytest.raises(FormatError) as exc:
        load(doc)
    assert str(exc.value) == message


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


def test_datum_to_json_depth_is_not_bounded_by_recursion():
    doc = datum_to_json(_one_cell_tower(3000, 2))
    for level in range(3000, 0, -1):
        assert list(doc) == ["level", "cells", "hom"]
        assert doc["level"] == level and doc["cells"] == [f"c{level}"]
        ((key, doc),) = doc["hom"].items()
        assert key == f"c{level}|c{level}"
    assert doc == {"level": 0, "size": 2}


@pytest.mark.parametrize("levels", [1, 400])
def test_one_cell_towers_round_trip(levels):
    tower = _one_cell_tower(levels, 3)
    back = datum_from_json(json.loads(json.dumps(datum_to_json(tower))))
    # == on EulerDatum recurses once per level, so compare level by level
    while tower.level:
        assert (back.level, back.cells, list(back.hom)) == (tower.level, tower.cells, [(0, 0)])
        tower, back = tower.hom[(0, 0)], back.hom[(0, 0)]
    assert back == tower


def test_datum_from_json_depth_is_not_bounded_by_recursion():
    tower = _one_cell_tower(3000, 2)
    back = datum_from_json(datum_to_json(tower))
    res = chi_n(back)
    assert res == chi_n(tower) and res.value == 2
    while tower.level:
        assert (back.level, back.cells, list(back.hom)) == (tower.level, tower.cells, [(0, 0)])
        tower, back = tower.hom[(0, 0)], back.hom[(0, 0)]
    assert back == tower


def test_datum_from_json_shares_equal_sub_data():
    arrow = datum_to_json(bicat_to_datum(cat_as_bicat(catalog.arrow())))
    copy = json.loads(json.dumps(arrow))
    empty = {"level": 2, "cells": [], "hom": {}}
    doc = {"level": 3, "cells": ["a", "b"],
           "hom": {"a|a": arrow, "a|b": copy, "b|a": empty, "b|b": arrow}}
    back = datum_from_json(doc)
    # one dict object twice and an equal copy come out as one node
    assert back.hom[(0, 0)] is back.hom[(0, 1)] is back.hom[(1, 1)]
    assert back.hom[(1, 0)] == EulerDatum(2, cells=(), hom={})
    # equal leaves deeper down are shared as well
    a2 = back.hom[(0, 0)]
    assert a2.hom[(0, 0)] != a2.hom[(1, 1)]  # cells 1x and 1y
    assert a2.hom[(0, 0)].hom[(0, 0)] is a2.hom[(1, 1)].hom[(0, 0)] is a2.hom[(0, 1)].hom[(0, 0)]
    # equal shapes under other names stay apart, and so do separate decodes
    renamed = datum_from_json(datum_to_json(_renamed(a2, "r.")))
    assert renamed != a2 and renamed.hom[(0, 0)].hom[(0, 0)] is not a2.hom[(0, 0)].hom[(0, 0)]
    again = datum_from_json(doc)
    assert again == back and again is not back and again.hom[(0, 0)] is not a2


class _CountingHom(dict):
    """A hom dict that counts its lookups."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_chi_n_walks_a_shared_node_once():
    def susp2():
        d = bicat_to_datum(catalog.suspension_z2())
        return EulerDatum(2, cells=d.cells, hom=_CountingHom(d.hom))

    shared = susp2()
    tower = _square(3, ("a", "b", "c"), [shared] * 9)
    copies = [susp2() for _ in range(9)]
    res = chi_n(tower)
    assert shared.hom.lookups == 4  # once down its 2 x 2 hom, not once per pair
    assert chi_n(_square(3, ("a", "b", "c"), copies)) == res
    assert [c.hom.lookups for c in copies] == [4] * 9  # equal copies are walked each
    assert oracle_chi([[2] * 3] * 3) == (True, res.value)


def test_euler_datum_repr_is_the_dataclass_repr():
    leaf = EulerDatum(0, size=3)
    one = EulerDatum(1, cells=("a", "b"), hom={(0, 0): leaf, (0, 1): EulerDatum(0, size=0),
                                                (1, 0): leaf, (1, 1): leaf})
    two = EulerDatum(2, cells=("x",), hom={(0, 0): EulerDatum(1, cells=(), hom={})})
    assert repr(leaf) == "EulerDatum(level=0, size=3, cells=None, hom=None)"
    assert repr(one) == (
        "EulerDatum(level=1, size=None, cells=('a', 'b'), hom={"
        "(0, 0): EulerDatum(level=0, size=3, cells=None, hom=None), "
        "(0, 1): EulerDatum(level=0, size=0, cells=None, hom=None), "
        "(1, 0): EulerDatum(level=0, size=3, cells=None, hom=None), "
        "(1, 1): EulerDatum(level=0, size=3, cells=None, hom=None)})")
    assert repr(two) == (
        "EulerDatum(level=2, size=None, cells=('x',), hom={"
        "(0, 0): EulerDatum(level=1, size=None, cells=(), hom={})})")


def test_euler_datum_eq_and_repr_depth_is_not_bounded_by_recursion():
    a, b = _one_cell_tower(3000, 2), _one_cell_tower(3000, 2)
    assert a == b and not a != b
    assert a != _one_cell_tower(3000, 1) and a != _one_cell_tower(2999, 2)
    text = repr(a)
    assert text.startswith("EulerDatum(level=3000, size=None, cells=('c3000',), hom={(0, 0): ")
    assert text.endswith("EulerDatum(level=0, size=2, cells=None, hom=None)" + "})" * 3000)
    assert text.count("EulerDatum(") == 3001
    with pytest.raises(TypeError):
        hash(a)
    assert hash(EulerDatum(0, size=2)) == hash(EulerDatum(0, size=2))
    assert a != "a" and (a == 3) is False


def test_euler_datum_eq_compares_shared_sub_data_once():
    def shared(levels, size):
        node = EulerDatum(0, size=size)
        for level in range(1, levels + 1):
            node = _square(level, ("p", "q"), [node] * 4)
        return node

    # 4^60 paths down, but 61 distinct pairs of nodes to compare
    assert shared(60, 2) == shared(60, 2)
    assert shared(60, 2) != shared(60, 3)


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


def _arrow_bicat(hom_xx, hom_xy, hom_yy, two):
    """Zero-cells x, y, one 1-cell in each nonempty hom, hom(y,x) empty;
    two(key, b, a) is the horizontal composite at each triple key."""
    homcat = {(0, 0): hom_xx, (0, 1): hom_xy, (1, 0): catalog.empty_category(),
              (1, 1): hom_yy}
    keys = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    hcomp_two = {
        (x, y, z): {(b, a): two((x, y, z), b, a)
                    for b in range(len(homcat[(y, z)].morphisms))
                    for a in range(len(homcat[(x, y)].morphisms))}
        for x, y, z in keys
    }
    return bicat_from_parts(["x", "y"], homcat, {key: {(0, 0): 0} for key in keys},
                            hcomp_two, units=[0, 0])


def _z3_pair_bicat(trivial=0):
    """Every nonempty hom Z3 (2-cells g0, g1, g2, composed by adding) but
    the endo-hom of zero-cell `trivial`, which has only its identity."""
    homs = [catalog.cyclic_group(3), catalog.cyclic_group(3), catalog.cyclic_group(3)]
    homs[2 * trivial] = catalog.discrete(1, ["i"])
    return _arrow_bicat(*homs, lambda key, b, a: (a + b) % 3)


def _transformation_pair_bicat():
    """hom(x,x) = Z2, hom(x,y) the maps {0,1} -> {0,1} under composition
    (00, 01 = identity, 10 = swap, 11), hom(y,y) trivial; whiskering by
    hom(x,x) or hom(y,y) leaves each map as it is."""
    return _arrow_bicat(catalog.cyclic_group(2), catalog.full_transformation_monoid(2),
                        catalog.discrete(1, ["i"]),
                        lambda key, b, a: {(0, 0, 0): (a + b) % 2, (0, 0, 1): b}.get(key, a))


def _nf(cells, *quads):
    """Not-functorial lines at hcomp(cells), one per (b2, a2, b1, a1)."""
    return [f"hcomp({cells}): horizontal composition is not functorial at "
            f"(({b2},{a2}) . ({b1},{a1}))" for b2, a2, b1, a1 in quads]


BASES = {
    "suspension_z2": catalog.suspension_z2,
    "two_group": lambda: bicat_from_json(_z2_two_group_doc()),
    "idempotent": _idempotent_bicat,
    "z3_pair": _z3_pair_bicat,
    "z3_pair_y": lambda: _z3_pair_bicat(trivial=1),
    "transformations": _transformation_pair_bicat,
}


def _parts(b):
    """The parts of `b` as bicat_violations takes them, tables copied."""
    return {
        "zero_cells": b.zero_cells,
        "homcat": dict(b.homcat),
        "hcomp_one": {k: dict(v) for k, v in b.hcomp_one.items()},
        "hcomp_two": {k: dict(v) for k, v in b.hcomp_two.items()},
        "units": b.unit_one_cell,
        "associator": dict(b.associator),
        "left_unitor": dict(b.left_unitor),
        "right_unitor": dict(b.right_unitor),
    }

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
    # The bifunctor lemma's checks, each failing alone.  Setting g1 * g1 =
    # g0 leaves every pair with an identity as it was, so composites are
    # kept in each variable, but g1 * g1 no longer factors through
    # identities as (g1 * g0)(g0 * g1).
    ("functorial in each variable, not jointly", "z3_pair",
     lambda p: p["hcomp_two"][(0, 1, 1)].update({(1, 1): 0}),
     _nf("x,y,y", (1, 0, 0, 1), (1, 1, 0, 1), (1, 1, 0, 2), (1, 2, 0, 2), (0, 1, 1, 0),
         (1, 1, 1, 0), (0, 1, 1, 1), (0, 2, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1), (1, 2, 1, 1),
         (2, 0, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (0, 2, 1, 2), (1, 1, 1, 2), (1, 1, 2, 0),
         (2, 1, 2, 0), (1, 1, 2, 1), (2, 0, 2, 1), (1, 1, 2, 2), (2, 2, 2, 2))),
    ("not jointly functorial on the endo-hom", "z3_pair",
     lambda p: p["hcomp_two"][(1, 1, 1)].update({(2, 1): 2}),
     _nf("y,y,y", (2, 0, 0, 1), (2, 1, 0, 1), (2, 1, 0, 2), (2, 2, 0, 2), (1, 1, 1, 0),
         (2, 1, 1, 0), (1, 0, 1, 1), (2, 1, 1, 1), (1, 2, 1, 2), (2, 1, 1, 2), (0, 1, 2, 0),
         (2, 1, 2, 0), (0, 1, 2, 1), (0, 2, 2, 1), (1, 0, 2, 1), (1, 1, 2, 1), (1, 2, 2, 1),
         (2, 0, 2, 1), (2, 1, 2, 1), (2, 2, 2, 1), (0, 2, 2, 2), (2, 1, 2, 2))),
    # hom(x,x) has only its identity, so whiskering g -> g with it must
    # preserve composites; g2 -> g1 breaks that and nothing else.
    ("not functorial in the first variable", "z3_pair",
     lambda p: p["hcomp_two"][(0, 0, 1)].update({(2, 0): 1}),
     _nf("x,x,y", (1, 0, 1, 0), (2, 0, 1, 0), (1, 0, 2, 0), (2, 0, 2, 0))),
]


@pytest.mark.parametrize(
    "base, edit, expected",
    [case[1:] for case in PINNED_VIOLATIONS],
    ids=[case[0] for case in PINNED_VIOLATIONS],
)
def test_each_violation_kind_reports_its_exact_list(base, edit, expected):
    b = BASES[base]()
    assert bicat_violations(b.zero_cells, b.homcat, b.hcomp_one, b.hcomp_two, b.unit_one_cell,
                            b.associator, b.left_unitor, b.right_unitor) == []
    parts = _parts(b)
    edit(parts)
    assert bicat_violations(**parts) == expected


def _functoriality_by_pairs(b, hcomp_two):
    """The identity and functoriality lines by definition: every pair of
    composable 2-cell pairs is checked directly."""
    out = []
    for (x, y, z), two in sorted(hcomp_two.items()):
        hyz, hxy, hxz = b.homcat[(y, z)], b.homcat[(x, y)], b.homcat[(x, z)]
        where = f"hcomp({b.zero_cells[x]},{b.zero_cells[y]},{b.zero_cells[z]}): "
        for (g, f), gf in sorted(b.hcomp_one[(x, y, z)].items()):
            if two[(hyz.identity[g], hxy.identity[f])] != hxz.identity[gf]:
                out.append(f"{where}identity 2-cells at {(g, f)} do not compose to an identity")
        for (b1, a1), r1 in sorted(two.items()):
            for (b2, a2), r2 in sorted(two.items()):
                if (b2, b1) not in hyz.comp or (a2, a1) not in hxy.comp:
                    continue
                if two[(hyz.comp[(b2, b1)], hxy.comp[(a2, a1)])] != hxz.comp.get((r2, r1)):
                    out.append(f"{where}horizontal composition is not functorial at "
                               f"(({b2},{a2}) . ({b1},{a1}))")
    return out


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_functoriality_report_matches_the_composable_pair_loop(data):
    # Z2, Z3 and transformation-monoid homs, and the two-object hom of the
    # 2-group; each edit keeps the endpoints of its 2-cell composite, so
    # only the identity and functoriality checks can report.
    b = BASES[data.draw(st.sampled_from(
        ["suspension_z2", "z3_pair", "z3_pair_y", "transformations", "two_group"]))]()
    tables = {key: dict(two) for key, two in b.hcomp_two.items()}
    for _ in range(data.draw(st.integers(1, 4))):
        key = data.draw(st.sampled_from(sorted(k for k, two in tables.items() if two)))
        x, y, z = key
        hyz, hxy, hxz = b.homcat[(y, z)], b.homcat[(x, y)], b.homcat[(x, z)]
        pair = data.draw(st.sampled_from(sorted(tables[key])))
        beta, alpha = hyz.morphisms[pair[0]], hxy.morphisms[pair[1]]
        ends = (b.hcomp_one[key][(beta.src, alpha.src)], b.hcomp_one[key][(beta.tgt, alpha.tgt)])
        tables[key][pair] = data.draw(st.sampled_from(
            [m for m, mor in enumerate(hxz.morphisms) if (mor.src, mor.tgt) == ends]))
    got = bicat_violations(b.zero_cells, b.homcat, b.hcomp_one, tables, b.unit_one_cell,
                           b.associator, b.left_unitor, b.right_unitor)
    assert got == _functoriality_by_pairs(b, tables)


def _swap_on_the_generator(swap_after):
    """Edit setting two[(s, g1)] to swap after s for every map s, or to s
    after swap; the factoring that puts two[(1, g1)] = swap on the same
    side still agrees, the other does not."""
    def edit(p):
        t2 = p["homcat"][(0, 1)]
        p["hcomp_two"][(0, 0, 1)].update(
            {(s, 1): t2.comp[(2, s) if swap_after else (s, 2)] for s in range(4)})
    return edit


# The checks of the bifunctor lemma that no pinned case fails alone, each
# failed alone: Z3 whiskered by a trivial hom on the left, and each of the
# two factorings through identities in a noncommutative hom.
ALONE = [
    ("composites in the second variable", "z3_pair_y",
     lambda p: p["hcomp_two"][(0, 1, 1)].update({(0, 2): 1})),
    ("factoring two[(b, 1)] . two[(1, a)]", "transformations", _swap_on_the_generator(True)),
    ("factoring two[(1, a)] . two[(b, 1)]", "transformations", _swap_on_the_generator(False)),
]


@pytest.mark.parametrize("base, edit", [case[1:] for case in ALONE],
                         ids=[case[0] for case in ALONE])
def test_each_lemma_check_failing_alone_is_reported(base, edit):
    b = BASES[base]()
    parts = _parts(b)
    edit(parts)
    got = bicat_violations(**parts)
    assert got and got == _functoriality_by_pairs(b, parts["hcomp_two"])


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
