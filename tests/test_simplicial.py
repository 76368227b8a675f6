"""Truncated simplicial structures, horns, nerves, reconstruction."""

import copy
import itertools
from fractions import Fraction

import pytest

from eulerkit import (
    BudgetExceededError,
    FormatError,
    NotNerveShapedError,
    ValidationError,
    catalog,
    categories_isomorphic,
    category_from_nerve,
    chi_sset,
    classify_sset,
    coproduct,
    enumerate_inner_horns,
    euler_char,
    filler_report,
    fillers,
    horn,
    nerve,
    product,
    sset_coproduct,
    sset_from_json,
    sset_product,
    sset_to_json,
    sset_violations,
    standard_simplex,
)
from oracles import count_monotone, horn_closure, path_totals

NERVE_POOL = [
    catalog.arrow(),
    catalog.thick_arrow(),
    catalog.parallel_pair(),
    catalog.cyclic_group(2),
    catalog.cyclic_group(3),
    catalog.chain(3),
    catalog.discrete(2),
    catalog.vee(),
]


def test_standard_simplex_counts_are_binomials():
    for n in range(0, 4):
        for dim in range(max(0, n - 1), 5):
            got = standard_simplex(n, dim).counts()
            assert got == [count_monotone(n, m) for m in range(dim + 1)]
    assert standard_simplex(1, 2).counts() == [2, 3, 4]


def test_horn_matches_subfunctor_closure():
    for n, k, dim in [(1, 0, 2), (1, 1, 3), (2, 1, 2), (2, 1, 4), (3, 1, 3), (3, 2, 4), (2, 0, 3)]:
        got = horn(n, k, dim)
        want = horn_closure(n, k, dim)
        for m in range(dim + 1):
            ids = {"|".join(map(str, t)) for t in want[m]}
            assert set(got.level(m)) == ids, (n, k, dim, m)


def test_horn_keeps_walls_only():
    lam = horn(2, 1, 2)
    assert lam.counts() == [3, 5, 7]
    assert "0|2" in standard_simplex(2, 2).level(1)
    assert "0|2" not in lam.level(1)
    assert "0|1|2" not in lam.level(2)


def test_horn_preconditions():
    with pytest.raises(ValueError):
        horn(0, 0)
    with pytest.raises(ValueError):
        horn(2, 3)
    with pytest.raises(ValueError):
        horn(3, 1, dim=1)


def test_nerve_counts_are_path_counts():
    for cat in NERVE_POOL:
        for dim in (2, 3):
            got = nerve(cat, dim).counts()
            assert got == path_totals(cat, dim), cat.objects
    assert nerve(catalog.cyclic_group(2), 2).counts() == [1, 2, 4]


def test_nerve_rejects_separator_in_names():
    with pytest.raises(FormatError):
        nerve(catalog.discrete(2, names=["a", "a|b"]))


def test_inner_horn_instances_of_a_nerve_count_paths():
    for cat in (catalog.arrow(), catalog.cyclic_group(2), catalog.chain(3)):
        ner = nerve(cat, 3)
        for n in (2, 3):
            for k in range(1, n):
                got = len(enumerate_inner_horns(ner, n, k))
                assert got == path_totals(cat, n)[n], (cat.objects, n, k)
    assert len(enumerate_inner_horns(nerve(catalog.arrow(), 2), 2, 1)) == 4


def test_nerves_fill_inner_horns_uniquely():
    for cat in NERVE_POOL:
        report = filler_report(nerve(cat, 3))
        assert report.quasi and report.nerve_shaped, cat.objects
        for stats in report.per_horn.values():
            assert stats.unfilled == 0 and stats.multiple == 0


def test_horn_itself_is_not_quasi():
    report = filler_report(horn(2, 1, 2))
    assert not report.quasi and not report.nerve_shaped
    assert report.per_horn[(2, 1)].unfilled == 1
    assert classify_sset(horn(2, 1, 2)) == "other"


def _z2_nerve_doc():
    return sset_to_json(nerve(catalog.cyclic_group(2), 2))


def test_deleting_a_filler_breaks_the_kan_condition():
    doc = _z2_nerve_doc()
    doc["simplices"]["2"].remove("g1|g1")
    for i in range(3):
        del doc["faces"][f"2,{i}"]["g1|g1"]
    mutilated = sset_from_json(doc)
    report = filler_report(mutilated)
    assert not report.quasi
    assert report.per_horn[(2, 1)].unfilled == 1
    assert classify_sset(mutilated) == "other"
    res = chi_sset(mutilated)
    assert not res.exists and res.value is None


def test_duplicating_a_filler_keeps_quasi_but_not_nerve():
    doc = _z2_nerve_doc()
    doc["simplices"]["2"].append("dup")
    doc["faces"]["2,0"]["dup"] = "g1"
    doc["faces"]["2,1"]["dup"] = "g0"
    doc["faces"]["2,2"]["dup"] = "g1"
    fat = sset_from_json(doc)
    report = filler_report(fat)
    assert report.quasi and not report.nerve_shaped
    assert report.per_horn[(2, 1)].multiple >= 1
    with pytest.raises(NotNerveShapedError) as exc:
        category_from_nerve(fat)
    assert "expected exactly 1" in str(exc.value)


def test_fillers_listing():
    ner = nerve(catalog.cyclic_group(2), 2)
    inst = next(
        i
        for i in enumerate_inner_horns(ner, 2, 1)
        if i.faces == {0: "g1", 2: "g1"}
    )
    assert fillers(ner, inst) == ["g1|g1"]


def test_reconstruction_round_trip():
    for cat in NERVE_POOL:
        rebuilt = category_from_nerve(nerve(cat, 2))
        assert categories_isomorphic(rebuilt, cat) is not None, cat.objects


def test_reconstruction_needs_two_levels():
    with pytest.raises(ValueError):
        category_from_nerve(standard_simplex(0, 1))


def test_sset_json_round_trip_and_rejection():
    for sset in (
        standard_simplex(2, 3),
        horn(2, 1, 2),
        nerve(catalog.arrow(), 2),
    ):
        assert sset_from_json(sset_to_json(sset)) == sset
    doc = sset_to_json(standard_simplex(1, 1))
    doc["phases"] = []
    with pytest.raises(FormatError):
        sset_from_json(doc)
    doc = sset_to_json(standard_simplex(1, 1))
    doc["simplices"]["7"] = ["ghost"]
    with pytest.raises(FormatError):
        sset_from_json(doc)


def test_identity_violations_are_reported_with_coordinates():
    doc = sset_to_json(standard_simplex(1, 2))
    doc["faces"]["2,0"]["0|0|1"] = "1|1"
    with pytest.raises(ValidationError) as exc:
        sset_from_json(doc)
    assert any("identity" in v and "level" in v for v in exc.value.violations)


def test_totality_violations():
    doc = sset_to_json(standard_simplex(1, 1))
    del doc["faces"]["1,0"]["0|1"]
    with pytest.raises(ValidationError) as exc:
        sset_from_json(doc)
    assert any("missing" in v for v in exc.value.violations)


def test_classification():
    empty = sset_from_json({"dim": 2, "simplices": {}, "faces": {}, "degeneracies": {}})
    assert classify_sset(empty) == "empty"
    assert classify_sset(standard_simplex(0, 2)) == "point"
    assert classify_sset(nerve(catalog.arrow(), 2)) == "nerve"
    res = chi_sset(empty)
    assert res.exists and res.value == 0
    res = chi_sset(standard_simplex(0, 3))
    assert res.exists and res.value == 1


def test_chi_through_reconstruction():
    assert chi_sset(nerve(catalog.cyclic_group(3), 2)).value == Fraction(1, 3)
    assert chi_sset(nerve(catalog.thick_arrow(), 2)).value == 1


def test_chi_respects_sums_and_products():
    a, b = catalog.arrow(), catalog.cyclic_group(2)
    lhs = chi_sset(sset_coproduct(nerve(a, 2), nerve(b, 2)))
    assert lhs.value == euler_char(coproduct(a, b)).value
    prod = sset_product(nerve(a, 2), nerve(a, 2))
    assert classify_sset(prod) == "nerve"
    assert chi_sset(prod).value == euler_char(product(a, a)).value


# --- face index against a scan ---------------------------------------------------


def _holed_z2():
    doc = _z2_nerve_doc()
    doc["simplices"]["2"].remove("g1|g1")
    for i in range(3):
        del doc["faces"][f"2,{i}"]["g1|g1"]
    return sset_from_json(doc)


def _duplicated_z2():
    doc = _z2_nerve_doc()
    doc["simplices"]["2"].append("dup")
    doc["faces"]["2,0"]["dup"] = "g1"
    doc["faces"]["2,1"]["dup"] = "g0"
    doc["faces"]["2,2"]["dup"] = "g1"
    return sset_from_json(doc)


def _scan_horns(sset, n, k):
    """Face families over level n-1, extended one position at a time by a
    product with the whole level, kept when every pair satisfies
    d_i x_j = d_{j-1} x_i (i < j)."""
    positions = [i for i in range(n + 1) if i != k]
    families = [{}]
    for j in positions:
        families = [
            {**fam, j: s}
            for fam, s in itertools.product(families, sset.level(n - 1))
            if all(
                sset.face[(n - 1, i)][s] == sset.face[(n - 1, j - 1)][fam[i]]
                for i in fam
            )
        ]
    return families


def _scan_fillers(sset, inst):
    return [
        s
        for s in sset.level(inst.n)
        if all(sset.face[(inst.n, i)][s] == want for i, want in inst.faces.items())
    ]


def test_indexed_horns_and_fillers_match_a_scan():
    for sset in (
        horn(3, 1, 3),
        horn(4, 2, 4),
        standard_simplex(2, 4),
        _holed_z2(),
        _duplicated_z2(),
    ):
        for n in range(2, sset.dim + 1):
            for k in range(1, n):
                got = enumerate_inner_horns(sset, n, k)
                assert [(i.n, i.k) for i in got] == [(n, k)] * len(got)
                assert [i.faces for i in got] == _scan_horns(sset, n, k), (n, k)
                for inst in got:
                    assert fillers(sset, inst) == _scan_fillers(sset, inst)


def test_face_index_leaves_equality_and_json_alone():
    for sset in (nerve(catalog.cyclic_group(2), 3), horn(3, 1, 3), _duplicated_z2()):
        fresh, text = sset_from_json(sset_to_json(sset)), repr(sset)
        filler_report(sset)
        assert "face_index" in vars(sset)
        assert sset_from_json(sset_to_json(sset)) == sset == fresh
        assert repr(sset) == text


def test_horn_enumeration_runs_under_the_budget(monkeypatch):
    ner = nerve(catalog.chain(3), 3)
    monkeypatch.setenv("EULERKIT_BUDGET", "2")
    with pytest.raises(BudgetExceededError):
        enumerate_inner_horns(ner, 3, 1)
    monkeypatch.delenv("EULERKIT_BUDGET")
    assert len(enumerate_inner_horns(ner, 3, 1)) == path_totals(catalog.chain(3), 3)[3]


# --- exact reports and tables by definition ----------------------------------------

# One changed entry of standard_simplex(2, 3) per identity, with the full
# violation list the checker gave before it read the identities from one
# table: content and order are pinned, and the last case shows identity 5
# reported before identity 3.
IDENTITY_EDITS = [
    (1, ("faces", "3,2", "0|0|1|2", "0|0|0"), [
        "identity 1 fails at level 3, (i,j)=(0,2), simplex '0|0|1|2'",
        "identity 1 fails at level 3, (i,j)=(1,2), simplex '0|0|1|2'",
        "identity 4 fails at level 2, (i,j)=(2,0), simplex '0|1|2'",
    ]),
    (2, ("degeneracies", "2,1", "0|1|2", "0|1|1|1"), [
        "identity 2 fails at level 2, (i,j)=(0,1), simplex '0|1|2'",
        "identity 3 fails at level 2, (i,j)=(1,1), simplex '0|1|2'",
        "identity 3 fails at level 2, (i,j)=(2,1), simplex '0|1|2'",
    ]),
    (3, ("degeneracies", "2,0", "0|1|2", "0|0|1|1"), [
        "identity 3 fails at level 2, (i,j)=(0,0), simplex '0|1|2'",
        "identity 3 fails at level 2, (i,j)=(1,0), simplex '0|1|2'",
        "identity 4 fails at level 2, (i,j)=(2,0), simplex '0|1|2'",
    ]),
    (4, ("degeneracies", "2,0", "0|1|2", "0|1|1|2"), [
        "identity 3 fails at level 2, (i,j)=(0,0), simplex '0|1|2'",
        "identity 4 fails at level 2, (i,j)=(2,0), simplex '0|1|2'",
        "identity 4 fails at level 2, (i,j)=(3,0), simplex '0|1|2'",
    ]),
    (5, ("degeneracies", "2,0", "0|0|1", "0|0|0|0"), [
        "identity 5 fails at level 1, (i,j)=(0,0), simplex '0|1'",
        "identity 3 fails at level 2, (i,j)=(0,0), simplex '0|0|1'",
        "identity 3 fails at level 2, (i,j)=(1,0), simplex '0|0|1'",
        "identity 4 fails at level 2, (i,j)=(2,0), simplex '0|0|1'",
    ]),
]


@pytest.mark.parametrize("number, edit, expected", IDENTITY_EDITS,
                         ids=[f"identity-{e[0]}" for e in IDENTITY_EDITS])
def test_each_identity_reports_its_exact_violations(number, edit, expected):
    doc = sset_to_json(standard_simplex(2, 3))
    what, key, simplex, value = edit
    doc[what][key][simplex] = value
    with pytest.raises(ValidationError) as exc:
        sset_from_json(doc)
    assert exc.value.violations == expected
    assert any(v.startswith(f"identity {number} fails") for v in expected)


def test_identity_3_reports_in_simplex_order():
    """Both equations of identity 3 (i = j and i = j + 1) are checked per
    simplex, so an i = j failure on a later simplex follows an i = j + 1
    failure on an earlier one.  No single changed entry shows this."""
    doc = sset_to_json(standard_simplex(2, 3))
    doc["faces"]["2,1"]["0|0|1"] = "0|0"
    doc["faces"]["2,0"]["0|0|2"] = "1|2"
    with pytest.raises(ValidationError) as exc:
        sset_from_json(doc)
    assert [v for v in exc.value.violations if v.startswith("identity 3")] == [
        "identity 3 fails at level 1, (i,j)=(1,0), simplex '0|1'",
        "identity 3 fails at level 1, (i,j)=(0,0), simplex '0|2'",
    ]


def test_nerve_tables_follow_the_definition():
    """An m-simplex is a path of m composable arrows (an object when m = 0).
    d_i deletes vertex i: the first or last arrow goes, an inner vertex
    composes its two arrows; s_i repeats vertex i by inserting its identity."""
    cat = catalog.walking_retract()
    mors = cat.morphisms
    paths = [[(x,) for x in range(len(cat.objects))]] + [
        [p for p in itertools.product(range(len(mors)), repeat=m)
         if all(mors[f].tgt == mors[g].src for f, g in zip(p, p[1:]))]
        for m in (1, 2, 3)
    ]

    def ident(m, p):
        return cat.objects[p[0]] if m == 0 else "|".join(mors[f].name for f in p)

    def vertices(m, p):
        return [p[0]] if m == 0 else [mors[p[0]].src] + [mors[f].tgt for f in p]

    face, degeneracy = {}, {}
    for m in (1, 2, 3):
        for i in range(m + 1):
            table = {}
            for p in paths[m]:
                if m == 1:
                    q = (vertices(1, p)[1 - i],)
                elif i in (0, m):
                    q = p[1:] if i == 0 else p[:-1]
                else:
                    q = p[: i - 1] + (cat.comp[(p[i], p[i - 1])],) + p[i + 1:]
                table[ident(m, p)] = ident(m - 1, q)
            face[(m, i)] = table
    for m in (0, 1, 2):
        for i in range(m + 1):
            table = {}
            for p in paths[m]:
                unit = (cat.identity[vertices(m, p)[i]],)
                table[ident(m, p)] = ident(m + 1, unit if m == 0 else p[:i] + unit + p[i:])
            degeneracy[(m, i)] = table
    ner = nerve(cat, 3)
    assert ner.simplices == tuple(tuple(ident(m, p) for p in paths[m]) for m in range(4))
    assert ner.face == face
    assert ner.degeneracy == degeneracy
    # not commutative: s after r is e, r after s is 1a
    assert face[(2, 1)]["r|s"] == "e" and face[(2, 1)]["s|r"] == "1a"


def test_product_and_coproduct_tables_by_hand():
    point, edge = standard_simplex(0, 1), standard_simplex(1, 1)
    prod = sset_product(edge, nerve(catalog.discrete(2), 1))
    assert prod.simplices == (
        ("(0,x0)", "(0,x1)", "(1,x0)", "(1,x1)"),
        ("(0|0,1x0)", "(0|0,1x1)", "(0|1,1x0)", "(0|1,1x1)", "(1|1,1x0)", "(1|1,1x1)"),
    )
    assert prod.face == {
        (1, 0): {"(0|0,1x0)": "(0,x0)", "(0|0,1x1)": "(0,x1)", "(0|1,1x0)": "(1,x0)",
                 "(0|1,1x1)": "(1,x1)", "(1|1,1x0)": "(1,x0)", "(1|1,1x1)": "(1,x1)"},
        (1, 1): {"(0|0,1x0)": "(0,x0)", "(0|0,1x1)": "(0,x1)", "(0|1,1x0)": "(0,x0)",
                 "(0|1,1x1)": "(0,x1)", "(1|1,1x0)": "(1,x0)", "(1|1,1x1)": "(1,x1)"},
    }
    assert prod.degeneracy == {
        (0, 0): {"(0,x0)": "(0|0,1x0)", "(0,x1)": "(0|0,1x1)",
                 "(1,x0)": "(1|1,1x0)", "(1,x1)": "(1|1,1x1)"},
    }
    coprod = sset_coproduct(point, edge)
    assert coprod.simplices == (("0:0", "1:0", "1:1"), ("0:0|0", "1:0|0", "1:0|1", "1:1|1"))
    assert coprod.face == {
        (1, 0): {"0:0|0": "0:0", "1:0|0": "1:0", "1:0|1": "1:1", "1:1|1": "1:1"},
        (1, 1): {"0:0|0": "0:0", "1:0|0": "1:0", "1:0|1": "1:0", "1:1|1": "1:1"},
    }
    assert coprod.degeneracy == {(0, 0): {"0:0": "0:0|0", "1:0": "1:0|0", "1:1": "1:1|1"}}


def test_non_associative_reconstruction_is_not_a_nerve():
    # In the nerve of Z/3, sending g1|g1 to g0 instead of g2 keeps a valid
    # structure with unique inner fillers whose composition is not associative.
    doc = sset_to_json(nerve(catalog.cyclic_group(3), 2))
    assert doc["faces"]["2,1"]["g1|g1"] == "g2"
    doc["faces"]["2,1"]["g1|g1"] = "g0"
    skewed = sset_from_json(doc)
    assert filler_report(skewed).nerve_shaped
    assert classify_sset(skewed) == "other"
    with pytest.raises(NotNerveShapedError) as exc:
        category_from_nerve(skewed)
    assert str(exc.value) == (
        "extracted tables violate the category axioms: "
        "associativity fails at triple (h=2, g=1, f=1): h(gf)=2 but (hg)f=1; "
        "associativity fails at triple (h=2, g=2, f=1): h(gf)=2 but (hg)f=0; "
        "associativity fails at triple (h=1, g=1, f=2): h(gf)=1 but (hg)f=2"
    )
