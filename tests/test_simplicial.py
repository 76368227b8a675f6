"""Truncated simplicial structures, horns, nerves, reconstruction."""

import copy
import itertools
import random
from fractions import Fraction

import pytest

from eulerkit import (
    BudgetExceededError,
    FormatError,
    HornStats,
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
from chain_oracle import hall_chi, two_order_poset
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


@pytest.mark.parametrize("dim", [1001, 2**63, 10**30])
def test_sset_file_dim_is_capped(dim):
    # d(d + 2) tables are built whatever the file holds, so a short file
    # with a huge dim would exhaust memory
    with pytest.raises(FormatError, match="^simplicial structure: dim must be at most 1000$"):
        sset_from_json({"dim": dim})


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
    with pytest.raises(BudgetExceededError) as caught:
        enumerate_inner_horns(ner, 3, 1)
    assert caught.value.search == "enumerate_inner_horns"
    monkeypatch.delenv("EULERKIT_BUDGET")
    assert len(enumerate_inner_horns(ner, 3, 1)) == path_totals(catalog.chain(3), 3)[3]



# Nodes at which each search finishes, per (n, k) enumeration and for
# filler_report (its largest search); the depth-first search the
# breadth-first one replaced finished at the same counts.
HORN_NODES = [
    ("chain-3", lambda: nerve(catalog.chain(3), 3), {(2, 1): 17, (3, 1): 41, (3, 2): 46}, 46),
    ("horn-4-2", lambda: horn(4, 2, 4), {(2, 1): 51, (3, 1): 176, (3, 2): 211,
                                         (4, 1): 434, (4, 2): 493, (4, 3): 492}, 493),
    ("duplicated-z2", lambda: _duplicated_z2(), {(2, 1): 7}, 7),
]


@pytest.mark.parametrize("build, per_horn, report_nodes", [case[1:] for case in HORN_NODES],
                         ids=[case[0] for case in HORN_NODES])
def test_horn_searches_finish_at_their_node_counts(monkeypatch, build, per_horn, report_nodes):
    sset = build()

    def finishes(search, budget):
        monkeypatch.setenv("EULERKIT_BUDGET", str(budget))
        try:
            search()
        except BudgetExceededError as exc:
            assert exc.search == "enumerate_inner_horns"
            return False
        return True

    for (n, k), nodes in per_horn.items():
        assert finishes(lambda: enumerate_inner_horns(sset, n, k), nodes), (n, k)
        assert not finishes(lambda: enumerate_inner_horns(sset, n, k), nodes - 1), (n, k)
    assert finishes(lambda: filler_report(sset), report_nodes)
    assert not finishes(lambda: filler_report(sset), report_nodes - 1)


def test_nerve_counts_what_it_would_build_against_the_budget(monkeypatch):
    # The walking arrow at dim 3 has 2, 3, 4, 5 simplices.  Level m has
    # m + 1 face tables (m > 0) and m + 1 degeneracy tables (m < 3); each
    # simplex, table and table entry is one unit: 5 + 19 + 34 + 29 = 87.
    monkeypatch.setenv("EULERKIT_BUDGET", "87")
    assert nerve(catalog.arrow(), 3).counts() == [2, 3, 4, 5]
    monkeypatch.setenv("EULERKIT_BUDGET", "86")
    with pytest.raises(BudgetExceededError) as caught:
        nerve(catalog.arrow(), 3)
    assert caught.value.search == "nerve"

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


def test_identity_5_can_fail_alone():
    """A twin of the degenerate 2-simplex on a point, reached through s_1
    only: identities 1-4 hold and s_0 s_0 differs from s_1 s_0, so only
    identity 5 tells this structure from a simplicial set."""
    doc = sset_to_json(standard_simplex(0, 2))
    doc["simplices"]["2"].append("twin")
    for i in range(3):
        doc["faces"][f"2,{i}"]["twin"] = "0|0"
    doc["degeneracies"]["1,1"]["0|0"] = "twin"
    with pytest.raises(ValidationError) as exc:
        sset_from_json(doc)
    assert exc.value.violations == ["identity 5 fails at level 0, (i,j)=(0,0), simplex '0'"]


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


# --- Segal spines above level 2 --------------------------------------------------


def _edited_top(cat, mode):
    """nerve(cat, 3) with its first non-degenerate 3-simplex duplicated
    ("dup", glued along the same faces) or deleted ("del")."""
    doc = sset_to_json(nerve(cat, 3))
    degenerate = {s for i in range(3) for s in doc["degeneracies"][f"2,{i}"].values()}
    top = next(s for s in doc["simplices"]["3"] if s not in degenerate)
    if mode == "dup":
        doc["simplices"]["3"].append("dup")
        for i in range(4):
            doc["faces"][f"3,{i}"]["dup"] = doc["faces"][f"3,{i}"][top]
    else:
        doc["simplices"]["3"].remove(top)
        for i in range(4):
            del doc["faces"][f"3,{i}"][top]
    return sset_from_json(doc)


@pytest.mark.parametrize("mode", ["dup", "del"])
def test_reconstruction_checks_level_3(mode):
    edited = _edited_top(catalog.cyclic_group(2), mode)
    with pytest.raises(NotNerveShapedError) as exc:
        category_from_nerve(edited)
    assert "level 3" in str(exc.value)
    assert classify_sset(edited) == "other"
    assert not chi_sset(edited).exists


def test_segal_spines_agree_with_unique_fillers():
    # Unique inner fillers hold exactly when the Segal maps are bijections;
    # classify_sset reads the second, filler_report counts the first.
    cases = [horn(n, k, d) for n in range(2, 5) for k in range(n + 1) for d in (3, 4)]
    cases += [standard_simplex(n, d) for n in range(5) for d in (3, 4)]
    cases += [nerve(cat, 3) for cat in catalog.base_suite()]
    with_top = (catalog.cyclic_group(2), catalog.cyclic_group(3), catalog.chain(4))
    cases += [_edited_top(cat, mode) for cat in with_top for mode in ("dup", "del")]
    kinds = set()
    for sset in cases:
        kind = classify_sset(sset)
        kinds.add(kind)
        assert (kind != "other") == filler_report(sset).nerve_shaped, sset.counts()
    assert kinds == {"point", "nerve", "other"}


def test_filler_report_counts_per_horn():
    # In a nerve every (n, k) horn has one filler per path of length n.
    for cat in catalog.base_suite():
        paths = path_totals(cat, 4)
        report = filler_report(nerve(cat, 4))
        assert report.per_horn == {
            (n, k): HornStats(paths[n], 0, 0) for n in range(2, 5) for k in range(1, n)
        }, cat.objects
    # A duplicated 3-simplex fills its horns twice, a deleted one not at all.
    dup = filler_report(_edited_top(catalog.cyclic_group(3), "dup"))
    assert dup.per_horn == {(2, 1): HornStats(9, 0, 0), (3, 1): HornStats(27, 0, 1),
                            (3, 2): HornStats(27, 0, 1)}
    gone = filler_report(_edited_top(catalog.cyclic_group(3), "del"))
    assert gone.per_horn == {(2, 1): HornStats(9, 0, 0), (3, 1): HornStats(27, 1, 0),
                             (3, 2): HornStats(27, 1, 0)}
    # A second filler of the horn (1x, s) whose composite face is t instead
    # of s: the walls alone, not the k-th face, make it a multiple filler.
    doc = sset_to_json(nerve(catalog.parallel_pair(), 2))
    doc["simplices"]["2"].append("skew")
    for i in range(3):
        doc["faces"][f"2,{i}"]["skew"] = "t" if i == 1 else doc["faces"][f"2,{i}"]["1x|s"]
    skew = filler_report(sset_from_json(doc))
    assert skew.per_horn == {(2, 1): HornStats(6, 0, 1)}


def test_small_posets_chi_by_chains_nerve_and_reconstruction():
    rng = random.Random("eulerkit small posets")
    for _ in range(30):
        n = rng.randint(3, 7)
        leq = two_order_poset(rng, n)
        ner = nerve(catalog.poset_category(range(n), lambda x, y: leq[x][y]), max(n, 2))
        # the non-degenerate m-simplices are the chains of m non-identity arrows
        alternating = sum(
            (-1) ** m * len(set(ner.level(m)).difference(
                *(ner.degeneracy[(m - 1, i)].values() for i in range(m))))
            for m in range(ner.dim + 1)
        )
        want = hall_chi(leq)
        assert alternating == want
        assert chi_sset(ner).value == want


# --- the verdict of sset_violations against a scan by definition -------------------


def _holds_by_definition(dim, simplices, face, degeneracy):
    """Every table total on its level into the right level, and the five
    identities checked simplex by simplex as written."""
    levels = [set(level) for level in simplices]
    for n in range(dim + 1):
        for i in range(n + 1):
            for tables, target in ((face, n - 1), (degeneracy, n + 1)):
                if 0 <= target <= dim:
                    table = tables.get((n, i), {})
                    if set(table) != levels[n] or not set(table.values()) <= levels[target]:
                        return False

    def d(i, x, n):
        return face[(n, i)][x]

    def s(j, x, n):
        return degeneracy[(n, j)][x]

    for n, level in enumerate(simplices):
        for x in level:
            for j in range(n + 1):
                for i in range(j):  # d_i d_j = d_{j-1} d_i
                    if n >= 2 and d(i, d(j, x, n), n - 1) != d(j - 1, d(i, x, n), n - 1):
                        return False
            if n == dim:
                continue
            for j in range(n + 1):
                y = s(j, x, n)
                for i in range(n + 2):
                    if i < j:  # d_i s_j = s_{j-1} d_i
                        want = s(j - 1, d(i, x, n), n - 1)
                    elif i <= j + 1:  # d_j s_j = id = d_{j+1} s_j
                        want = x
                    else:  # d_i s_j = s_j d_{i-1}
                        want = s(j, d(i - 1, x, n), n - 1)
                    if d(i, y, n + 1) != want:
                        return False
                for i in range(j + 1):  # s_i s_j = s_{j+1} s_i
                    if n + 1 < dim and s(i, y, n + 1) != s(j + 1, s(i, x, n), n + 1):
                        return False
    return True


def _mutant_bases():
    bases = [nerve(cat, dim) for cat in catalog.base_suite() for dim in (2, 3, 4)]
    bases += [standard_simplex(n, dim) for n in range(4) for dim in range(1, 4)]
    bases += [horn(n, k, dim) for n, k, dim in [(1, 0, 2), (2, 1, 2), (2, 0, 3), (3, 1, 3)]]
    bases += [sset_product(standard_simplex(1, 2), nerve(catalog.arrow(), 2)),
              sset_product(nerve(catalog.cyclic_group(2), 3), standard_simplex(1, 3))]
    return [b for b in bases if sum(b.counts()) <= 100]  # keeps the scans quick


MUTANT_EDITS = ("redirect", "wrong level", "delete", "add unknown")


def mutant_corpus(cases, seed="eulerkit sset mutants"):
    """(dim, simplices, face, degeneracy) with one table entry edited: sent
    to a simplex of its target level (possibly the same one, so some stay
    valid) or of another level, deleted, or added for an unknown simplex."""
    rng = random.Random(seed)
    bases = _mutant_bases()
    for case in range(cases):
        sset = bases[case % len(bases)]
        edit = MUTANT_EDITS[case // len(bases) % len(MUTANT_EDITS)]
        kind, shift = rng.choice([("face", -1), ("degeneracy", 1)])
        tables = dict(getattr(sset, kind))
        key = rng.choice(sorted(key for key in tables if edit == "add unknown" or sset.level(key[0])))
        table = tables[key] = dict(tables[key])
        target = sset.level(key[0] + shift)
        elsewhere = [x for m, level in enumerate(sset.simplices)
                     if m != key[0] + shift for x in level] or ["ghost"]
        if edit == "add unknown":
            table["ghost"] = rng.choice(target or ("ghost",))
        else:
            simplex = rng.choice(sset.level(key[0]))
            if edit == "delete":
                del table[simplex]
            else:
                table[simplex] = rng.choice(target if edit == "redirect" else elsewhere)
        face = tables if kind == "face" else sset.face
        degeneracy = tables if kind == "degeneracy" else sset.degeneracy
        yield sset.dim, sset.simplices, face, degeneracy


def test_violations_are_empty_exactly_when_a_scan_by_definition_passes():
    verdicts = []
    for case in mutant_corpus(1200):
        ok = _holds_by_definition(*case)
        assert (sset_violations(*case) == []) == ok, case[0]
        verdicts.append(ok)
    assert 0 < verdicts.count(True) < verdicts.count(False)
