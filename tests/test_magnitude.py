"""Weightings and Euler characteristics against the minor-expansion oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulerkit import (
    QMatrix,
    ValidationError,
    adjacency,
    catalog,
    constant_weighting,
    coproduct,
    coweighting,
    equivalence_witness,
    euler_char,
    euler_of_matrix,
    iso_classes,
    kronecker,
    opposite,
    product,
    skeleton,
    transport_weighting,
    weighting,
)
from chain_oracle import hall_chi, two_order_poset
from oracles import hom_matrix, oracle_chi

SUITE = catalog.base_suite()

# category, characteristic pairs worked out by hand or by the oracle below
FROZEN_CHI = [
    (catalog.empty_category(), Fraction(0)),
    (catalog.terminal_category(), Fraction(1)),
    (catalog.discrete(3), Fraction(3)),
    (catalog.arrow(), Fraction(1)),
    (catalog.parallel_pair(), Fraction(0)),
    (catalog.iso_pair(), Fraction(1)),
    (catalog.thick_arrow(), Fraction(1)),
    (catalog.walking_retract(), Fraction(1)),
    (catalog.cyclic_group(2), Fraction(1, 2)),
    (catalog.cyclic_group(3), Fraction(1, 3)),
    (catalog.klein_four(), Fraction(1, 4)),
    (catalog.idempotent_monoid(), Fraction(1, 2)),
    (catalog.chain(4), Fraction(1)),
    (catalog.diamond(), Fraction(1)),
    (catalog.vee(), Fraction(1)),
    (catalog.wedge(), Fraction(1)),
    (catalog.codiscrete(3), Fraction(1)),
]


def test_adjacency_counts_homs():
    got = adjacency(catalog.thick_arrow()).matrix.to_rows()
    assert [list(r) for r in got] == [[1, 1, 1], [1, 1, 1], [0, 0, 1]]
    for cat in SUITE:
        rows = [list(r) for r in adjacency(cat).matrix.to_rows()]
        assert rows == [[Fraction(v) for v in row] for row in hom_matrix(cat)]


def test_frozen_characteristics():
    for cat, chi in FROZEN_CHI:
        res = euler_char(cat)
        assert res.exists and res.value == chi, cat.objects
        ok, want = oracle_chi(hom_matrix(cat))
        assert ok and want == chi


def test_weighting_and_coweighting_of_three_object_example():
    ta = catalog.thick_arrow()
    w = weighting(ta)
    c = coweighting(ta)
    assert w.values == (Fraction(0), Fraction(0), Fraction(1))
    assert c.values == (Fraction(1), Fraction(0), Fraction(0))


def test_weighting_rows_sum_to_one():
    for cat in SUITE:
        m = adjacency(cat).matrix
        w = weighting(cat)
        if w is not None:
            assert m.apply(w.values) == tuple([Fraction(1)] * m.rows)
        c = coweighting(cat)
        if c is not None:
            got = [
                sum(c.values[i] * m[i, j] for i in range(m.rows))
                for j in range(m.cols)
            ]
            assert got == [Fraction(1)] * m.cols


def test_characteristic_needs_both_sides():
    # weighting exists, coweighting does not
    res = euler_of_matrix(QMatrix.from_rows([[1, 0], [1, 0]]))
    assert not res.exists and res.value is None
    assert res.witness_weighting is not None and res.witness_coweighting is None
    # and the transpose fails the other way around
    res = euler_of_matrix(QMatrix.from_rows([[1, 1], [0, 0]]))
    assert not res.exists
    assert res.witness_weighting is None and res.witness_coweighting is not None
    assert oracle_chi([[1, 0], [1, 0]]) == (False, None)


def test_empty_category_has_characteristic_zero():
    res = euler_char(catalog.empty_category())
    assert res.exists and res.value == 0


def test_category_without_any_characteristic():
    # rank-one hom counts: both linear systems ask for 1 = 2
    cat = catalog.no_weighting_category()
    rows = [list(r) for r in adjacency(cat).matrix.to_rows()]
    assert rows == [[2, 1], [4, 2]]
    assert oracle_chi(rows) == (False, None)
    res = euler_char(cat)
    assert not res.exists and res.value is None
    assert res.witness_weighting is None and res.witness_coweighting is None
    assert weighting(cat) is None and coweighting(cat) is None
    # the defect is preserved by duality and by equivalence
    assert not euler_char(opposite(cat)).exists
    assert not euler_char(skeleton(cat)).exists


pairs = st.sampled_from(
    [(a, b) for a in SUITE for b in SUITE if len(a.morphisms) * len(b.morphisms) <= 40]
)


@settings(max_examples=40, deadline=None)
@given(pairs)
def test_additive_and_multiplicative(pair):
    a, b = pair
    ka, kb = euler_char(a), euler_char(b)
    ksum = euler_char(coproduct(a, b))
    kprod = euler_char(product(a, b))
    assert ksum.exists and ksum.value == ka.value + kb.value
    assert kprod.exists and kprod.value == ka.value * kb.value


@settings(max_examples=40, deadline=None)
@given(pairs)
def test_product_adjacency_is_kronecker(pair):
    a, b = pair
    assert adjacency(product(a, b)).matrix == kronecker(
        adjacency(a).matrix, adjacency(b).matrix
    )


def test_characteristic_is_equivalence_invariant():
    for cat in SUITE:
        sk = skeleton(cat)
        assert euler_char(cat).value == euler_char(sk).value
        assert euler_char(opposite(cat)).value == euler_char(cat).value


def test_constant_weighting_is_constant_on_classes():
    for cat in SUITE:
        cw = constant_weighting(cat)
        if cw is None:
            continue
        part = iso_classes(cat)
        seen = {}
        for x, c in enumerate(part.class_of):
            seen.setdefault(c, cw.values[x])
            assert seen[c] == cw.values[x]
        assert sum(cw.values, Fraction(0)) == euler_char(cat).value


def test_constant_weighting_frozen_values():
    assert constant_weighting(catalog.iso_pair()).values == (
        Fraction(1, 2),
        Fraction(1, 2),
    )
    assert constant_weighting(catalog.thick_arrow()).values == (
        Fraction(0),
        Fraction(0),
        Fraction(1),
    )


def test_transport_recovers_characteristic():
    ta = catalog.thick_arrow()
    sk = skeleton(ta)
    wit = equivalence_witness(ta, sk)
    moved = transport_weighting(ta, sk, wit, constant_weighting(sk))
    assert sum(moved.values, Fraction(0)) == euler_char(ta).value
    assert adjacency(ta).matrix.apply(moved.values) == tuple([Fraction(1)] * 3)


def test_transport_rejects_nonconstant_input():
    pp = catalog.iso_pair()
    wit = equivalence_witness(pp, pp)
    skew = weighting(pp)
    lop = type(skew)((Fraction(1), Fraction(0)), skew.side)
    with pytest.raises(ValueError):
        transport_weighting(pp, pp, wit, lop)


def test_codiscrete_names_stay_unique_past_ten_objects():
    # u1+11 and u11+1 once gave the same name from twelve objects on.
    # codiscrete(12) and codiscrete(3) are both equivalent to the terminal
    # category, so they share chi; oracle_chi finds ranks by minor
    # enumeration, far too slow at 12 x 12, so it is asked at 3 x 3.
    cat = catalog.codiscrete(12)
    assert len({m.name for m in cat.morphisms}) == 144
    assert hom_matrix(cat) == [[1] * 12 for _ in range(12)]
    res = euler_char(cat)
    assert (res.exists, res.value) == oracle_chi(hom_matrix(catalog.codiscrete(3)))


def test_chi_of_random_posets_matches_chain_counts():
    # Posets too large for the minor-expansion oracle, checked by counting chains.
    rng = random.Random("eulerkit posets")
    for _ in range(30):
        n = rng.randint(16, 44)
        leq = two_order_poset(rng, n)
        cat = catalog.poset_category(range(n), lambda x, y: leq[x][y])
        assert euler_char(cat).value == hall_chi(leq), n
