"""Exact linear algebra against the minor-expansion oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulerkit import (
    QMatrix,
    format_rational,
    kronecker,
    q_canonical,
    solve_affine,
    transpose,
)
from oracles import kron_oracle, oracle_solve, rank

entries = st.integers(min_value=-3, max_value=3).map(Fraction) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def matrices(draw, max_side=4):
    rows = draw(st.integers(min_value=1, max_value=max_side))
    cols = draw(st.integers(min_value=1, max_value=max_side))
    data = draw(
        st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return QMatrix.from_rows(data)


def rows_of(m):
    return [list(r) for r in m.to_rows()]


def test_canonical_and_format():
    assert q_canonical(Fraction(2, 4)) == Fraction(1, 2)
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"


def test_entries_must_be_exact():
    with pytest.raises(TypeError):
        QMatrix.from_rows([[0.5]])


def test_shape_errors():
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        solve_affine(QMatrix.identity(2), (Fraction(1),))


def test_solve_frozen_examples():
    # invertible: unique solution, empty kernel
    s = solve_affine(QMatrix.from_rows([[1, 1], [0, 1]]), (Fraction(1), Fraction(1)))
    assert s.consistent and s.particular == (Fraction(0), Fraction(1))
    assert s.nullspace_basis == ()

    # the rank-2 system on three unknowns from the worked example
    s = solve_affine(
        QMatrix.from_rows([[1, 1, 1], [1, 1, 1], [0, 0, 1]]),
        (Fraction(1), Fraction(1), Fraction(1)),
    )
    assert s.consistent
    assert s.particular == (Fraction(0), Fraction(0), Fraction(1))
    assert s.nullspace_basis == ((Fraction(1), Fraction(-1), Fraction(0)),)

    # inconsistent, but the kernel of the matrix is still reported
    s = solve_affine(QMatrix.from_rows([[1, 1], [0, 0]]), (Fraction(1), Fraction(1)))
    assert not s.consistent and s.particular is None
    assert len(s.nullspace_basis) == 1


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_oracle(m, data):
    b = data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows))
    got = solve_affine(m, tuple(b))
    ok, x, nullity = oracle_solve(rows_of(m), list(b))
    assert got.consistent == ok
    assert len(got.nullspace_basis) == nullity
    if ok:
        assert tuple(got.particular) == tuple(x)


def assert_reduced_structure(m, b, s, free):
    """The solution fixed by the reduced row-echelon form, whatever the
    elimination: one kernel vector per free column c, with -1 at c and 0 at
    every other free column and at every pivot column after c; the
    particular solution vanishes on the free columns."""
    assert len(s.nullspace_basis) == len(free)
    pivots = [c for c in range(m.cols) if c not in free]
    for c, v in zip(free, s.nullspace_basis):
        assert m.apply(v) == tuple([Fraction(0)] * m.rows)
        assert v[c] == -1
        assert all(v[d] == 0 for d in free if d != c)
        assert all(v[p] == 0 for p in pivots if p > c)
    if s.consistent:
        assert all(s.particular[c] == 0 for c in free)
        assert m.apply(s.particular) == b


@st.composite
def deficient_matrices(draw, max_side=4):
    """A matrix whose column c is a combination of the columns before it,
    so that a free column can come before a pivot column."""
    m = draw(matrices(max_side))
    if m.cols < 2:
        return m
    c = draw(st.integers(min_value=1, max_value=m.cols - 1))
    coef = draw(st.lists(entries, min_size=c, max_size=c))
    rows = rows_of(m)
    for r in rows:
        r[c] = sum((k * x for k, x in zip(coef, r)), Fraction(0))
    return QMatrix.from_rows(rows)


@settings(max_examples=80, deadline=None)
@given(matrices() | deficient_matrices(), st.data())
def test_solution_set_structure(m, data):
    b = tuple(data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows)))
    s = solve_affine(m, b)
    rows = rows_of(m)
    prefix_rank = [rank([r[:c] for r in rows]) for c in range(m.cols + 1)]
    free = [c for c in range(m.cols) if prefix_rank[c + 1] == prefix_rank[c]]
    assert_reduced_structure(m, b, s, free)


def test_solution_structure_10x10_mixed_denominators():
    # M = T R: R is in reduced form with free columns 3 and 7, and T has
    # full column rank with row 9 a copy of row 4, so M has the kernel and
    # the free columns of R and a duplicate row.
    free = [3, 7]
    pivots = [c for c in range(10) if c not in free]
    r_rows = []
    for k, p in enumerate(pivots):
        row = [Fraction(0)] * 10
        row[p] = Fraction(1)
        for c in free:
            if c > p:
                row[c] = Fraction((3 * k + c) % 7 - 3, 1 + (k + c) % 5)
        r_rows.append(row)
    t_rows = [
        [Fraction(1) if j == i else Fraction((i * 5 + j * 3) % 9 - 4, 1 + (i + 2 * j) % 6)
         if j < i else Fraction(0) for j in range(8)]
        for i in range(8)
    ]
    t_rows.append([Fraction(j - 3, 2 + j % 3) for j in range(8)])
    t_rows.append(list(t_rows[4]))
    m = QMatrix.from_rows(
        [[sum((t[k] * r_rows[k][c] for k in range(8)), Fraction(0)) for c in range(10)]
         for t in t_rows]
    )
    assert m.row(9) == m.row(4)
    x = [Fraction(j % 4 - 1, 1 + j % 3) for j in range(10)]
    b = m.apply(x)
    s = solve_affine(m, b)
    assert s.consistent
    assert_reduced_structure(m, b, s, free)
    # breaking the duplicate row makes the system inconsistent; the kernel stays
    broken = b[:9] + (b[9] + Fraction(1, 3),)
    t = solve_affine(m, broken)
    assert not t.consistent and t.particular is None
    assert t.nullspace_basis == s.nullspace_basis


@settings(max_examples=40, deadline=None)
@given(matrices(max_side=3))
def test_transpose_involution(m):
    assert transpose(transpose(m)) == m


@settings(max_examples=40, deadline=None)
@given(matrices(max_side=3), matrices(max_side=3))
def test_kronecker_matches_oracle(a, b):
    got = kronecker(a, b)
    want = kron_oracle(rows_of(a), rows_of(b))
    assert rows_of(got) == [list(r) for r in want]


def test_kronecker_identity_blocks():
    assert kronecker(QMatrix.identity(2), QMatrix.identity(3)) == QMatrix.identity(6)
