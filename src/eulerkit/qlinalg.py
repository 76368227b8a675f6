"""Exact rational scalars, dense matrices, and an affine solver.

Scalars are `fractions.Fraction` values, which are canonical by
construction: fully reduced, positive denominator, zero stored as 0/1.
Nothing in this module ever rounds or touches floating point.

`solve_affine` is the one solver: it clears the denominators of each row
and runs a single fraction-free (Bareiss) Gauss-Jordan elimination on
Python ints, with the first-nonzero pivot rule.  No path computes with
`Fraction` before the final division of each output entry by its pivot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Rational = Fraction

QVector = tuple[Fraction, ...]


def q_canonical(numerator: int, denominator: int = 1) -> Fraction:
    """Reduced positive-denominator rational numerator/denominator."""
    if denominator == 0:
        raise ZeroDivisionError("zero denominator")
    return Fraction(numerator, denominator)


def _frac(value) -> Fraction:
    # Fraction(str) would accept floats-as-strings; keep the domain tight.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class QMatrix:
    """Dense row-major matrix of rationals."""

    rows: int
    cols: int
    entries: QVector

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != rows*cols = {self.rows * self.cols}"
            )
        object.__setattr__(self, "entries", tuple(_frac(e) for e in self.entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "QMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        flat = tuple(_frac(e) for r in rows for e in r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i},{j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> QVector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> QVector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def apply(self, vec: Sequence) -> QVector:
        """Matrix-vector product."""
        v = [_frac(x) for x in vec]
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        return tuple(
            sum((self[i, j] * v[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )


def transpose(m: QMatrix) -> QMatrix:
    return QMatrix(
        m.cols, m.rows, tuple(e for j in range(m.cols) for e in m.entries[j :: m.cols])
    )


def kronecker(a: QMatrix, b: QMatrix) -> QMatrix:
    """Kronecker product; block (i,j) is a[i,j] * b."""
    entries = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                aij = a[i, j]
                for l in range(b.cols):
                    entries.append(aij * b[k, l])
    return QMatrix(a.rows * b.rows, a.cols * b.cols, tuple(entries))


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of an exact affine solve M v = b.

    When consistent, `particular` pins every free variable to zero and the
    solution set is exactly particular + span(nullspace_basis).  The basis
    holds one kernel vector per free column, in ascending free-column
    order; it describes M alone, so it is reported even when no solution
    exists.
    """

    consistent: bool
    particular: QVector | None
    nullspace_basis: tuple[QVector, ...]


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators, as Python ints."""
    scale = math.lcm(*(e.denominator for e in row))
    if scale == 1:
        return [e.numerator for e in row]
    return [e.numerator * (scale // e.denominator) for e in row]


def solve_affine(matrix: QMatrix, rhs: Sequence) -> LinearSolution:
    """Fraction-free Gauss-Jordan solve of matrix * v = rhs over the rationals.

    Each row of [matrix | rhs] is first scaled by the lcm of its
    denominators, which leaves the reduced row-echelon form unchanged.
    The elimination then runs on Python ints with the Bareiss step
    row_i = (pv*row_i - f*pivot_row) // prev_pivot for every row but the
    pivot row; the division is exact, and after each step every pivot row
    carries the same pivot value.  Each output entry is one final division
    by that pivot, so no path computes with Fraction before it.

    Pivoting takes the first nonzero entry in column order, so the pivot
    column set is the lexicographically earliest independent column set.
    Each nullspace basis vector carries the reduced column of its free
    variable on the pivot slots and -1 in the free slot itself, which
    makes M v = 0 immediate from the reduced rows.
    """
    b = [_frac(x) for x in rhs]
    rows, n = matrix.rows, matrix.cols
    if len(b) != rows:
        raise ValueError(f"rhs length {len(b)} != rows {rows}")
    aug = [_integer_row(matrix.row(i) + (b[i],)) for i in range(rows)]
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, rows) if aug[i][c]), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        top = aug[r]
        pv = top[c]
        for i, row in enumerate(aug):
            if i == r:
                continue
            f = row[c]
            if f:
                aug[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
            elif pv != prev:
                aug[i] = [pv * x // prev for x in row]
        prev = pv
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    consistent = all(aug[i][n] == 0 for i in range(r, rows))
    pivot_set = set(pivot_cols)
    basis = []
    for free_col in range(n):
        if free_col in pivot_set:
            continue
        v = [Fraction(0)] * n
        v[free_col] = Fraction(-1)
        for k, c in enumerate(pivot_cols):
            v[c] = Fraction(aug[k][free_col], aug[k][c])
        basis.append(tuple(v))
    # the nullspace belongs to the matrix, not the rhs, so report it either way
    if not consistent:
        return LinearSolution(False, None, tuple(basis))
    particular = [Fraction(0)] * n
    for k, c in enumerate(pivot_cols):
        particular[c] = Fraction(aug[k][n], aug[k][c])
    return LinearSolution(True, tuple(particular), tuple(basis))


def format_rational(q: Fraction) -> str:
    """Render p/q, omitting the denominator when it is 1."""
    q = _frac(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
