"""Weightings, coweightings, and the Euler characteristic of a finite category.

The adjacency matrix of a category counts hom-sets: entry (i, j) is
|Hom(x_i, x_j)| in the stored object order.  A weighting is any exact
solution of M v = 1; a coweighting solves the transposed system.  The
Euler characteristic is the common sum when both exist; non-existence is
reported, never approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .fincat import EquivalenceWitness, FinCat, iso_classes
from .qlinalg import LinearSolution, QMatrix, QVector, solve_affine, transpose


@dataclass(frozen=True)
class AdjacencyMatrix:
    matrix: QMatrix


@dataclass(frozen=True)
class Weighting:
    values: QVector
    side: str  # "weighting" | "coweighting"

    def __post_init__(self):
        if self.side not in ("weighting", "coweighting"):
            raise ValueError(f"bad side {self.side!r}")

    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))


@dataclass(frozen=True)
class EulerResult:
    exists: bool
    value: Fraction | None
    witness_weighting: Weighting | None
    witness_coweighting: Weighting | None


def adjacency(cat: FinCat) -> AdjacencyMatrix:
    n = len(cat.objects)
    entries = [Fraction(0)] * (n * n)
    for (i, j), mors in cat.hom_index.items():
        if 0 <= i < n and 0 <= j < n:  # an unvalidated FinCat may point outside
            entries[i * n + j] = Fraction(len(mors))
    return AdjacencyMatrix(QMatrix(n, n, tuple(entries)))


def weighting_solution(matrix: QMatrix) -> LinearSolution:
    return solve_affine(matrix, [Fraction(1)] * matrix.rows)


def coweighting_solution(matrix: QMatrix) -> LinearSolution:
    # A coweighting of M is a weighting of the transpose (the opposite
    # category has the transposed adjacency matrix).
    return solve_affine(transpose(matrix), [Fraction(1)] * matrix.cols)


def weighting(cat: FinCat) -> Weighting | None:
    sol = weighting_solution(adjacency(cat).matrix)
    if not sol.consistent:
        return None
    return Weighting(sol.particular, "weighting")


def coweighting(cat: FinCat) -> Weighting | None:
    sol = coweighting_solution(adjacency(cat).matrix)
    if not sol.consistent:
        return None
    return Weighting(sol.particular, "coweighting")


def euler_of_matrix(matrix: QMatrix) -> EulerResult:
    """Euler characteristic of a square adjacency-style matrix."""
    if matrix.rows != matrix.cols:
        raise ValueError("adjacency matrix must be square")
    w = weighting_solution(matrix)
    c = coweighting_solution(matrix)
    if not (w.consistent and c.consistent):
        return EulerResult(
            False,
            None,
            Weighting(w.particular, "weighting") if w.consistent else None,
            Weighting(c.particular, "coweighting") if c.consistent else None,
        )
    ww = Weighting(w.particular, "weighting")
    cw = Weighting(c.particular, "coweighting")
    # The two sums agree whenever both systems are solvable.
    assert ww.total() == cw.total()
    return EulerResult(True, ww.total(), ww, cw)


def euler_char(cat: FinCat) -> EulerResult:
    """chi of the category; the empty category has chi = 0 by convention."""
    return euler_of_matrix(adjacency(cat).matrix)


def constant_weighting(cat: FinCat) -> Weighting | None:
    """Weighting averaged over isomorphism classes, exact.

    Replaces each coordinate by the class average, which is again a
    weighting because isomorphic objects have identical hom-counts.
    """
    base = weighting(cat)
    if base is None:
        return None
    part = iso_classes(cat)
    class_sum: dict[int, Fraction] = {}
    class_size: dict[int, int] = {}
    for x, c in enumerate(part.class_of):
        class_sum[c] = class_sum.get(c, Fraction(0)) + base.values[x]
        class_size[c] = class_size.get(c, 0) + 1
    values = tuple(
        class_sum[c] / class_size[c] for c in part.class_of
    )
    result = Weighting(values, "weighting")
    _assert_weighting(cat, result)
    return result


def _assert_weighting(cat: FinCat, w: Weighting):
    m = adjacency(cat).matrix
    got = m.apply(w.values)
    if any(v != 1 for v in got):
        raise ValidationError(
            [f"vector is not a weighting: row {i} gives {v}" for i, v in enumerate(got) if v != 1]
        )


def transport_weighting(
    source: FinCat, target: FinCat, witness: EquivalenceWitness, ell: Weighting
) -> Weighting:
    """Pull a constant-on-classes weighting back along an equivalence.

    `ell` must be a weighting on `target` that is constant on isomorphism
    classes; each source object x gets the class total of ell at the image
    of x, divided by the size of x's own class.  The result is checked to
    be a genuine weighting on `source` before it is returned.
    """
    part_t = witness.target_partition
    class_values: dict[int, Fraction] = {}
    for y, c in enumerate(part_t.class_of):
        if c in class_values:
            if class_values[c] != ell.values[y]:
                raise ValueError(
                    "weighting is not constant on isomorphism classes "
                    f"(class {c}: {class_values[c]} vs {ell.values[y]})"
                )
        else:
            class_values[c] = ell.values[y]
    class_sizes_t = [part_t.class_size(c) for c in range(len(part_t.representatives))]
    part_s = witness.source_partition
    values = []
    for x in range(len(source.objects)):
        image_class = part_t.class_of[witness.object_map[x]]
        class_total = class_values[image_class] * class_sizes_t[image_class]
        values.append(class_total / part_s.class_size(part_s.class_of[x]))
    result = Weighting(tuple(values), "weighting")
    _assert_weighting(source, result)
    return result
