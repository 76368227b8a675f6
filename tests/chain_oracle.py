"""Euler characteristic of an acyclic category by counting chains.

For a finite category whose only endomorphisms are identities and whose
arrows form no cycle (a finite poset, say), the Euler characteristic is
the alternating count of chains of non-identity arrows (Rota 1964, as
Möbius inversion; Leinster 2008).  This module counts those chains by a
path recurrence over the hom counts alone, without any linear solve, and
imports nothing from the package.
"""

from __future__ import annotations

import random


def hall_chi(hom_counts) -> int:
    """sum_k (-1)^k c_k, where c_k counts the chains x_0 -> ... -> x_k of k
    non-identity arrows in a category with these hom counts.

    ends[x] holds the chains of the current length that start at x; one
    more arrow in front gives ends'[x] = sum_y strict[x][y] * ends[y], with
    strict the hom counts less the identities.  Raises ValueError when the
    chains never run out (a non-identity endomorphism or a cycle).
    """
    n = len(hom_counts)
    strict = [[hom_counts[x][y] - (x == y) for y in range(n)] for x in range(n)]
    ends = [1] * n
    total = 0
    for k in range(n + 1):  # no chain of an acyclic category has more than n - 1 arrows
        total += (-1) ** k * sum(ends)
        ends = [sum(strict[x][y] * ends[y] for y in range(n)) for x in range(n)]
    if any(ends):
        raise ValueError("chains of non-identity arrows do not run out")
    return total


def two_order_poset(rng: random.Random, n: int) -> list[list[int]]:
    """The 0/1 order matrix of {0..n-1} ordered by two random linear orders
    at once: x <= y when x comes no later than y in both."""
    first, second = rng.sample(range(n), n), rng.sample(range(n), n)
    return [[int(first[x] <= first[y] and second[x] <= second[y]) for y in range(n)]
            for x in range(n)]
