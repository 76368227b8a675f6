"""Stock finite categories used by the demos and the property suites.

Everything returned here has already been through validate_category, so a
construction bug shows up as a loud ValidationError at build time rather
than as a wrong number downstream.
"""

from __future__ import annotations

from itertools import product as iproduct

from .fincat import FinCat, Morphism, validate_category, with_identity_composites


def empty_category() -> FinCat:
    return validate_category((), (), (), {})


def terminal_category() -> FinCat:
    return discrete(1)


def discrete(n: int, names=None) -> FinCat:
    """n objects, identities only."""
    if names is None:
        names = [f"x{i}" for i in range(n)]
    objects = tuple(names)
    morphisms = tuple(Morphism(f"1{o}", i, i) for i, o in enumerate(objects))
    identity = tuple(range(n))
    comp = {(i, i): i for i in range(n)}
    return validate_category(objects, morphisms, identity, comp)


def codiscrete(n: int) -> FinCat:
    """n objects with exactly one morphism in every direction; all iso."""
    objects = tuple(f"x{i}" for i in range(n))
    morphisms = tuple(
        Morphism(f"u{i}_{j}", i, j) for i in range(n) for j in range(n)
    )
    identity = tuple(i * n + i for i in range(n))
    comp = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # u_{jk} after u_{ij} = u_{ik}
                comp[(j * n + k, i * n + j)] = i * n + k
    return validate_category(objects, morphisms, identity, comp)


def arrow() -> FinCat:
    """Two objects, one non-identity arrow x -> y."""
    objects = ("x", "y")
    morphisms = (Morphism("1x", 0, 0), Morphism("1y", 1, 1), Morphism("f", 0, 1))
    identity = (0, 1)
    comp = with_identity_composites(morphisms, identity, {})
    return validate_category(objects, morphisms, identity, comp)


def parallel_pair() -> FinCat:
    """Two objects with two parallel arrows x => y; Euler characteristic 0."""
    objects = ("x", "y")
    morphisms = (
        Morphism("1x", 0, 0),
        Morphism("1y", 1, 1),
        Morphism("s", 0, 1),
        Morphism("t", 0, 1),
    )
    identity = (0, 1)
    comp = with_identity_composites(morphisms, identity, {})
    return validate_category(objects, morphisms, identity, comp)


def iso_pair() -> FinCat:
    """Two isomorphic objects and nothing else (the interval groupoid)."""
    objects = ("x", "y")
    morphisms = (
        Morphism("1x", 0, 0),
        Morphism("1y", 1, 1),
        Morphism("f", 0, 1),
        Morphism("g", 1, 0),
    )
    identity = (0, 1)
    comp = with_identity_composites(
        morphisms, identity, {(3, 2): 0, (2, 3): 1}  # g after f = 1x, f after g = 1y
    )
    return validate_category(objects, morphisms, identity, comp)


def thick_arrow() -> FinCat:
    """An iso pair x ~ y with an extra arrow into a third object z.

    Seven morphisms; the skeleton is the plain arrow category, so this is
    the smallest interesting test of equivalence-invariance.
    """
    objects = ("x", "y", "z")
    #           0     1     2     3    4    5    6
    names = [("1x", 0, 0), ("1y", 1, 1), ("1z", 2, 2),
             ("f", 0, 1), ("g", 1, 0), ("h", 1, 2), ("k", 0, 2)]
    morphisms = tuple(Morphism(*m) for m in names)
    identity = (0, 1, 2)
    comp = {
        (4, 3): 0,  # g after f = 1x
        (3, 4): 1,  # f after g = 1y
        (5, 3): 6,  # h after f = k
        (6, 4): 5,  # k after g = h
    }
    comp = with_identity_composites(morphisms, identity, comp)
    return validate_category(objects, morphisms, identity, comp)


def walking_retract() -> FinCat:
    """Section/retraction pair a -> b -> a with split idempotent on b."""
    objects = ("a", "b")
    #           0     1     2            3            4
    names = [("1a", 0, 0), ("1b", 1, 1), ("s", 0, 1), ("r", 1, 0), ("e", 1, 1)]
    morphisms = tuple(Morphism(*m) for m in names)
    identity = (0, 1)
    comp = {
        (3, 2): 0,  # r after s = 1a
        (2, 3): 4,  # s after r = e
        (4, 2): 2,  # e after s = s
        (3, 4): 3,  # r after e = r
        (4, 4): 4,  # e after e = e
    }
    comp = with_identity_composites(morphisms, identity, comp)
    return validate_category(objects, morphisms, identity, comp)


def monoid_category(table: list[list[int]], names=None, unit: int = 0) -> FinCat:
    """One-object category from a monoid multiplication table.

    table[i][j] is i*j read as "i after j"; `unit` names the identity row.
    """
    m = len(table)
    if names is None:
        names = [f"m{i}" for i in range(m)]
    morphisms = tuple(Morphism(str(nm), 0, 0) for nm in names)
    comp = {(i, j): table[i][j] for i in range(m) for j in range(m)}
    return validate_category(("*",), morphisms, (unit,), comp)


def cyclic_group(n: int) -> FinCat:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return monoid_category(table, names=[f"g{i}" for i in range(n)])


def klein_four() -> FinCat:
    """Z/2 x Z/2 as a one-object category."""
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]
    index = {e: i for i, e in enumerate(elems)}
    table = [
        [index[((a + c) % 2, (b + d) % 2)] for (c, d) in elems] for (a, b) in elems
    ]
    return monoid_category(table, names=["e", "a", "b", "ab"])


def idempotent_monoid() -> FinCat:
    """The two-element monoid {1, e} with e*e = e; chi = 1/2."""
    return monoid_category([[0, 1], [1, 1]], names=["1", "e"])


def full_transformation_monoid(n: int) -> FinCat:
    """All functions {0..n-1} -> {0..n-1} under composition."""
    funcs = sorted(iproduct(range(n), repeat=n))
    index = {f: i for i, f in enumerate(funcs)}
    table = [
        [index[tuple(f[g[k]] for k in range(n))] for g in funcs] for f in funcs
    ]
    unit = index[tuple(range(n))]
    names = ["".join(map(str, f)) for f in funcs]
    return monoid_category(table, names=names, unit=unit)


def poset_category(elements, leq) -> FinCat:
    """Category of a finite poset: one morphism x -> y whenever leq(x, y)."""
    elements = list(elements)
    objects = tuple(str(e) for e in elements)
    n = len(elements)
    morphisms = []
    index = {}
    for i in range(n):
        for j in range(n):
            if leq(elements[i], elements[j]):
                index[(i, j)] = len(morphisms)
                morphisms.append(Morphism(f"{objects[i]}<={objects[j]}", i, j))
    identity = tuple(index[(i, i)] for i in range(n))
    comp = {}
    for (i, j), f in index.items():
        for (j2, k), g in index.items():
            if j2 == j:
                comp[(g, f)] = index[(i, k)]
    return validate_category(objects, morphisms, identity, comp)


def chain(n: int) -> FinCat:
    """Total order on n elements."""
    return poset_category(range(n), lambda a, b: a <= b)


def diamond() -> FinCat:
    """Poset 0 < a, b < 1 (the face lattice of an interval)."""
    order = {
        ("bot", "bot"), ("bot", "l"), ("bot", "r"), ("bot", "top"),
        ("l", "l"), ("l", "top"), ("r", "r"), ("r", "top"), ("top", "top"),
    }
    return poset_category(["bot", "l", "r", "top"], lambda a, b: (a, b) in order)


def vee() -> FinCat:
    """Poset with one bottom under two incomparable tops: b <= l, b <= r."""
    order = {("b", "b"), ("l", "l"), ("r", "r"), ("b", "l"), ("b", "r")}
    return poset_category(["b", "l", "r"], lambda a, b: (a, b) in order)


def wedge() -> FinCat:
    """Poset with two incomparable bottoms under one top: l, r <= t."""
    order = {("t", "t"), ("l", "l"), ("r", "r"), ("l", "t"), ("r", "t")}
    return poset_category(["l", "r", "t"], lambda a, b: (a, b) in order)


def fence() -> FinCat:
    """Zigzag poset a <= m >= b (pushout shape)."""
    order = {("a", "a"), ("b", "b"), ("m", "m"), ("a", "m"), ("b", "m")}
    return poset_category(["a", "m", "b"], lambda x, y: (x, y) in order)


def no_weighting_category() -> FinCat:
    """Two objects whose hom counts form the rank-one matrix [[2, 1], [4, 2]].

    The second row is twice the first and the first column twice the second,
    so both the weighting and the coweighting systems ask for 1 = 2: neither
    exists and the Euler characteristic is undefined.  Found by exhaustive
    search over small composition tables.  Generators: an idempotent t on x,
    an arrow f: x -> y, and four arrows p0..p3: y -> x that t collapses onto
    p0; every p_i f equals t, every f p_i equals the idempotent u on y.
    """
    objects = ("x", "y")
    #           0     1     2            3
    names = [("1x", 0, 0), ("1y", 1, 1), ("t", 0, 0), ("f", 0, 1),
             ("p0", 1, 0), ("p1", 1, 0), ("p2", 1, 0), ("p3", 1, 0),
             ("u", 1, 1)]
    morphisms = tuple(Morphism(*m) for m in names)
    identity = (0, 1)
    comp = {
        (2, 2): 2,  # t after t = t
        (3, 2): 3,  # f after t = f
        (8, 3): 3,  # u after f = f
        (8, 8): 8,  # u after u = u
    }
    for p in (4, 5, 6, 7):
        comp[(p, 3)] = 2  # p_i after f = t
        comp[(3, p)] = 8  # f after p_i = u
        comp[(2, p)] = 4  # t after p_i = p0
        comp[(p, 8)] = 4  # p_i after u = p0
    comp = with_identity_composites(morphisms, identity, comp)
    return validate_category(objects, morphisms, identity, comp)


def base_suite() -> list[FinCat]:
    """Small categories with defined chi, safe to combine with products."""
    return [
        terminal_category(),
        discrete(2),
        discrete(3),
        arrow(),
        parallel_pair(),
        iso_pair(),
        thick_arrow(),
        walking_retract(),
        codiscrete(2),
        codiscrete(3),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        cyclic_group(6),
        klein_four(),
        idempotent_monoid(),
        full_transformation_monoid(2),
        chain(3),
        chain(4),
        chain(5),
        diamond(),
        vee(),
        wedge(),
        fence(),
    ]


# --- stock bicategories --------------------------------------------------------


def suspension_z2() -> "FinBicat":
    """Two zero-cells with every hom the Z/2 one-object category.

    Every hom characteristic is 1/2, the total characteristic is 2, and
    the two zero-cells are internally equivalent.
    """
    from .higher import bicat_from_parts

    mult = {(i, j): (i + j) % 2 for i in range(2) for j in range(2)}
    homcat = {(x, y): cyclic_group(2) for x in range(2) for y in range(2)}
    hcomp_one = {key: {(0, 0): 0} for key in iproduct(range(2), repeat=3)}
    hcomp_two = {key: dict(mult) for key in iproduct(range(2), repeat=3)}
    return bicat_from_parts(["x", "y"], homcat, hcomp_one, hcomp_two, units=[0, 0])


def upper_triangular_bicat() -> "FinBicat":
    """Two zero-cells with hom characteristics [[1, 2], [0, 1/2]].

    The weighting is [-3, 2], the coweighting [1, -2], and the total
    characteristic -1: bicategory characteristics can be negative even
    though every hom characteristic here is nonnegative.
    """
    from .higher import bicat_from_parts

    hom_xx = discrete(1, ["ix"])
    hom_xy = discrete(2, ["f1", "f2"])
    hom_yx = empty_category()
    hom_yy = cyclic_group(2)
    homcat = {(0, 0): hom_xx, (0, 1): hom_xy, (1, 0): hom_yx, (1, 1): hom_yy}
    hcomp_one = {
        (0, 0, 0): {(0, 0): 0},
        (0, 0, 1): {(0, 0): 0, (1, 0): 1},  # f_i after ix = f_i
        (0, 1, 1): {(0, 0): 0, (0, 1): 1},  # ey after f_i = f_i
        (1, 1, 1): {(0, 0): 0},
    }
    hcomp_two = {
        # whiskering the hom(y,y) 2-cells onto f_i gives identities
        (0, 1, 1): {(b, a): a for b in range(2) for a in range(2)},
        (1, 1, 1): {(i, j): (i + j) % 2 for i in range(2) for j in range(2)},
    }
    return bicat_from_parts(["x", "y"], homcat, hcomp_one, hcomp_two, units=[0, 0])


def no_weighting_bicat() -> "FinBicat":
    """Two zero-cells with hom characteristics [[0, 1], [0, 2]].

    Every hom characteristic exists, but the matrix admits neither a
    weighting nor a coweighting, so the total characteristic does not.

    It is not a bicategory: in hom(x,x), unit a, t * 1_a = s where natural
    unitors need t.  bicat_violations accepts it as it does not check that.
    """
    from .higher import bicat_from_parts

    hom_xx = parallel_pair()  # 1-cells a = objects[0] (unit) and b
    hom_xy = discrete(1, ["k"])
    hom_yx = empty_category()
    hom_yy = discrete(2, ["iy", "z"])
    homcat = {(0, 0): hom_xx, (0, 1): hom_xy, (1, 0): hom_yx, (1, 1): hom_yy}
    hcomp_one = {
        (0, 0, 0): {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
        (0, 0, 1): {(0, 0): 0, (0, 1): 0},  # k after either 1-cell is k
        (0, 1, 1): {(0, 0): 0, (1, 0): 0},
        (1, 1, 1): {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    }
    # 2-cells of hom(x,x): 0 = 1a, 1 = 1b, 2 = s, 3 = t.  Horizontal
    # composition sends every pair whose composite runs a -> b to s; the
    # other images are forced by their endpoints.
    two_xx = {}
    mor = [(0, 0), (1, 1), (0, 1), (0, 1)]  # endpoint data of parallel_pair
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    for b in range(4):
        for a in range(4):
            src = table[(mor[b][0], mor[a][0])]
            tgt = table[(mor[b][1], mor[a][1])]
            if (src, tgt) == (0, 0):
                two_xx[(b, a)] = 0
            elif (src, tgt) == (1, 1):
                two_xx[(b, a)] = 1
            else:
                two_xx[(b, a)] = 2  # constant choice s among {s, t}
    hcomp_two = {
        (0, 0, 0): two_xx,
        (0, 0, 1): {(0, a): 0 for a in range(4)},
        (0, 1, 1): {(b, 0): 0 for b in range(2)},
    }
    return bicat_from_parts(["x", "y"], homcat, hcomp_one, hcomp_two, units=[0, 0])


def undefined_hom_bicat() -> "FinBicat":
    """Two zero-cells where hom(x, y) itself has no Euler characteristic.

    The off-diagonal hom is no_weighting_category, so the matrix of hom
    characteristics cannot even be written down.  Both endpoint homs are
    terminal, so every horizontal composite is forced by whiskering.
    """
    from .higher import bicat_from_parts

    hom_xy = no_weighting_category()
    n1 = len(hom_xy.objects)  # 1-cells x -> y
    n2 = len(hom_xy.morphisms)  # 2-cells between them
    homcat = {
        (0, 0): discrete(1, ["ix"]),
        (0, 1): hom_xy,
        (1, 0): empty_category(),
        (1, 1): discrete(1, ["iy"]),
    }
    hcomp_one = {
        (0, 0, 0): {(0, 0): 0},
        (0, 0, 1): {(k, 0): k for k in range(n1)},  # k after ix = k
        (0, 1, 1): {(0, k): k for k in range(n1)},  # iy after k = k
        (1, 1, 1): {(0, 0): 0},
    }
    hcomp_two = {
        (0, 0, 1): {(m, 0): m for m in range(n2)},
        (0, 1, 1): {(0, m): m for m in range(n2)},
    }
    return bicat_from_parts(["x", "y"], homcat, hcomp_one, hcomp_two, units=[0, 0])
