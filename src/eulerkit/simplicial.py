"""Truncated simplicial sets, horns, nerves, and reconstruction.

Everything lives below a truncation dimension (default 4): a structure
stores simplex ids per level together with face and degeneracy tables,
and validation checks totality plus the five simplicial identities as
far as the truncation allows.  Counting inner-horn fillers tells
quasi-categories from nerves, and reconstruction recognises a nerve by
its spines (the Segal condition) before folding it into its category.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import FormatError, NotNerveShapedError, ValidationError
from .fincat import (
    FinCat,
    Morphism,
    _check_keys,
    _node_counter,
    _pair_name,
    validate_category,
)
from .magnitude import EulerResult, euler_char

DEFAULT_DIM = 4


@dataclass(frozen=True)
class TruncatedSSet:
    """Simplicial set truncated at a dimension.

    simplices[n] lists the ids at level n; face[(n, i)] and
    degeneracy[(n, i)] are the i-th structure maps out of level n.
    """

    dim: int
    simplices: tuple[tuple[str, ...], ...]
    face: dict[tuple[int, int], dict[str, str]]
    degeneracy: dict[tuple[int, int], dict[str, str]]

    def level(self, n: int) -> tuple[str, ...]:
        return self.simplices[n] if 0 <= n <= self.dim else ()

    def counts(self) -> list[int]:
        return [len(lvl) for lvl in self.simplices]

    @cached_property
    def face_index(self) -> dict[tuple[int, tuple[int, ...]], dict[tuple[str, ...], tuple[str, ...]]]:
        """face_index[(n, indices)][faces] lists, in level order, the
        level-n simplices s with (d_i s for i in indices) == faces.

        Each (n, indices) entry is built on its first lookup and kept; the
        index lives on the instance and is not a field, so equality, repr
        and JSON interchange ignore it.  Horn search, fillers and
        filler_report all read it.
        """
        return _FaceIndex(self.simplices, self.face)


class _FaceIndex(dict):
    """The lazily filled dict behind TruncatedSSet.face_index."""

    def __init__(self, simplices, face):
        super().__init__()
        self._simplices, self._face = simplices, face

    def __missing__(self, key):
        n, indices = key
        level = self._simplices[n]
        faces = (
            zip(*[map(self._face[(n, i)].__getitem__, level) for i in indices])
            if indices else itertools.repeat(())
        )
        buckets: dict[tuple[str, ...], list[str]] = {}
        for f, s in zip(faces, level):
            buckets.setdefault(f, []).append(s)
        entry = self[key] = {f: tuple(b) for f, b in buckets.items()}
        return entry


def _required_keys(dim: int):
    faces = [(n, i) for n in range(1, dim + 1) for i in range(n + 1)]
    degs = [(n, i) for n in range(dim) for i in range(n + 1)]
    return faces, degs


def _identity_equations(dim, simplices):
    """The five simplicial identities as entries (number, n, [(i, j, lhs,
    rhs)]), in the order their violations are reported.

    A side is the path of structure maps a level-n simplex takes, left to
    right, each step ("d" for a face or "s" for a degeneracy, level,
    index); the empty path is the simplex itself.  Levels without
    simplices yield no entries.
    """

    def levels(first, stop):
        return (n for n in range(first, stop) if simplices[n])

    for n in levels(2, dim + 1):  # 1. d_i d_j = d_{j-1} d_i for i < j
        for j in range(1, n + 1):
            for i in range(j):
                yield 1, n, [(i, j, [("d", n, j), ("d", n - 1, i)],
                              [("d", n, i), ("d", n - 1, j - 1)])]
    for n in levels(0, dim - 1):  # 5. s_i s_j = s_{j+1} s_i for i <= j
        for j in range(n + 1):
            for i in range(j + 1):
                yield 5, n, [(i, j, [("s", n, j), ("s", n + 1, i)],
                              [("s", n, i), ("s", n + 1, j + 1)])]
    for n in levels(1, dim):  # 2. d_i s_j = s_{j-1} d_i for i < j
        for j in range(1, n + 1):
            for i in range(j):
                yield 2, n, [(i, j, [("s", n, j), ("d", n + 1, i)],
                              [("d", n, i), ("s", n - 1, j - 1)])]
    for n in levels(0, dim):  # 3. d_j s_j = id = d_{j+1} s_j, one entry per j
        for j in range(n + 1):
            yield 3, n, [(i, j, [("s", n, j), ("d", n + 1, i)], []) for i in (j, j + 1)]
    for n in levels(1, dim):  # 4. d_i s_j = s_j d_{i-1} for i > j+1
        for j in range(n + 1):
            for i in range(j + 2, n + 2):
                yield 4, n, [(i, j, [("s", n, j), ("d", n + 1, i)],
                              [("d", n, i - 1), ("s", n - 1, j)])]


def _holds(dim, simplices, face, degeneracy) -> bool:
    """Whether every table is total on its level into the right level and
    every identity holds, decided on position lists: each table becomes the
    list of its targets' positions, and each side of an identity is its
    path's lists composed over the whole level."""
    where = [{s: p for p, s in enumerate(level)} for level in simplices]
    positions = {}
    face_keys, deg_keys = _required_keys(dim)
    for keys, tables, kind, shift in ((face_keys, face, "d", -1), (deg_keys, degeneracy, "s", 1)):
        for n, i in keys:
            table, level = tables.get((n, i), {}), simplices[n]
            if len(table) != len(level):
                return False
            try:
                positions[(kind, n, i)] = list(
                    map(where[n + shift].__getitem__, map(table.__getitem__, level))
                )
            except KeyError:
                return False

    def image(path, size):
        out = positions[path[0]] if path else list(range(size))
        for step in path[1:]:
            out = list(map(positions[step].__getitem__, out))
        return out

    return all(
        image(lhs, len(simplices[n])) == image(rhs, len(simplices[n]))
        for _, n, equations in _identity_equations(dim, simplices)
        for _, _, lhs, rhs in equations
    )


def sset_violations(dim, simplices, face, degeneracy) -> list[str]:
    """Totality, level correctness, and the five simplicial identities.

    Shape problems (bad dimensions, duplicate ids, out-of-range table
    keys) raise FormatError.  A structure that passes is decided on
    position lists and returns [] at once; otherwise the loops below walk
    every table and simplex and are the only writers of violation text.
    """
    if dim < 0:
        raise FormatError("truncation dimension must be nonnegative")
    if len(simplices) != dim + 1:
        raise FormatError(f"expected {dim + 1} simplex levels, got {len(simplices)}")
    for n, level in enumerate(simplices):
        if not all(isinstance(s, str) for s in level):
            raise FormatError(f"level {n}: simplex ids must be strings")
        if len(set(level)) != len(level):
            raise FormatError(f"level {n}: simplex ids are not unique")
    face_keys, deg_keys = _required_keys(dim)
    for keys, tables, kind in ((face_keys, face, "face"), (deg_keys, degeneracy, "degeneracy")):
        allowed = set(keys)
        for key in tables:
            if key not in allowed:
                raise FormatError(f"{kind} table key {key} out of range")
    if _holds(dim, simplices, face, degeneracy):
        return []

    v: list[str] = []
    level_sets = [set(level) for level in simplices]

    def check_tables(keys, tables, kind, target_shift):
        for (n, i) in keys:
            table = tables.get((n, i), {})
            for s in simplices[n]:
                if s not in table:
                    v.append(f"{kind}({n},{i}) missing for simplex {s!r}")
                elif table[s] not in level_sets[n + target_shift]:
                    v.append(
                        f"{kind}({n},{i}) sends {s!r} to {table[s]!r}, "
                        f"not a level-{n + target_shift} simplex"
                    )
            for s in table:
                if s not in level_sets[n]:
                    v.append(f"{kind}({n},{i}) defined on unknown simplex {s!r}")

    check_tables(face_keys, face, "face", -1)
    check_tables(deg_keys, degeneracy, "degeneracy", +1)

    maps = {"d": face, "s": degeneracy}

    def image(path, level):
        """The end of `path` from each simplex of level, in level order;
        None where a step is undefined."""
        out = level
        for kind, m, k in path:
            get = maps[kind].get((m, k), {}).get
            out = [None if x is None else get(x) for x in out]
        return out

    for number, n, equations in _identity_equations(dim, simplices):
        level = simplices[n]
        sides = [(i, j, image(lhs, level), image(rhs, level)) for i, j, lhs, rhs in equations]
        for p, s in enumerate(level):
            for i, j, lhs, rhs in sides:
                a, b = lhs[p], rhs[p]
                if a != b and a is not None and b is not None:
                    v.append(
                        f"identity {number} fails at level {n}, (i,j)=({i},{j}), "
                        f"simplex {s!r}"
                    )
    return v


def validate_sset(dim, simplices, face, degeneracy) -> TruncatedSSet:
    simplices = tuple(tuple(level) for level in simplices)
    face = {key: dict(tbl) for key, tbl in face.items()}
    degeneracy = {key: dict(tbl) for key, tbl in degeneracy.items()}
    violations = sset_violations(dim, simplices, face, degeneracy)
    if violations:
        raise ValidationError(violations)
    # a valid structure may omit the tables of empty levels; store them empty
    face_keys, deg_keys = _required_keys(dim)
    return TruncatedSSet(
        dim,
        simplices,
        {key: face.get(key, {}) for key in face_keys},
        {key: degeneracy.get(key, {}) for key in deg_keys},
    )


# --- stock structures -----------------------------------------------------------


def _built_sset(levels, name, face_of, degeneracy_of) -> TruncatedSSet:
    """The validated structure whose level m lists name(m, x) for the x in
    levels[m], with d_i x = face_of(m, i, x) and s_i x = degeneracy_of(m, i, x)."""
    dim = len(levels) - 1
    ids = [[name(m, x) for x in level] for m, level in enumerate(levels)]

    def tables(keys, step, shift):
        return {
            (m, i): {s: name(m + shift, step(m, i, x)) for s, x in zip(ids[m], levels[m])}
            for m, i in keys
        }

    face_keys, deg_keys = _required_keys(dim)
    return validate_sset(
        dim, ids, tables(face_keys, face_of, -1), tables(deg_keys, degeneracy_of, +1)
    )


def _monotone_sset(n: int, dim: int, keep) -> TruncatedSSet:
    """The monotone tuples over {0..n} that pass `keep`, level m holding the
    (m+1)-tuples; faces drop an entry, degeneracies repeat one."""
    return _built_sset(
        [
            [t for t in itertools.combinations_with_replacement(range(n + 1), m + 1) if keep(t)]
            for m in range(dim + 1)
        ],
        lambda m, t: "|".join(map(str, t)),
        lambda m, i, t: t[:i] + t[i + 1:],
        lambda m, i, t: t[: i + 1] + t[i:],
    )


def standard_simplex(n: int, dim: int = DEFAULT_DIM) -> TruncatedSSet:
    """Level m holds the monotone (m+1)-tuples over {0..n}."""
    if n < 0:
        raise ValueError("simplex dimension must be nonnegative")
    return _monotone_sset(n, dim, lambda t: True)


def horn(n: int, k: int, dim: int = DEFAULT_DIM) -> TruncatedSSet:
    """Part of the standard n-simplex away from the face opposite vertex k.

    A monotone tuple survives exactly when its image together with {k}
    is not all of {0..n}.
    """
    if n < 1:
        raise ValueError("horns need n >= 1")
    if not 0 <= k <= n:
        raise ValueError("horn index out of range")
    if dim < n - 1:
        raise ValueError("truncation must keep at least the walls, dim >= n - 1")
    full = set(range(n + 1))
    return _monotone_sset(n, dim, lambda t: set(t) | {k} != full)


def nerve(cat: FinCat, dim: int = DEFAULT_DIM) -> TruncatedSSet:
    """Level m holds the composable m-paths; inner faces compose, outer
    faces drop an end, degeneracies insert an identity.

    Before anything is built, each level's simplices, structure-map tables
    and table entries are counted against EULERKIT_BUDGET (see
    fincat.search_budget); past it the call raises BudgetExceededError
    naming nerve.
    """
    if dim < 0:
        raise ValueError("truncation dimension must be nonnegative")
    if any("|" in o for o in cat.objects) or any(
        "|" in m.name for m in cat.morphisms
    ):
        raise FormatError("nerve ids join names with '|'; names may not contain it")
    tick = _node_counter("nerve")
    ends = [1] * len(cat.objects)  # the m-paths ending at each object, from m = 0
    for m in range(dim + 1):
        tables = (m + 1) * ((m > 0) + (m < dim))
        tick(sum(ends) * (1 + tables) + tables)
        after = [0] * len(cat.objects)
        for f in cat.morphisms:
            after[f.tgt] += ends[f.src]
        ends = after

    # level 0 holds (object,), level m >= 1 the composable m-paths of arrows
    paths = [[(x,) for x in range(len(cat.objects))], [(f,) for f in range(len(cat.morphisms))]]
    for m in range(2, dim + 1):
        paths.append([
            p + (f,)
            for p in paths[-1]
            for f in range(len(cat.morphisms))
            if cat.morphisms[f].src == cat.morphisms[p[-1]].tgt
        ])

    def path_id(m, p) -> str:
        if m == 0:
            return cat.objects[p[0]]
        return "|".join(cat.morphisms[f].name for f in p)

    def vertex(m, p, i) -> int:
        if m == 0:
            return p[0]
        return cat.morphisms[p[0]].src if i == 0 else cat.morphisms[p[i - 1]].tgt

    def face_of(m, i, p):
        if m == 1:
            return (vertex(1, p, 1 - i),)
        if i == 0:
            return p[1:]
        if i == m:
            return p[:-1]
        return p[: i - 1] + (cat.comp[(p[i], p[i - 1])],) + p[i + 1:]

    def degeneracy_of(m, i, p):
        ident = cat.identity[vertex(m, p, i)]
        return (ident,) if m == 0 else p[:i] + (ident,) + p[i:]

    return _built_sset(paths[: dim + 1], path_id, face_of, degeneracy_of)


# --- horns inside a structure ---------------------------------------------------


@dataclass(frozen=True)
class HornInstance:
    """A compatible family of faces, one per position other than k."""

    n: int
    k: int
    faces: dict[int, str]


def _horn_search(sset: TruncatedSSet, n: int, k: int, materialise: bool):
    """The (n, k)-horn families of sset as tuples of faces at the positions
    other than k, in lexicographic level order, or only their number.

    The search is breadth-first over positions: a family of faces at the
    positions before j extends by the one face-index bucket of the s with
    d_i s = d_{j-1} x_i for each earlier position i.  Every family, the
    empty one included, is one node against EULERKIT_BUDGET (see
    fincat.search_budget), ticked before it is built; the last position is
    only counted unless materialise is set.
    """
    tick = _node_counter("enumerate_inner_horns")
    level = sset.level(n - 1)
    tick(1 + len(level))  # the empty family and the one-face families (position 0)
    families = [(s,) for s in level]
    positions = [i for i in range(n + 1) if i != k]
    for idx, j in enumerate(positions[1:], 1):
        index = sset.face_index[(n - 1, tuple(positions[:idx]))]
        d_before = sset.face[(n - 1, j - 1)].__getitem__  # d_i x_j must be d_{j-1} x_i
        buckets = [index.get(tuple(map(d_before, fam)), ()) for fam in families]
        count = sum(map(len, buckets))
        tick(count)
        if idx == len(positions) - 1 and not materialise:
            return count
        families = [fam + (s,) for fam, bucket in zip(families, buckets) for s in bucket]
    return families


def enumerate_inner_horns(sset: TruncatedSSet, n: int, k: int) -> list[HornInstance]:
    """All (n, k)-horn instances in the structure, inner positions only.

    A family of faces x_j at the positions j other than k is an instance
    when d_i x_j = d_{j-1} x_i for every pair of positions i < j.  The
    search grows the families position by position; each extension is one
    face-index lookup keyed by the wanted faces, so instances come out in
    the lexicographic level order of their faces.  Past EULERKIT_BUDGET
    nodes it raises BudgetExceededError naming enumerate_inner_horns.
    """
    if not 2 <= n <= sset.dim:
        raise ValueError("horn level must satisfy 2 <= n <= dim")
    if not 0 < k < n:
        raise ValueError("inner horns need 0 < k < n")
    positions = [i for i in range(n + 1) if i != k]
    return [
        HornInstance(n, k, dict(zip(positions, fam)))
        for fam in _horn_search(sset, n, k, materialise=True)
    ]


def fillers(sset: TruncatedSSet, instance: HornInstance) -> list[str]:
    """The level-n simplices whose faces match the instance, in level order:
    one face-index lookup."""
    indices = tuple(sorted(instance.faces))
    want = tuple(instance.faces[i] for i in indices)
    return list(sset.face_index[(instance.n, indices)].get(want, ()))


@dataclass(frozen=True)
class HornStats:
    instances: int
    unfilled: int
    multiple: int


@dataclass(frozen=True)
class FillerReport:
    """Inner-horn filler counts for levels 2..dim.

    quasi means every instance has a filler, nerve_shaped means every
    instance has exactly one.  Both verdicts are relative to the
    truncation: level dim+1 horns are invisible here.
    """

    dim: int
    per_horn: dict[tuple[int, int], HornStats]
    quasi: bool
    nerve_shaped: bool


def filler_report(sset: TruncatedSSet) -> FillerReport:
    """Instances, unfilled instances and instances with several fillers,
    per inner horn (n, k) of levels 2..dim.

    The instances are counted, not built, by the search behind
    enumerate_inner_horns and under the same budget.  The walls (faces
    other than k) of every level-n simplex form an (n, k) instance by the
    simplicial identities, so the face-index entry keyed by the walls holds
    the filled instances: its length is their number, and its buckets of
    more than one simplex are the instances with several fillers.
    """
    per: dict[tuple[int, int], HornStats] = {}
    for n in range(2, sset.dim + 1):
        for k in range(1, n):
            instances = _horn_search(sset, n, k, materialise=False)
            walls = sset.face_index[(n, tuple(i for i in range(n + 1) if i != k))]
            multiple = sum(1 for bucket in walls.values() if len(bucket) > 1)
            per[(n, k)] = HornStats(instances, instances - len(walls), multiple)
    quasi = all(stats.unfilled == 0 for stats in per.values())
    unique = all(stats.multiple == 0 for stats in per.values())
    return FillerReport(sset.dim, per, quasi, quasi and unique)


# --- reconstruction -------------------------------------------------------------


def category_from_nerve(sset: TruncatedSSet) -> FinCat:
    """Fold a nerve back into its category.

    Objects are the 0-simplices, arrows the 1-simplices, and g after f is
    d_1 of the 2-simplex whose spine (d_2 s, d_0 s) is (f, g).  Raises
    NotNerveShapedError unless the composites satisfy the category axioms
    and each level 2..dim holds one simplex per composable chain of arrows,
    told apart by their spines (the Segal condition).
    """
    if sset.dim < 2:
        raise ValueError("reconstruction needs truncation dimension >= 2")
    objects = sset.level(0)
    obj_index = {o: i for i, o in enumerate(objects)}
    one = sset.level(1)
    mor_index = {s: i for i, s in enumerate(one)}
    morphisms = tuple(
        Morphism(s, obj_index[sset.face[(1, 1)][s]], obj_index[sset.face[(1, 0)][s]])
        for s in one
    )
    identity = tuple(mor_index[sset.degeneracy[(0, 0)][o]] for o in objects)
    spine = {s: (sset.face[(2, 2)][s], sset.face[(2, 0)][s]) for s in sset.level(2)}
    by_spine: dict[tuple[str, ...], list[str]] = {}
    for s, edges in spine.items():
        by_spine.setdefault(edges, []).append(s)
    comp: dict[tuple[int, int], int] = {}
    for g, gm in enumerate(morphisms):
        for f, fm in enumerate(morphisms):
            if fm.tgt != gm.src:
                continue
            found = by_spine.get((one[f], one[g]), ())
            if len(found) != 1:
                raise NotNerveShapedError(
                    f"{len(found)} fillers for the inner horn on "
                    f"({one[g]!r}, {one[f]!r}), expected exactly 1"
                )
            comp[(g, f)] = mor_index[sset.face[(2, 1)][found[0]]]
    try:
        cat = validate_category(objects, morphisms, identity, comp)
    except ValidationError as e:
        raise NotNerveShapedError(
            "extracted tables violate the category axioms: " + "; ".join(e.violations[:3])
        ) from None
    follows = Counter(f for f, _ in by_spine)  # the keys are now the composable pairs
    for n in range(3, sset.dim + 1):
        chains = sum(follows[p[-1]] for p in spine.values())
        d_n, d_0 = sset.face[(n, n)], sset.face[(n, 0)]
        spine = {s: spine[d_n[s]] + spine[d_0[s]][-1:] for s in sset.level(n)}
        if len(set(spine.values())) != len(spine) or len(spine) != chains:
            raise NotNerveShapedError(f"level {n} is not one simplex per composable {n}-chain")
    return cat


# --- combinations ---------------------------------------------------------------


def sset_coproduct(a: TruncatedSSet, b: TruncatedSSet) -> TruncatedSSet:
    if a.dim != b.dim:
        raise ValueError("coproduct needs equal truncation dimensions")
    parts = (a, b)
    return _built_sset(
        [[(k, s) for k, part in enumerate(parts) for s in part.level(n)] for n in range(a.dim + 1)],
        lambda m, x: f"{x[0]}:{x[1]}",
        lambda m, i, x: (x[0], parts[x[0]].face[(m, i)][x[1]]),
        lambda m, i, x: (x[0], parts[x[0]].degeneracy[(m, i)][x[1]]),
    )


def sset_product(a: TruncatedSSet, b: TruncatedSSet) -> TruncatedSSet:
    """Levelwise pairs with componentwise structure maps, named by
    fincat._pair_name."""
    if a.dim != b.dim:
        raise ValueError("product needs equal truncation dimensions")
    return _built_sset(
        [list(itertools.product(a.level(n), b.level(n))) for n in range(a.dim + 1)],
        lambda m, x: _pair_name(*x),
        lambda m, i, x: (a.face[(m, i)][x[0]], b.face[(m, i)][x[1]]),
        lambda m, i, x: (a.degeneracy[(m, i)][x[0]], b.degeneracy[(m, i)][x[1]]),
    )


# --- Euler characteristic by reconstruction --------------------------------------


def _classified(sset: TruncatedSSet) -> tuple[str, FinCat | None]:
    """classify_sset's verdict with the category it reconstructed, None
    for 'other'."""
    if sset.dim < 2:
        raise ValueError("classification needs truncation dimension >= 2")
    try:
        cat = category_from_nerve(sset)
    except NotNerveShapedError:
        return "other", None
    if not cat.objects:
        return "empty", cat
    return "point" if len(cat.morphisms) == 1 else "nerve", cat


def classify_sset(sset: TruncatedSSet) -> str:
    """One of 'empty', 'point', 'nerve', 'other'."""
    return _classified(sset)[0]


def chi_sset(sset: TruncatedSSet) -> EulerResult:
    """Euler characteristic via reconstruction when the structure is a
    nerve (empty and one-point structures included); otherwise the
    characteristic is not defined by this route."""
    try:
        return euler_char(category_from_nerve(sset))
    except NotNerveShapedError:
        return EulerResult(False, None, None, None)


# --- JSON interchange -----------------------------------------------------------


_SSET_KEYS = {"dim": int, "simplices": dict, "faces": dict, "degeneracies": dict}


def sset_from_json(data: dict) -> TruncatedSSet:
    _check_keys(data, _SSET_KEYS, "simplicial structure", required=("dim",))
    dim = data["dim"]
    if dim < 0:
        raise FormatError("simplicial structure: dim must be a nonnegative integer")
    if dim > 1000:  # d(d + 2) tables, whatever the file holds: a few bytes could exhaust memory
        raise FormatError("simplicial structure: dim must be at most 1000")
    raw_levels = data.get("simplices", {})
    _check_keys(raw_levels, {str(n): list for n in range(dim + 1)}, "simplices", required=())
    simplices = [tuple(raw_levels.get(str(n), [])) for n in range(dim + 1)]

    def parse_tables(raw, what):
        out = {}
        for key, table in raw.items():
            parts = key.split(",")
            if len(parts) != 2:
                raise FormatError(f"{what} key {key!r} must look like 'n,i'")
            try:
                n, i = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(f"{what} key {key!r} must look like 'n,i'") from None
            if not isinstance(table, dict) or not all(isinstance(t, str) for t in table.values()):
                raise FormatError(f"{what}[{key!r}] must map simplex ids to simplex ids")
            out[(n, i)] = table
        return out

    face = parse_tables(data.get("faces", {}), "faces")
    degeneracy = parse_tables(data.get("degeneracies", {}), "degeneracies")
    return validate_sset(dim, simplices, face, degeneracy)


def sset_to_json(sset: TruncatedSSet) -> dict:
    return {
        "dim": sset.dim,
        "simplices": {str(n): list(sset.level(n)) for n in range(sset.dim + 1)},
        "faces": {
            f"{n},{i}": dict(sorted(table.items()))
            for (n, i), table in sorted(sset.face.items())
        },
        "degeneracies": {
            f"{n},{i}": dict(sorted(table.items()))
            for (n, i), table in sorted(sset.degeneracy.items())
        },
    }
