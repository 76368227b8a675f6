"""Truncated simplicial sets, horns, nerves, and reconstruction.

Everything lives below a truncation dimension (default 4): a structure
stores simplex ids per level together with face and degeneracy tables,
and validation checks totality plus the five simplicial identities as
far as the truncation allows.  Horn instances in an ambient structure
are compatible families of faces; counting their fillers distinguishes
nerve-like structures (unique inner fillers) from merely quasi ones.
Nerve-like structures can be folded back into a category.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetExceededError, FormatError, NotNerveShapedError, ValidationError
from .fincat import (
    FinCat,
    Morphism,
    _check_keys,
    search_budget,
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
    def face_index(self) -> dict[tuple[int, int], dict[str, tuple[str, ...]]]:
        """face_index[(n, i)][x] lists the level-n simplices whose i-th face
        is x, in level order.

        Built on first use and kept on the instance; it is not a field, so
        equality, repr and JSON interchange ignore it.
        """
        index = {}
        for n in range(1, self.dim + 1):
            for i in range(n + 1):
                table = self.face[(n, i)]
                buckets: dict[str, list[str]] = {}
                for s in self.simplices[n]:
                    buckets.setdefault(table[s], []).append(s)
                index[(n, i)] = {x: tuple(b) for x, b in buckets.items()}
        return index


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


def sset_violations(dim, simplices, face, degeneracy) -> list[str]:
    """Totality, level correctness, and the five simplicial identities.

    Shape problems (bad dimensions, duplicate ids, out-of-range table
    keys) raise FormatError; everything else is reported as violations.
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
    faces drop an end, degeneracies insert an identity."""
    if dim < 0:
        raise ValueError("truncation dimension must be nonnegative")
    if any("|" in o for o in cat.objects) or any(
        "|" in m.name for m in cat.morphisms
    ):
        raise FormatError("nerve ids join names with '|'; names may not contain it")

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


def _matching(level, checks) -> list[str]:
    """The simplices s of `level` with d_i s = want for every (d_i, index
    of d_i, want) in checks, in level order: the smallest index bucket,
    filtered by the other checks."""
    bucket = level
    for _, by_face, want in checks:
        found = by_face.get(want, ())
        if len(found) < len(bucket):
            bucket = found
    out = []
    for s in bucket:
        for d_i, _, want in checks:
            if d_i[s] != want:
                break
        else:
            out.append(s)
    return out


def enumerate_inner_horns(sset: TruncatedSSet, n: int, k: int) -> list[HornInstance]:
    """All (n, k)-horn instances in the structure, inner positions only.

    Faces are chosen position by position.  A face s at position j fits
    the face chosen at an earlier position i exactly when d_i s equals
    d_{j-1} of that face, so the candidates at j are read from the face
    index: the smallest of those buckets, filtered by the others, which
    keeps level order.  Every call of the search counts as one node
    against EULERKIT_BUDGET (see fincat.search_budget); past it the
    search raises BudgetExceededError.
    """
    if not 2 <= n <= sset.dim:
        raise ValueError("horn level must satisfy 2 <= n <= dim")
    if not 0 < k < n:
        raise ValueError("inner horns need 0 < k < n")
    limit = search_budget()
    positions = [i for i in range(n + 1) if i != k]
    level = sset.level(n - 1)
    # per position j: (d_{j-1}, d_i, index of d_i) for each earlier position i
    face, index = sset.face, sset.face_index
    steps = [
        [
            (face[(n - 1, j - 1)], face[(n - 1, i)], index[(n - 1, i)])
            for i in positions[:idx]
        ]
        for idx, j in enumerate(positions)
    ]
    out: list[HornInstance] = []
    chosen: list[str] = []
    nodes = 0

    def extend(idx):
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise BudgetExceededError(limit)
        if idx == len(positions):
            out.append(HornInstance(n, k, dict(zip(positions, chosen))))
            return
        checks = [
            (d_i, by_face, d_j[earlier])
            for (d_j, d_i, by_face), earlier in zip(steps[idx], chosen)
        ]
        for s in _matching(level, checks):
            chosen.append(s)
            extend(idx + 1)
            chosen.pop()

    extend(0)
    return out


def fillers(sset: TruncatedSSet, instance: HornInstance) -> list[str]:
    """The level-n simplices whose faces match the instance, in level order.

    Candidates are the smallest face-index bucket among the instance's
    faces, filtered by the rest.
    """
    n = instance.n
    checks = [
        (sset.face[(n, i)], sset.face_index[(n, i)], want)
        for i, want in instance.faces.items()
    ]
    return _matching(sset.level(n), checks)


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
    per: dict[tuple[int, int], HornStats] = {}
    quasi = True
    unique = True
    for n in range(2, sset.dim + 1):
        for k in range(1, n):
            instances = enumerate_inner_horns(sset, n, k)
            # count fillers by their non-k face tuple instead of rescanning level n
            positions = [i for i in range(n + 1) if i != k]
            by_walls: dict[tuple[str, ...], int] = {}
            for s in sset.level(n):
                key = tuple(sset.face[(n, i)][s] for i in positions)
                by_walls[key] = by_walls.get(key, 0) + 1
            unfilled = 0
            multiple = 0
            for inst in instances:
                count = by_walls.get(tuple(inst.faces[i] for i in positions), 0)
                if count == 0:
                    unfilled += 1
                elif count > 1:
                    multiple += 1
            per[(n, k)] = HornStats(len(instances), unfilled, multiple)
            if unfilled:
                quasi = False
            if unfilled or multiple:
                unique = False
    return FillerReport(sset.dim, per, quasi, quasi and unique)


# --- reconstruction -------------------------------------------------------------


def category_from_nerve(sset: TruncatedSSet) -> FinCat:
    """Fold a structure with unique inner fillers back into a category.

    Objects are the 0-simplices, arrows the 1-simplices, and each binary
    composite is read off the unique (2,1)-horn filler.  Raises
    NotNerveShapedError when a filler is missing or ambiguous, or when
    the extracted tables fail the category axioms.
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
    comp: dict[tuple[int, int], int] = {}
    for g, gm in enumerate(morphisms):
        for f, fm in enumerate(morphisms):
            if fm.tgt != gm.src:
                continue
            inst = HornInstance(2, 1, {0: one[g], 2: one[f]})
            found = fillers(sset, inst)
            if len(found) != 1:
                raise NotNerveShapedError(
                    f"{len(found)} fillers for the inner horn on "
                    f"({one[g]!r}, {one[f]!r}), expected exactly 1"
                )
            comp[(g, f)] = mor_index[sset.face[(2, 1)][found[0]]]
    try:
        return validate_category(objects, morphisms, identity, comp)
    except ValidationError as e:
        raise NotNerveShapedError(
            "extracted tables violate the category axioms: " + "; ".join(e.violations[:3])
        ) from None


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
    """Levelwise pairs with componentwise structure maps."""
    if a.dim != b.dim:
        raise ValueError("product needs equal truncation dimensions")
    return _built_sset(
        [list(itertools.product(a.level(n), b.level(n))) for n in range(a.dim + 1)],
        lambda m, x: f"({x[0]},{x[1]})",
        lambda m, i, x: (a.face[(m, i)][x[0]], b.face[(m, i)][x[1]]),
        lambda m, i, x: (a.degeneracy[(m, i)][x[0]], b.degeneracy[(m, i)][x[1]]),
    )


# --- Euler characteristic by reconstruction --------------------------------------


def classify_sset(sset: TruncatedSSet) -> str:
    """One of 'empty', 'point', 'nerve', 'other'."""
    if sset.dim < 2:
        raise ValueError("classification needs truncation dimension >= 2")
    counts = sset.counts()
    if counts[0] == 0:
        return "empty"
    if all(c == 1 for c in counts):
        return "point"
    if filler_report(sset).nerve_shaped:
        try:
            category_from_nerve(sset)
        except NotNerveShapedError:
            return "other"
        return "nerve"
    return "other"


def chi_sset(sset: TruncatedSSet) -> EulerResult:
    """Euler characteristic via reconstruction when the structure is a
    nerve (empty and one-point structures included); otherwise the
    characteristic is not defined by this route."""
    kind = classify_sset(sset)
    if kind == "other":
        return EulerResult(False, None, None, None)
    return euler_char(category_from_nerve(sset))


# --- JSON interchange -----------------------------------------------------------


_SSET_KEYS = {"dim": int, "simplices": dict, "faces": dict, "degeneracies": dict}


def sset_from_json(data: dict) -> TruncatedSSet:
    _check_keys(data, _SSET_KEYS, "simplicial structure", required=("dim",))
    dim = data["dim"]
    if dim < 0:
        raise FormatError("simplicial structure: dim must be a nonnegative integer")
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
            out[(n, i)] = dict(table)
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
