"""Finite categories as explicit tables, with validation and constructions.

A category is stored as object names, a morphism list (name, source,
target), an identity-morphism index per object, and a total composition
table on composable pairs keyed (g, f) meaning "g after f".  Validation
collects every axiom violation instead of stopping at the first; nothing
here ever repairs input silently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import BudgetExceededError, FormatError, ValidationError

DEFAULT_BUDGET = 10_000_000


def search_budget(budget: int | None = None) -> int:
    """Resolve the node budget: explicit arg, else EULERKIT_BUDGET, else 10^7."""
    if budget is not None:
        return budget
    raw = os.environ.get("EULERKIT_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise FormatError(f"EULERKIT_BUDGET must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise FormatError("EULERKIT_BUDGET must be positive")
    return value


class Morphism(NamedTuple):
    name: str
    src: int
    tgt: int


@dataclass(frozen=True, eq=True)
class FinCat:
    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: tuple[int, ...]  # object index -> identity morphism index
    comp: dict[tuple[int, int], int]  # (g, f) -> g-after-f

    @cached_property
    def hom_index(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """hom_index[(x, y)] lists the morphisms x -> y, ascending; pairs
        with no morphism are absent.

        Built on first use and kept on the instance; it is not a field, so
        equality, repr and JSON interchange ignore it.
        """
        index: dict[tuple[int, int], list[int]] = {}
        for i, m in enumerate(self.morphisms):
            index.setdefault((m.src, m.tgt), []).append(i)
        return {pair: tuple(mors) for pair, mors in index.items()}

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        return self.hom_index.get((x, y), ())

    def hom_count(self, x: int, y: int) -> int:
        return len(self.hom_index.get((x, y), ()))

    def object_index(self, name: str) -> int:
        return self.objects.index(name)

    def morphism_index(self, name: str) -> int:
        for i, m in enumerate(self.morphisms):
            if m.name == name:
                return i
        raise KeyError(name)

    def compose(self, g: int, f: int) -> int:
        return self.comp[(g, f)]


def hom_count(cat: FinCat, x: int, y: int) -> int:
    return cat.hom_count(x, y)


def with_identity_composites(
    morphisms: Sequence[Morphism],
    identity: Sequence[int],
    comp: Mapping[tuple[int, int], int],
) -> dict[tuple[int, int], int]:
    """Fill in absent identity composites; never overwrites explicit entries."""
    full = dict(comp)
    for f, m in enumerate(morphisms):
        key = (identity[m.tgt], f)
        if key not in full:
            full[key] = f
        key = (f, identity[m.src])
        if key not in full:
            full[key] = f
    return full


def _arrows_from(morphisms) -> dict[int, list[int]]:
    """Morphism indices grouped by source object, each group ascending."""
    by_src: dict[int, list[int]] = {}
    for i, m in enumerate(morphisms):
        by_src.setdefault(m.src, []).append(i)
    return by_src


def category_violations(objects, morphisms, identity, comp) -> list[str]:
    """Every axiom violation in the parts, each citing the offending indices.

    The parts are taken in the form FinCat stores them: str object names,
    Morphism tuples, an int identity sequence and an int (g, f) -> h table.
    Nothing is coerced.  Precondition failures (bad indices, non-unique
    names, a wrong identity length) raise FormatError: they are schema
    problems, not axiom violations.
    """
    if len(set(objects)) != len(objects):
        raise FormatError("object names are not unique")
    names = [m.name for m in morphisms]
    if len(set(names)) != len(names):
        raise FormatError("morphism names are not unique")
    n_obj, n_mor = len(objects), len(morphisms)
    for i, m in enumerate(morphisms):
        if not (0 <= m.src < n_obj and 0 <= m.tgt < n_obj):
            raise FormatError(f"morphism {i} has out-of-range endpoints")
    if len(identity) != n_obj:
        raise FormatError(f"identity list length {len(identity)} != object count {n_obj}")
    for x, i in enumerate(identity):
        if not (0 <= i < n_mor):
            raise FormatError(f"identity of object {x} is out of range")
    for (g, f), h in comp.items():
        for idx in (g, f, h):
            if not (0 <= idx < n_mor):
                raise FormatError(f"composition entry ({g},{f})->{h} out of range")

    v: list[str] = []
    for x, i in enumerate(identity):
        m = morphisms[i]
        if m.src != x or m.tgt != x:
            v.append(
                f"identity of object {x} is morphism {i} with endpoints "
                f"{m.src}->{m.tgt}, expected {x}->{x}"
            )

    by_src = _arrows_from(morphisms)
    composable = {(g, f) for f in range(n_mor) for g in by_src.get(morphisms[f].tgt, ())}
    for pair in sorted(composable - comp.keys()):
        v.append(f"missing composite for composable pair (g={pair[0]}, f={pair[1]})")
    for pair in sorted(comp.keys() - composable):
        v.append(
            f"composite defined for non-composable pair (g={pair[0]}, f={pair[1]})"
        )
    for (g, f), h in sorted(comp.items()):
        if (g, f) not in composable:
            continue
        if morphisms[h].src != morphisms[f].src or morphisms[h].tgt != morphisms[g].tgt:
            v.append(
                f"composite ({g},{f})->{h} has endpoints "
                f"{morphisms[h].src}->{morphisms[h].tgt}, expected "
                f"{morphisms[f].src}->{morphisms[g].tgt}"
            )

    # Identity laws, cited at the offending morphism.
    for f, m in enumerate(morphisms):
        left = comp.get((identity[m.tgt], f))
        if left is not None and left != f:
            v.append(f"identity law fails: id_{m.tgt} after morphism {f} gives {left}")
        right = comp.get((f, identity[m.src]))
        if right is not None and right != f:
            v.append(f"identity law fails: morphism {f} after id_{m.src} gives {right}")

    # Associativity at every composable triple where both routes resolve.
    for f in range(n_mor):
        for g in by_src.get(morphisms[f].tgt, ()):
            gf = comp.get((g, f))
            for h in by_src.get(morphisms[g].tgt, ()):
                hg = comp.get((h, g))
                if gf is None or hg is None:
                    continue
                left = comp.get((h, gf))
                right = comp.get((hg, f))
                if left is None or right is None:
                    continue
                if left != right:
                    v.append(
                        f"associativity fails at triple (h={h}, g={g}, f={f}): "
                        f"h(gf)={left} but (hg)f={right}"
                    )
    return v


def validate_category(objects, morphisms, identity, comp) -> FinCat:
    """Validated FinCat, or ValidationError carrying every violation.

    The one way parts become a checked FinCat.  The parts are taken in
    stored form, as in category_violations, and are not coerced."""
    violations = category_violations(objects, morphisms, identity, comp)
    if violations:
        raise ValidationError(violations)
    return FinCat(tuple(objects), tuple(morphisms), tuple(identity), dict(comp))


def opposite(cat: FinCat) -> FinCat:
    """Same names, reversed arrows, transposed composition."""
    morphisms = tuple(Morphism(m.name, m.tgt, m.src) for m in cat.morphisms)
    comp = {(f, g): h for (g, f), h in cat.comp.items()}
    return validate_category(cat.objects, morphisms, cat.identity, comp)


def product(a: FinCat, b: FinCat) -> FinCat:
    """Product category on lexicographically ordered pairs."""
    nb = len(b.objects)
    nmb = len(b.morphisms)
    objects = tuple(f"({x},{y})" for x in a.objects for y in b.objects)
    morphisms = tuple(
        Morphism(f"({m.name},{n.name})", m.src * nb + n.src, m.tgt * nb + n.tgt)
        for m in a.morphisms
        for n in b.morphisms
    )
    identity = tuple(
        a.identity[x] * nmb + b.identity[y]
        for x in range(len(a.objects))
        for y in range(len(b.objects))
    )
    comp = {}
    for (g1, f1), h1 in a.comp.items():
        for (g2, f2), h2 in b.comp.items():
            comp[(g1 * nmb + g2, f1 * nmb + f2)] = h1 * nmb + h2
    return validate_category(objects, morphisms, identity, comp)


def coproduct(a: FinCat, b: FinCat) -> FinCat:
    """Disjoint union; names from the two summands get 0:/1: prefixes."""
    objects = tuple(f"0:{o}" for o in a.objects) + tuple(f"1:{o}" for o in b.objects)
    na, nma = len(a.objects), len(a.morphisms)
    morphisms = tuple(
        Morphism(f"0:{m.name}", m.src, m.tgt) for m in a.morphisms
    ) + tuple(Morphism(f"1:{m.name}", m.src + na, m.tgt + na) for m in b.morphisms)
    identity = tuple(a.identity) + tuple(i + nma for i in b.identity)
    comp = dict(a.comp)
    for (g, f), h in b.comp.items():
        comp[(g + nma, f + nma)] = h + nma
    return validate_category(objects, morphisms, identity, comp)


def _is_invertible(cat: FinCat, m: int) -> bool:
    src, tgt = cat.morphisms[m].src, cat.morphisms[m].tgt
    for inv in cat.hom(tgt, src):
        if (
            cat.comp.get((inv, m)) == cat.identity[src]
            and cat.comp.get((m, inv)) == cat.identity[tgt]
        ):
            return True
    return False


def objects_isomorphic(cat: FinCat, x: int, y: int) -> bool:
    return x == y or any(_is_invertible(cat, f) for f in cat.hom(x, y))


@dataclass(frozen=True)
class IsoPartition:
    """Partition of objects into the classes of an equivalence relation:
    isomorphism for the objects of a category, internal equivalence for
    the zero-cells of a bicategory.

    Classes are numbered by ascending least member; `representatives[c]`
    is that least member.
    """

    class_of: tuple[int, ...]
    representatives: tuple[int, ...]

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.representatives]
        for x, c in enumerate(self.class_of):
            out[c].append(x)
        return out

    def class_size(self, c: int) -> int:
        return sum(1 for k in self.class_of if k == c)


def _partition(n: int, related) -> IsoPartition:
    """Classes of 0..n-1 under the equivalence generated by `related`,
    which is called once for every pair x < y in ascending order."""
    rep = list(range(n))  # union-find without ranks; sizes are tiny

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for x in range(n):
        for y in range(x + 1, n):
            if related(x, y):
                rx, ry = find(x), find(y)
                if rx != ry:
                    rep[max(rx, ry)] = min(rx, ry)
    roots = sorted({find(x) for x in range(n)})
    class_ids = {r: i for i, r in enumerate(roots)}
    return IsoPartition(
        tuple(class_ids[find(x)] for x in range(n)), tuple(roots)
    )


def iso_classes(cat: FinCat) -> IsoPartition:
    return _partition(len(cat.objects), lambda x, y: objects_isomorphic(cat, x, y))


def skeleton(cat: FinCat) -> FinCat:
    """Full subcategory on the least-index representative of each iso class."""
    return _skeleton(cat, iso_classes(cat))


def _skeleton(cat: FinCat, part: IsoPartition) -> FinCat:
    keep_obj = list(part.representatives)
    obj_remap = {x: i for i, x in enumerate(keep_obj)}
    keep_mor = [
        i
        for i, m in enumerate(cat.morphisms)
        if m.src in obj_remap and m.tgt in obj_remap
    ]
    mor_remap = {old: new for new, old in enumerate(keep_mor)}
    objects = tuple(cat.objects[x] for x in keep_obj)
    morphisms = tuple(
        Morphism(cat.morphisms[i].name, obj_remap[cat.morphisms[i].src], obj_remap[cat.morphisms[i].tgt])
        for i in keep_mor
    )
    identity = tuple(mor_remap[cat.identity[x]] for x in keep_obj)
    comp = {
        (mor_remap[g], mor_remap[f]): mor_remap[h]
        for (g, f), h in cat.comp.items()
        if g in mor_remap and f in mor_remap
    }
    return validate_category(objects, morphisms, identity, comp)


def is_terminal(cat: FinCat, x: int) -> bool:
    return all(cat.hom_count(w, x) == 1 for w in range(len(cat.objects)))


def is_initial(cat: FinCat, x: int) -> bool:
    return all(cat.hom_count(x, w) == 1 for w in range(len(cat.objects)))


@dataclass(frozen=True)
class Functor:
    object_map: tuple[int, ...]
    morphism_map: tuple[int, ...]


def functor_violations(src: FinCat, dst: FinCat, fun: Functor) -> list[str]:
    v = []
    for i, m in enumerate(src.morphisms):
        img = dst.morphisms[fun.morphism_map[i]]
        if img.src != fun.object_map[m.src] or img.tgt != fun.object_map[m.tgt]:
            v.append(f"morphism {i} image has wrong endpoints")
    for x in range(len(src.objects)):
        if fun.morphism_map[src.identity[x]] != dst.identity[fun.object_map[x]]:
            v.append(f"identity of object {x} not preserved")
    for (g, f), h in src.comp.items():
        img = dst.comp.get((fun.morphism_map[g], fun.morphism_map[f]))
        if img != fun.morphism_map[h]:
            v.append(f"composition not preserved at pair (g={g}, f={f})")
    return v


def _object_profile(cat: FinCat, x: int):
    n = len(cat.objects)
    return (
        cat.hom_count(x, x),
        tuple(sorted(cat.hom_count(x, w) for w in range(n))),
        tuple(sorted(cat.hom_count(w, x) for w in range(n))),
    )


def categories_isomorphic(
    a: FinCat, b: FinCat, budget: int | None = None
) -> Functor | None:
    """Bijective structure-preserving functor a -> b, or None.

    Backtracks over object bijections pruned by hom-count profiles, then
    over per-hom-set morphism bijections with composition checks.  Raises
    BudgetExceededError when the node budget runs out undecided.
    """
    limit = search_budget(budget)
    nodes = 0

    def tick():
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise BudgetExceededError(limit)

    n = len(a.objects)
    if n != len(b.objects) or len(a.morphisms) != len(b.morphisms):
        return None
    prof_a = [_object_profile(a, x) for x in range(n)]
    prof_b = [_object_profile(b, x) for x in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return None

    nm = len(a.morphisms)
    # equations[i] lists the composition equations (g, f, h) that mention i.
    equations: list[list[tuple[int, int, int]]] = [[] for _ in range(nm)]
    for (g, f), h in a.comp.items():
        for i in {g, f, h}:
            equations[i].append((g, f, h))

    obj_map: list[int | None] = [None] * n
    used_obj = [False] * n

    def extend_objects(x: int):
        if x == n:
            yield list(obj_map)
            return
        for y in range(n):
            if used_obj[y] or prof_a[x] != prof_b[y]:
                continue
            if any(
                obj_map[w] is not None
                and (
                    a.hom_count(x, w) != b.hom_count(y, obj_map[w])
                    or a.hom_count(w, x) != b.hom_count(obj_map[w], y)
                )
                for w in range(n)
            ):
                continue
            tick()
            obj_map[x] = y
            used_obj[y] = True
            yield from extend_objects(x + 1)
            obj_map[x] = None
            used_obj[y] = False

    def extend_morphisms(sigma: list[int]) -> list[int] | None:
        mor_map: list[int | None] = [None] * nm
        used = [False] * len(b.morphisms)
        for x in range(n):
            img = b.identity[sigma[x]]
            mor_map[a.identity[x]] = img
            used[img] = True

        candidates: dict[int, list[int]] = {}
        for i, m in enumerate(a.morphisms):
            candidates[i] = list(b.hom(sigma[m.src], sigma[m.tgt]))

        order = [i for i in range(nm) if mor_map[i] is None]

        def consistent(i: int) -> bool:
            # Check every equation on i whose three slots are assigned.
            for g, f, h in equations[i]:
                mg, mf, mh = mor_map[g], mor_map[f], mor_map[h]
                if mg is None or mf is None or mh is None:
                    continue
                if b.comp.get((mg, mf)) != mh:
                    return False
            return True

        def rec(k: int) -> bool:
            if k == len(order):
                return True
            i = order[k]
            for c in candidates[i]:
                if used[c]:
                    continue
                tick()
                mor_map[i] = c
                used[c] = True
                if consistent(i) and rec(k + 1):
                    return True
                mor_map[i] = None
                used[c] = False
            return False

        # Identity images must be consistent before the search starts.
        for x in range(n):
            if not consistent(a.identity[x]):
                return None
        if rec(0):
            return [int(m) for m in mor_map]  # type: ignore[arg-type]
        return None

    for sigma in extend_objects(0):
        mor_map = extend_morphisms(sigma)
        if mor_map is not None:
            fun = Functor(tuple(sigma), tuple(mor_map))
            assert not functor_violations(a, b, fun)
            return fun
    return None


@dataclass(frozen=True)
class EquivalenceWitness:
    """Object-level data of an equivalence a -> b built through the skeleta."""

    source_partition: IsoPartition
    target_partition: IsoPartition
    object_map: tuple[int, ...]  # source object -> target object


def equivalence_witness(
    a: FinCat, b: FinCat, budget: int | None = None
) -> EquivalenceWitness | None:
    """Equivalence decided through skeleton isomorphism; None when inequivalent."""
    part_a, part_b = iso_classes(a), iso_classes(b)
    sk_a, sk_b = _skeleton(a, part_a), _skeleton(b, part_b)
    iso = categories_isomorphic(sk_a, sk_b, budget=budget)
    if iso is None:
        return None
    # Skeleton object i is the representative of class i, so the iso's object
    # map is a bijection of class indices; send x to the b-representative of
    # the image of its class.
    object_map = tuple(
        part_b.representatives[iso.object_map[part_a.class_of[x]]]
        for x in range(len(a.objects))
    )
    return EquivalenceWitness(part_a, part_b, object_map)


def equivalent(a: FinCat, b: FinCat, budget: int | None = None) -> bool:
    return equivalence_witness(a, b, budget=budget) is not None


# --- JSON interchange -------------------------------------------------------

_CATEGORY_KEYS = {"objects": list, "morphisms": list, "identities": dict, "composition": list}
_MORPHISM_KEYS = {"name": str, "src": str, "tgt": str}
_COMPOSITION_KEYS = {"first": str, "then": str, "equals": str}
_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _check_keys(data, allowed: Mapping[str, type], where: str,
                required: Iterable[str] | None = None):
    """The one schema check of every JSON loader: `data` is an object whose
    keys are among `allowed`, holding every `required` key (all of
    `allowed` when None), and each value has the type `allowed` gives it."""
    if not isinstance(data, dict):
        raise FormatError(f"{where}: expected an object")
    for key, value in data.items():
        kind = allowed.get(key)
        if kind is None:
            raise FormatError(f"{where}: unknown keys {sorted(data.keys() - allowed.keys())}")
        if not isinstance(value, kind):
            raise FormatError(f"{where}: {key!r} must be {_KINDS[kind]}")
    for key in required if required is not None else allowed:
        if key not in data:
            raise FormatError(f"{where}: missing key {key!r}")


def category_from_json(data: dict) -> FinCat:
    """Decode, infer omitted identity composites, and validate."""
    return validate_category(*_category_parts(data))


def _category_parts(data: dict):
    """The four stored-form parts of a category document, identity
    composites filled in; the category axioms are not checked."""
    _check_keys(data, _CATEGORY_KEYS, "category")
    objects = data["objects"]
    if not all(isinstance(o, str) for o in objects):
        raise FormatError("category: objects must be a list of strings")
    if len(set(objects)) != len(objects):
        raise FormatError("category: object names are not unique")
    obj_index = {o: i for i, o in enumerate(objects)}

    morphisms = []
    for k, entry in enumerate(data["morphisms"]):
        _check_keys(entry, _MORPHISM_KEYS, f"morphism #{k}")
        for side in ("src", "tgt"):
            if entry[side] not in obj_index:
                raise FormatError(f"morphism #{k}: unknown object {entry[side]!r}")
        morphisms.append(
            Morphism(entry["name"], obj_index[entry["src"]], obj_index[entry["tgt"]])
        )
    names = [m.name for m in morphisms]
    if len(set(names)) != len(names):
        raise FormatError("category: morphism names are not unique")
    mor_index = {m.name: i for i, m in enumerate(morphisms)}

    identities = data["identities"]
    _check_keys(identities, dict.fromkeys(objects, str), "identities")
    identity = []
    for obj in objects:
        if identities[obj] not in mor_index:
            raise FormatError(f"identities: unknown morphism {identities[obj]!r}")
        identity.append(mor_index[identities[obj]])

    comp = {}
    for k, entry in enumerate(data["composition"]):
        _check_keys(entry, _COMPOSITION_KEYS, f"composition #{k}")
        for slot in ("first", "then", "equals"):
            if entry[slot] not in mor_index:
                raise FormatError(f"composition #{k}: unknown morphism {entry[slot]!r}")
        key = (mor_index[entry["then"]], mor_index[entry["first"]])
        value = mor_index[entry["equals"]]
        if key in comp and comp[key] != value:
            raise FormatError(
                f"composition #{k}: conflicting duplicate for "
                f"(first={entry['first']!r}, then={entry['then']!r})"
            )
        comp[key] = value

    identity = tuple(identity)
    comp = with_identity_composites(morphisms, identity, comp)
    return tuple(objects), tuple(morphisms), identity, comp


def category_to_json(cat: FinCat) -> dict:
    """Inverse of category_from_json; identity composites are left implicit."""
    identity_set = set(cat.identity)
    composition = []
    for (g, f), h in sorted(cat.comp.items()):
        # Identity composites are implicit in the interchange format; on a
        # validated category their values are forced, so dropping them is safe.
        if g in identity_set or f in identity_set:
            continue
        composition.append(
            {
                "first": cat.morphisms[f].name,
                "then": cat.morphisms[g].name,
                "equals": cat.morphisms[h].name,
            }
        )
    return {
        "objects": list(cat.objects),
        "morphisms": [
            {"name": m.name, "src": cat.objects[m.src], "tgt": cat.objects[m.tgt]}
            for m in cat.morphisms
        ],
        "identities": {
            cat.objects[x]: cat.morphisms[i].name for x, i in enumerate(cat.identity)
        },
        "composition": composition,
    }
