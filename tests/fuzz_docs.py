"""JSON documents as mutable trees for the CLI fuzz tests.

An object becomes an `Obj`, a list of [key, value] pairs, so a mutation
can repeat a key; `text` writes the tree back out with every copy, as a
hand-edited file might carry them.  The mutation helpers draw from
Hypothesis's `data`, or from a `Seeded` stand-in where a corpus must be
the same under every Hypothesis version.
"""

import json
import random

from hypothesis import strategies as st


class Obj(list):
    """A JSON object as a list of [key, value] pairs, so keys may repeat."""


def tree(doc):
    if isinstance(doc, dict):
        return Obj([k, tree(v)] for k, v in doc.items())
    if isinstance(doc, list):
        return [tree(v) for v in doc]
    return doc


def text(node):
    if isinstance(node, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {text(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(text(v) for v in node) + "]"
    return json.dumps(node)


def objects(node, out):
    """Every object in the tree, outermost first."""
    if isinstance(node, Obj):
        out.append(node)
        children = [v for _, v in node]
    else:
        children = node if isinstance(node, list) else []
    for child in children:
        objects(child, out)
    return out


ALPHABET = "ab,()\\|: "
NAMES = st.text(alphabet=ALPHABET, max_size=4)
HUGE = st.sampled_from([2**63, 2**64 + 1, 10**30, 10**4000])
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), HUGE,
    st.floats(allow_nan=False, allow_infinity=False), NAMES,
    st.just([]), st.just({}), st.just(["a"]), st.just({"level": 0}),
)
_ANY = object()


class _Drawn:
    """The helpers' draws from Hypothesis's `data`."""

    def __init__(self, data):
        self.data = data

    def integer(self, lo, hi):
        return self.data.draw(st.integers(lo, hi))

    def pick(self, options):
        return self.data.draw(st.sampled_from(options))

    def value(self, keep=_ANY):
        """One of VALUES, or `keep` when given."""
        return self.data.draw(VALUES if keep is _ANY else st.one_of(st.just(keep), VALUES))

    def name(self, names):
        """One of `names` or of NAMES."""
        return self.data.draw(st.one_of(st.sampled_from(names), NAMES))


class Seeded:
    """The same draws from a random.Random seeded with `seed`, over the
    same kinds of value as VALUES, NAMES and HUGE."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def integer(self, lo, hi):
        return self.rng.randint(lo, hi)

    def pick(self, options):
        return self.rng.choice(options)

    def _text(self):
        return "".join(self.rng.choice(ALPHABET) for _ in range(self.rng.randint(0, 4)))

    def value(self, keep=_ANY):
        rng = self.rng
        if keep is not _ANY and rng.random() < 0.5:
            return keep
        return rng.choice([
            lambda: None, lambda: rng.random() < 0.5, lambda: rng.randint(-2, 3),
            lambda: rng.choice([2**63, 2**64 + 1, 10**30, 10**4000]),
            lambda: rng.uniform(-1e6, 1e6), self._text,
            lambda: [], lambda: {}, lambda: ["a"], lambda: {"level": 0},
        ])()

    def name(self, names):
        return self.rng.choice(names) if self.rng.random() < 0.5 else self._text()


def _draws(data):
    return data if isinstance(data, Seeded) else _Drawn(data)


def drop_duplicate_or_retype(data, obj, op):
    """Drop one key of `obj`, append a second copy of it (same or other
    value), or give it a value of any JSON type."""
    if not obj:
        return
    draw = _draws(data)
    k = draw.integer(0, len(obj) - 1)
    if op == "drop":
        del obj[k]
    elif op == "duplicate":
        obj.append([obj[k][0], draw.value(keep=obj[k][1])])
    else:
        obj[k][1] = draw.value()


def strings(node, out):
    """(container, index) of every string: object keys, object values and
    list items."""
    if isinstance(node, Obj):
        for pair in node:
            out.append((pair, 0))
            if isinstance(pair[1], str):
                out.append((pair, 1))
            else:
                strings(pair[1], out)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            if isinstance(v, str):
                out.append((node, i))
            else:
                strings(v, out)
    return out


def rename(data, root):
    """One name, or one part of a |-joined key, swapped for another name."""
    draw = _draws(data)
    spots = strings(root, [])
    names = sorted({part for box, i in spots for part in box[i].split("|")})
    box, i = draw.pick(spots)
    parts = box[i].split("|")
    k = draw.integer(0, len(parts) - 1)
    parts[k] = draw.name(names)
    box[i] = "|".join(parts)


def reassign(data, root):
    """One field of a list entry (a morphism, a composite, a coherence
    cell) set to that field of a sibling entry: the name stays in its hom,
    so the document usually loads and the axioms decide."""
    draw = _draws(data)
    lists = [v for o in objects(root, []) for _, v in o
             if isinstance(v, list) and len(v) > 1 and all(isinstance(e, Obj) for e in v)]
    if not lists:
        return
    entries = draw.pick(lists)
    entry, donor = draw.pick(entries), draw.pick(entries)
    if entry:
        pair = draw.pick(entry)
        pair[1] = next((v for k, v in donor if k == pair[0]), pair[1])
