"""JSON documents as mutable trees for the CLI fuzz tests.

An object becomes an `Obj`, a list of [key, value] pairs, so a mutation
can repeat a key; `text` writes the tree back out with every copy, as a
hand-edited file might carry them.
"""

import json

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


NAMES = st.text(alphabet="ab,()\\|: ", max_size=4)
HUGE = st.sampled_from([2**63, 2**64 + 1, 10**30, 10**4000])
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), HUGE,
    st.floats(allow_nan=False, allow_infinity=False), NAMES,
    st.just([]), st.just({}), st.just(["a"]), st.just({"level": 0}),
)


def drop_duplicate_or_retype(data, obj, op):
    """Drop one key of `obj`, append a second copy of it (same or other
    value), or give it a value of any JSON type."""
    if not obj:
        return
    k = data.draw(st.integers(0, len(obj) - 1))
    if op == "drop":
        del obj[k]
    elif op == "duplicate":
        obj.append([obj[k][0], data.draw(st.one_of(st.just(obj[k][1]), VALUES))])
    else:
        obj[k][1] = data.draw(VALUES)


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
    spots = strings(root, [])
    names = sorted({part for box, i in spots for part in box[i].split("|")})
    box, i = data.draw(st.sampled_from(spots))
    parts = box[i].split("|")
    k = data.draw(st.integers(0, len(parts) - 1))
    parts[k] = data.draw(st.one_of(st.sampled_from(names), NAMES))
    box[i] = "|".join(parts)


def reassign(data, root):
    """One field of a list entry (a morphism, a composite, a coherence
    cell) set to that field of a sibling entry: the name stays in its hom,
    so the document usually loads and the axioms decide."""
    lists = [v for o in objects(root, []) for _, v in o
             if isinstance(v, list) and len(v) > 1 and all(isinstance(e, Obj) for e in v)]
    if not lists:
        return
    entries = data.draw(st.sampled_from(lists))
    entry, donor = data.draw(st.sampled_from(entries)), data.draw(st.sampled_from(entries))
    if entry:
        pair = data.draw(st.sampled_from(entry))
        pair[1] = next((v for k, v in donor if k == pair[0]), pair[1])
