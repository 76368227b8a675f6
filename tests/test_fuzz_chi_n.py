"""Mutated datum documents through the chi-n verb.

Every outcome, however malformed the document, is an exit code 0-3 with a
message and no traceback.  The documents are mutated at the JSON level:
keys dropped, duplicated (the text carries both copies) and retyped, cell
names renamed out of range or to names with separator characters, sizes
made huge, and the whole document nested under many one-cell levels.  The
search is derandomized and keeps no database, so the examples are the same
on every run.
"""

import contextlib
import io
import json

from hypothesis import event, given, settings
from hypothesis import strategies as st

from eulerkit import (
    EulerDatum,
    bicat_to_datum,
    cat_as_bicat,
    catalog,
    datum_of_category,
    datum_to_json,
)
from eulerkit.cli import main


def _bases():
    arrow2 = bicat_to_datum(cat_as_bicat(catalog.arrow()))
    nw2 = bicat_to_datum(catalog.no_weighting_bicat())
    empty2 = EulerDatum(2, cells=(), hom={})

    def tower(homs):
        return EulerDatum(3, cells=("a", "b"),
                          hom={(i, j): homs[2 * i + j] for i in range(2) for j in range(2)})

    return [
        EulerDatum(0, size=3),
        datum_of_category(catalog.thick_arrow()),
        bicat_to_datum(catalog.upper_triangular_bicat()),
        nw2,                                    # no chi at the top: exit 2
        tower([arrow2, arrow2, empty2, arrow2]),
        tower([arrow2, nw2, empty2, arrow2]),   # no chi below the top: exit 2
    ]


BASES = [datum_to_json(d) for d in _bases()]


class _Obj(list):
    """A JSON object as a list of [key, value] pairs, so keys may repeat."""


def _tree(doc):
    if isinstance(doc, dict):
        return _Obj([k, _tree(v)] for k, v in doc.items())
    if isinstance(doc, list):
        return [_tree(v) for v in doc]
    return doc


def _text(node):
    if isinstance(node, _Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_text(v) for v in node) + "]"
    return json.dumps(node)


def _objects(node, out):
    """Every object in the tree, outermost first."""
    if isinstance(node, _Obj):
        out.append(node)
        children = [v for _, v in node]
    else:
        children = node if isinstance(node, list) else []
    for child in children:
        _objects(child, out)
    return out


NAMES = st.text(alphabet="ab,()\\|: ", max_size=4)
HUGE = st.sampled_from([2**63, 2**64 + 1, 10**30, 10**4000])
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), HUGE,
    st.floats(allow_nan=False, allow_infinity=False), NAMES,
    st.just([]), st.just({}), st.just(["a"]), st.just({"level": 0}),
)


def _rename(data, obj):
    """Rename one cell: in the cell list and in the hom keys, or only in one
    of them, so the keys name a cell out of range."""
    cells = next((v for k, v in obj if k == "cells" and isinstance(v, list)), None)
    hom = next((v for k, v in obj if k == "hom" and isinstance(v, _Obj)), None)
    if not cells:
        return
    old = data.draw(st.sampled_from(cells))
    new = data.draw(NAMES)
    where = data.draw(st.sampled_from(["both", "cells", "keys"]))
    if where != "keys":
        cells[:] = [new if c == old else c for c in cells]
    if where != "cells" and hom is not None:
        for pair in hom:
            pair[0] = "|".join(new if p == old else p for p in pair[0].split("|"))


def _mutate(data, tree):
    objects = _objects(tree, [])
    obj = data.draw(st.sampled_from(objects))
    op = data.draw(st.sampled_from(["drop", "duplicate", "retype", "rename", "huge"]))
    if op == "rename":
        _rename(data, obj)
    elif op == "huge":
        for o in objects:
            for pair in o:
                if pair[0] == "size" and data.draw(st.booleans()):
                    pair[1] = data.draw(HUGE)
    elif obj:
        k = data.draw(st.integers(0, len(obj) - 1))
        if op == "drop":
            del obj[k]
        elif op == "duplicate":
            obj.append([obj[k][0], data.draw(st.one_of(st.just(obj[k][1]), VALUES))])
        else:
            obj[k][1] = data.draw(VALUES)


def _nested(data, text, level):
    """`text` under `depth` one-cell levels, numbered on from `level`."""
    depth = data.draw(st.sampled_from([1, 2, 30, 300, 700]))
    name = data.draw(NAMES)
    head, tail = [], []
    for k in range(1, depth + 1):
        top = level + k if isinstance(level, int) else k
        head.append(f'{{"level": {top}, "cells": [{json.dumps(name)}], '
                    f'"hom": {{{json.dumps(f"{name}|{name}")}: ')
        tail.append("}}")
    return "".join(reversed(head)) + text + "".join(tail)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_chi_n_verb_survives_mutated_documents(tmp_path_factory, data):
    doc = data.draw(st.sampled_from(BASES))
    tree = _tree(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, tree)
    text = _text(tree)
    if data.draw(st.booleans()):
        text = _nested(data, text, doc["level"])
    path = tmp_path_factory.mktemp("fuzz") / "datum.json"
    path.write_text(text)
    argv = ["chi-n", str(path)] + (["--witness"] if data.draw(st.booleans()) else [])

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")  # shown by --hypothesis-show-statistics
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert (err if code == 3 else out).getvalue().strip()
