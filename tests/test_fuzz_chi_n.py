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
from fuzz_docs import HUGE, NAMES, Obj, drop_duplicate_or_retype, objects, text, tree


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


def _rename(data, obj):
    """Rename one cell: in the cell list and in the hom keys, or only in one
    of them, so the keys name a cell out of range."""
    cells = next((v for k, v in obj if k == "cells" and isinstance(v, list)), None)
    hom = next((v for k, v in obj if k == "hom" and isinstance(v, Obj)), None)
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


def _mutate(data, root):
    every = objects(root, [])
    obj = data.draw(st.sampled_from(every))
    op = data.draw(st.sampled_from(["drop", "duplicate", "retype", "rename", "huge"]))
    if op == "rename":
        _rename(data, obj)
    elif op == "huge":
        for o in every:
            for pair in o:
                if pair[0] == "size" and data.draw(st.booleans()):
                    pair[1] = data.draw(HUGE)
    else:
        drop_duplicate_or_retype(data, obj, op)


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
    root = tree(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, root)
    body = text(root)
    if data.draw(st.booleans()):
        body = _nested(data, body, doc["level"])
    path = tmp_path_factory.mktemp("fuzz") / "datum.json"
    path.write_text(body)
    argv = ["chi-n", str(path)] + (["--witness"] if data.draw(st.booleans()) else [])

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")  # shown by --hypothesis-show-statistics
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert (err if code == 3 else out).getvalue().strip()
