"""Mutated bicategory documents through the chi-bicat verb.

Every outcome, however malformed the document, is an exit code 0-3 with a
message and no traceback.  The documents are mutated at the JSON level:
keys dropped, duplicated (the text carries both copies) and retyped, any
name (a zero-cell, a 1-cell or a 2-cell, as a value or inside a key)
swapped for another name of the document or for one with separator
characters, so it points out of range or at a cell of the wrong hom, one
field of a list entry copied from a sibling, and the unit map rewritten.
The search is derandomized and keeps no database, so the examples are
the same on every run.
"""

import contextlib
import io

from hypothesis import event, given, settings
from hypothesis import strategies as st

from eulerkit import bicat_to_json, cat_as_bicat, catalog
from eulerkit.cli import main
from fuzz_docs import (
    NAMES, VALUES, Obj, drop_duplicate_or_retype, objects, reassign, rename, text, tree,
)


def _weak_suspension():
    """suspension_z2 with a nontrivial associator and left unitor, so the
    document carries both optional sections."""
    doc = bicat_to_json(catalog.suspension_z2())
    doc["associators"] = [{"path": "x|y|x|y", "h": "*", "g": "*", "f": "*", "equals": "g1"}]
    doc["unitors"] = {"left": [{"path": "x|y", "f": "*", "equals": "g1"}]}
    return doc


BASES = [
    _weak_suspension(),
    bicat_to_json(catalog.upper_triangular_bicat()),
    bicat_to_json(catalog.no_weighting_bicat()),     # no chi at the top: exit 2
    bicat_to_json(catalog.undefined_hom_bicat()),    # a hom without chi: exit 2
    bicat_to_json(cat_as_bicat(catalog.thick_arrow())),
]


def _bad_units(data, root):
    """Units with a zero-cell missing or added, or mapped to any name."""
    units = next((v for k, v in root if k == "units"), None)
    if not isinstance(units, Obj):
        return
    op = data.draw(st.sampled_from(["drop", "add", "value"]))
    if op == "drop" and units:
        del units[data.draw(st.integers(0, len(units) - 1))]
    elif op == "add":
        units.append([data.draw(NAMES), data.draw(st.one_of(NAMES, VALUES))])
    elif units:
        units[data.draw(st.integers(0, len(units) - 1))][1] = data.draw(
            st.one_of(st.sampled_from(["*", "e", "g1", "ix", "k", "f1"]), VALUES))


def _mutate(data, root):
    op = data.draw(st.sampled_from(["drop", "duplicate", "retype", "rename", "units",
                                    "reassign"]))
    if op == "rename":
        rename(data, root)
    elif op == "reassign":
        reassign(data, root)
    elif op == "units":
        _bad_units(data, root)
    else:
        drop_duplicate_or_retype(data, data.draw(st.sampled_from(objects(root, []))), op)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_chi_bicat_verb_survives_mutated_documents(tmp_path_factory, data):
    root = tree(data.draw(st.sampled_from(BASES)))
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(data, root)
    path = tmp_path_factory.mktemp("fuzz") / "bicat.json"
    path.write_text(text(root))
    flags = data.draw(st.sets(st.sampled_from(["--matrix", "--witness"])))
    argv = ["chi-bicat", str(path), *sorted(flags)]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")  # shown by --hypothesis-show-statistics
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert (err if code == 3 else out).getvalue().strip()
