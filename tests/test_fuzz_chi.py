"""Mutated category and simplicial documents through the chi, equivalent,
chi-sset, horncheck and validate-sset verbs.

Every outcome, however malformed the document, is an exit code 0-3 with a
message and no traceback.  The documents are mutated at the JSON level:
keys dropped, duplicated (the text carries both copies) and retyped, any
name (an object, a morphism, a simplex id, a table key) swapped for
another name of the document or for one with separator characters, and
one field of a list entry copied from a sibling.  The search is
derandomized and keeps no database, so the examples are the same on every
run.
"""

import contextlib
import io

from hypothesis import event, given, settings
from hypothesis import strategies as st

from eulerkit import catalog, category_to_json, horn, nerve, sset_to_json
from eulerkit.cli import main
from fuzz_docs import (
    drop_duplicate_or_retype, objects, reassign, rename, strings, text, tree,
)

CATEGORIES = [
    category_to_json(catalog.walking_retract()),
    category_to_json(catalog.thick_arrow()),
    category_to_json(catalog.cyclic_group(3)),
    category_to_json(catalog.no_weighting_category()),   # no chi: exit 2
    category_to_json(catalog.empty_category()),
]

STRUCTURES = [
    sset_to_json(nerve(catalog.arrow(), 2)),
    sset_to_json(nerve(catalog.walking_retract(), 2)),
    sset_to_json(nerve(catalog.cyclic_group(2), 3)),
    sset_to_json(horn(2, 1, 2)),                          # not a nerve: exit 2
    {"dim": 2},
]


def _mutate(data, root):
    op = data.draw(st.sampled_from(["drop", "duplicate", "retype", "rename", "reassign"]))
    if op == "rename":
        if strings(root, []):  # an empty structure may carry none
            rename(data, root)
    elif op == "reassign":
        reassign(data, root)
    else:
        drop_duplicate_or_retype(data, data.draw(st.sampled_from(objects(root, []))), op)


def _run_mutated(data, tmp_path_factory, bases, verb, flags):
    root = tree(data.draw(st.sampled_from(bases)))
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(data, root)
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(text(root))
    argv = [verb, str(path), *(sorted(data.draw(st.sets(st.sampled_from(flags)))) if flags else ())]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")  # shown by --hypothesis-show-statistics
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert (err if code == 3 else out).getvalue().strip()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_chi_verb_survives_mutated_documents(tmp_path_factory, data):
    _run_mutated(data, tmp_path_factory, CATEGORIES, "chi", ["--matrix", "--witness"])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_equivalent_verb_survives_mutated_documents(tmp_path_factory, data):
    roots = [tree(data.draw(st.sampled_from(CATEGORIES))) for _ in range(2)]
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(data, data.draw(st.sampled_from(roots)))  # either file, or both
    folder = tmp_path_factory.mktemp("fuzz")
    paths = [folder / "a.json", folder / "b.json"]
    for path, root in zip(paths, roots):
        path.write_text(text(root))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["equivalent", *map(str, paths)])
    event(f"exit {code}")  # shown by --hypothesis-show-statistics
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert (err if code == 3 else out).getvalue().strip()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_chi_sset_verb_survives_mutated_documents(tmp_path_factory, data):
    _run_mutated(data, tmp_path_factory, STRUCTURES, "chi-sset", ["--witness"])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_horncheck_verb_survives_mutated_documents(tmp_path_factory, data):
    _run_mutated(data, tmp_path_factory, STRUCTURES, "horncheck", ["--unique"])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_sset_verb_survives_mutated_documents(tmp_path_factory, data):
    _run_mutated(data, tmp_path_factory, STRUCTURES, "validate-sset", [])
