"""A seeded corpus of datum documents, one digest per record.

The records are `datum_of_category` of each category of
`catalog.base_suite()`, `bicat_to_datum` of the catalog bicategories,
level-3 towers whose hom sub-documents repeat (so decoding shares them),
and mutants of each, drawn with the `fuzz_docs` helpers from a seeded
`Seeded` source, so the corpus does not depend on the Hypothesis version.
A record's digest covers the loader outcome (the decoded datum, or the
exception's type and text) and the `chi_n` outcome (value and witnesses,
or the `HomChiUndefinedError` pair, depth and path, or another
exception's type and text).

`tests/datum_digests.json` holds the digests; write it afresh with

    PYTHONPATH=src python3 tests/datum_corpus.py > tests/datum_digests.json
"""

import hashlib
import json
import random

from eulerkit import (
    EulerDatum,
    bicat_to_datum,
    catalog,
    chi_n,
    datum_from_json,
    datum_of_category,
    datum_to_json,
)
from eulerkit.errors import HomChiUndefinedError
from fuzz_docs import Obj, Seeded, drop_duplicate_or_retype, objects, rename, text, tree

MUTANTS = 7  # per base document
BICATS = ("suspension_z2", "upper_triangular_bicat", "no_weighting_bicat",
          "undefined_hom_bicat")


def _square(level, cells, homs):
    return EulerDatum(level, cells=cells,
                      hom={(i, j): homs[i * len(cells) + j]
                           for i in range(len(cells)) for j in range(len(cells))})


def _towers(rng, count):
    """Level-3 documents over a pool of three level-2 sub-documents: each
    pool entry is one dict object, so a tower holds it at several keys."""
    def level1():
        return _square(1, ("a", "b"), [EulerDatum(0, size=rng.choice((0, 1, 1, 2)))
                                       for _ in range(4)])

    def level2(cells):
        return _square(2, tuple(f"c{j}" for j in range(cells)),
                       [rng.choice(ones) for _ in range(cells * cells)])

    ones = [level1() for _ in range(3)]
    pool = [datum_to_json(level2(cells)) for cells in (1, 2, 2)]
    out = []
    for k in range(count):
        cells = [f"t{j}" for j in range(2 + k % 3)]
        out.append({"level": 3, "cells": cells,
                    "hom": {f"{x}|{y}": rng.choice(pool) for x in cells for y in cells}})
    return out


def bases():
    """(name, datum document) of every base record."""
    out = [(f"category #{k}", datum_to_json(datum_of_category(cat)))
           for k, cat in enumerate(catalog.base_suite())]
    out += [(f"bicategory {name}", datum_to_json(bicat_to_datum(getattr(catalog, name)())))
            for name in BICATS]
    out += [(f"tower #{k}", doc) for k, doc in enumerate(_towers(random.Random(1), 6))]
    return out


def _pairs(objs, key):
    """Every [key, value] pair of `objs` under `key`."""
    return [pair for obj in objs for pair in obj if pair[0] == key]


def mutant(doc, seed):
    """`doc` after one or two seeded edits, written out and read back.
    Besides the fuzz_docs edits, which mostly break a document, two keep
    it loadable: a leaf resized, and one hom datum copied over a sibling."""
    draw = Seeded(seed)
    root = tree(doc)
    for _ in range(draw.integer(1, 2)):
        every = objects(root, [])
        op = draw.pick(["drop", "duplicate", "retype", "rename", "resize", "copy", "copy"])
        if op == "rename":
            rename(draw, root)
        elif op == "resize":
            sizes = _pairs(every, "size")
            if sizes:
                draw.pick(sizes)[1] = draw.integer(0, 3)
        elif op == "copy":
            homs = [hom for _, hom in _pairs(every, "hom") if isinstance(hom, Obj) and len(hom) > 1]
            if homs:
                hom = draw.pick(homs)
                draw.pick(hom)[1] = draw.pick(hom)[1]
        else:
            drop_duplicate_or_retype(draw, draw.pick(every), op)
    return json.loads(text(root))


def _values(weighting):
    return None if weighting is None else [str(x) for x in weighting.values]


def outcome(doc):
    """What the loader and chi_n make of `doc`, as JSON-ready lists."""
    try:
        datum = datum_from_json(doc)
    except Exception as exc:
        return ["load raises", type(exc).__name__, str(exc)]
    loaded = ["loads", json.dumps(datum_to_json(datum), sort_keys=True)]
    try:
        res = chi_n(datum)
    except HomChiUndefinedError as exc:
        return loaded + ["hom chi undefined", list(exc.pair), exc.depth,
                         [list(step) for step in exc.path]]
    except Exception as exc:
        return loaded + ["chi_n raises", type(exc).__name__, str(exc)]
    return loaded + ["chi", res.exists, str(res.value), _values(res.witness_weighting),
                     _values(res.witness_coweighting)]


def records():
    """(name, document) of every record: each base, then its mutants."""
    for name, doc in bases():
        yield name, doc
        for m in range(MUTANTS):
            yield f"{name} mutant {m}", mutant(doc, f"{name}:{m}")


def digests():
    return {name: hashlib.sha256(json.dumps(outcome(doc)).encode()).hexdigest()
            for name, doc in records()}


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
