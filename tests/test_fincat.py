"""Finite categories: construction, validation, constructions, searches."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from eulerkit import (
    BudgetExceededError,
    FormatError,
    Functor,
    Morphism,
    ValidationError,
    catalog,
    categories_isomorphic,
    category_from_json,
    category_to_json,
    category_violations,
    coproduct,
    equivalence_witness,
    equivalent,
    functor_violations,
    hom_count,
    is_initial,
    is_terminal,
    iso_classes,
    objects_isomorphic,
    opposite,
    product,
    skeleton,
    validate_category,
)
from oracles import brute_isomorphic, category_axioms_ok

SUITE = catalog.base_suite()
SMALL = [
    catalog.terminal_category(),
    catalog.arrow(),
    catalog.parallel_pair(),
    catalog.iso_pair(),
    catalog.cyclic_group(2),
    catalog.cyclic_group(3),
    catalog.idempotent_monoid(),
    catalog.chain(3),
    catalog.vee(),
]


def test_catalog_is_valid():
    for cat in SUITE + [catalog.empty_category()]:
        assert category_violations(cat.objects, cat.morphisms, cat.identity, cat.comp) == []


def test_basic_shapes():
    assert len(catalog.arrow().morphisms) == 3
    assert len(catalog.thick_arrow().morphisms) == 7
    assert len(catalog.walking_retract().morphisms) == 5
    assert len(catalog.full_transformation_monoid(2).morphisms) == 4
    assert hom_count(catalog.parallel_pair(), 0, 1) == 2


def test_hom_index_is_not_a_field():
    for original in SUITE + [catalog.empty_category(), catalog.no_weighting_category()]:
        doc = category_to_json(original)
        cat, twin = category_from_json(doc), category_from_json(doc)
        before = repr(cat)
        assert cat.hom(0, 0) == cat.hom_index.get((0, 0), ())  # first use
        assert cat == twin and twin == cat
        assert repr(cat) == before and category_to_json(cat) == doc
        n = len(cat.objects)
        for x in range(-1, n + 1):
            for y in range(-1, n + 1):
                scan = tuple(
                    i for i, m in enumerate(cat.morphisms) if m.src == x and m.tgt == y
                )
                assert cat.hom(x, y) == scan
                assert cat.hom_count(x, y) == len(scan)


def test_validation_catches_bad_tables():
    z3 = catalog.cyclic_group(3)
    # flip one non-identity composite: g1 g1 = g2 becomes g1 g1 = g1
    g1 = z3.morphism_index("g1")
    bad = dict(z3.comp)
    bad[(g1, g1)] = g1
    v = category_violations(z3.objects, z3.morphisms, z3.identity, bad)
    assert v, "associativity break must be reported"
    missing = dict(z3.comp)
    del missing[(g1, g1)]
    v = category_violations(z3.objects, z3.morphisms, z3.identity, missing)
    assert any("missing" in msg for msg in v)
    with pytest.raises(ValidationError):
        validate_category(z3.objects, z3.morphisms, z3.identity, bad)


def _doc_perturbations(doc):
    """Single-entry edits of a category document, plus one deletion each."""
    names = [m["name"] for m in doc["morphisms"]]
    for i, entry in enumerate(doc.get("composition", [])):
        for alt in names:
            if alt == entry["equals"]:
                continue
            out = copy.deepcopy(doc)
            out["composition"][i]["equals"] = alt
            yield out
        out = copy.deepcopy(doc)
        del out["composition"][i]
        yield out
    for obj in doc["objects"]:
        for alt in names:
            if alt == doc["identities"][obj]:
                out = copy.deepcopy(doc)
                out["identities"][obj] = alt
                yield out


def _package_accepts(doc) -> bool:
    try:
        category_from_json(doc)
    except (FormatError, ValidationError):
        return False
    return True


def test_perturbed_tables_agree_with_axiom_oracle():
    # editing one table cell usually breaks the axioms but occasionally
    # lands on another category; the oracle decides which, independently
    for cat in SMALL:
        doc = category_to_json(cat)
        assert _package_accepts(doc) and category_axioms_ok(doc)
        for mutant in _doc_perturbations(doc):
            assert _package_accepts(mutant) == category_axioms_ok(mutant)


def test_json_roundtrip_is_identity():
    for cat in SUITE:
        assert category_from_json(category_to_json(cat)) == cat


def test_json_rejects_unknown_and_malformed():
    doc = category_to_json(catalog.arrow())
    extra = copy.deepcopy(doc)
    extra["colour"] = "blue"
    with pytest.raises(FormatError):
        category_from_json(extra)
    dup = copy.deepcopy(doc)
    dup["objects"] = ["x", "x"]
    with pytest.raises((FormatError, ValidationError)):
        category_from_json(dup)
    gone = copy.deepcopy(doc)
    del gone["identities"]
    with pytest.raises(FormatError):
        category_from_json(gone)


def test_opposite_swaps_homs():
    for cat in SUITE:
        op = opposite(cat)
        assert opposite(op) == cat
        for x in range(len(cat.objects)):
            for y in range(len(cat.objects)):
                assert op.hom_count(x, y) == cat.hom_count(y, x)


def test_product_and_coproduct_counts():
    a, b = catalog.arrow(), catalog.cyclic_group(2)
    p = product(a, b)
    assert len(p.objects) == len(a.objects) * len(b.objects)
    assert len(p.morphisms) == len(a.morphisms) * len(b.morphisms)
    for x in range(len(a.objects)):
        for y in range(len(a.objects)):
            for u in range(len(b.objects)):
                for v in range(len(b.objects)):
                    got = p.hom_count(
                        x * len(b.objects) + u, y * len(b.objects) + v
                    )
                    assert got == a.hom_count(x, y) * b.hom_count(u, v)
    c = coproduct(a, b)
    assert len(c.objects) == len(a.objects) + len(b.objects)
    assert len(c.morphisms) == len(a.morphisms) + len(b.morphisms)
    # no morphisms across the two sides
    assert c.hom_count(0, len(a.objects)) == 0


def test_product_validity():
    p = product(catalog.thick_arrow(), catalog.cyclic_group(2))
    assert category_violations(p.objects, p.morphisms, p.identity, p.comp) == []


def test_object_isomorphism_and_classes():
    ta = catalog.thick_arrow()
    x, y, z = (ta.object_index(n) for n in ("x", "y", "z"))
    assert objects_isomorphic(ta, x, y)
    assert not objects_isomorphic(ta, x, z)
    part = iso_classes(ta)
    assert part.class_of[x] == part.class_of[y] != part.class_of[z]
    assert sorted(map(len, part.classes())) == [1, 2]


def test_skeleton_shrinks_to_one_per_class():
    for cat in SUITE:
        sk = skeleton(cat)
        assert len(sk.objects) == len(iso_classes(cat).representatives)
        assert category_violations(sk.objects, sk.morphisms, sk.identity, sk.comp) == []
        assert len(skeleton(sk).objects) == len(sk.objects)


def test_terminal_and_initial():
    ta = catalog.thick_arrow()
    assert is_terminal(ta, ta.object_index("z"))
    assert is_initial(ta, ta.object_index("x"))
    assert is_initial(ta, ta.object_index("y"))
    d = catalog.diamond()
    assert is_initial(d, 0) and is_terminal(d, 3)
    assert not is_terminal(catalog.parallel_pair(), 1)


def test_isomorphism_search_matches_brute_force():
    pairs = [
        (catalog.arrow(), opposite(catalog.arrow())),
        (catalog.vee(), catalog.wedge()),
        (catalog.vee(), opposite(catalog.wedge())),
        (catalog.cyclic_group(4), catalog.klein_four()),
        (catalog.cyclic_group(2), catalog.cyclic_group(2)),
        (catalog.thick_arrow(), catalog.thick_arrow()),
        (catalog.iso_pair(), catalog.parallel_pair()),
    ]
    for a, b in pairs:
        fun = categories_isomorphic(a, b)
        assert (fun is not None) == brute_isomorphic(a, b)
        if fun is not None:
            assert functor_violations(a, b, fun) == []


def test_isomorphism_search_respects_budget():
    a, b = catalog.cyclic_group(6), catalog.cyclic_group(6)
    with pytest.raises(BudgetExceededError):
        categories_isomorphic(a, b, budget=1)


def test_functor_violations_report():
    z2 = catalog.cyclic_group(2)
    ident = Functor((0,), tuple(range(len(z2.morphisms))))
    assert functor_violations(z2, z2, ident) == []
    swapped = Functor((0,), (1, 0))
    assert functor_violations(z2, z2, swapped)


def test_equivalence_judgements():
    assert equivalent(catalog.thick_arrow(), catalog.arrow())
    assert equivalent(catalog.codiscrete(3), catalog.terminal_category())
    assert not equivalent(catalog.arrow(), catalog.parallel_pair())
    assert not equivalent(catalog.cyclic_group(2), catalog.terminal_category())
    w = equivalence_witness(catalog.thick_arrow(), catalog.arrow())
    assert w is not None and len(w.object_map) == 3


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SUITE), st.sampled_from(SUITE))
def test_equivalence_is_invariant_under_skeleton(a, b):
    # equivalence must not see the difference between a category
    # and its skeleton
    assert equivalent(a, skeleton(a))
    assert equivalent(a, b) == equivalent(skeleton(a), skeleton(b))


def _arrow_parts(**change):
    cat = catalog.arrow()
    parts = dict(objects=cat.objects, morphisms=cat.morphisms,
                 identity=cat.identity, comp=cat.comp)
    parts.update(change)
    return parts


# Schema problems in stored-form parts raise FormatError before any axiom is
# checked, and validate_category raises the same error.
@pytest.mark.parametrize(
    "change, message",
    [
        (dict(objects=("x", "x")), "object names are not unique"),
        (dict(morphisms=(Morphism("1x", 0, 0), Morphism("1x", 1, 1), Morphism("f", 0, 1))),
         "morphism names are not unique"),
        (dict(morphisms=(Morphism("1x", 0, 0), Morphism("1y", 1, 1), Morphism("f", 0, 2))),
         "morphism 2 has out-of-range endpoints"),
        (dict(identity=(0,)), "identity list length 1 != object count 2"),
        (dict(identity=(0, 3)), "identity of object 1 is out of range"),
        (dict(comp={(2, 0): 5}), r"composition entry \(2,0\)->5 out of range"),
    ],
    ids=["objects", "morphisms", "endpoints", "identity length", "identity", "composite"],
)
def test_stored_form_schema_errors_keep_their_messages(change, message):
    parts = _arrow_parts(**change)
    with pytest.raises(FormatError, match=f"^{message}$"):
        category_violations(**parts)
    with pytest.raises(FormatError, match=f"^{message}$"):
        validate_category(**parts)


def test_validate_category_stores_the_parts_it_checked():
    cat = catalog.thick_arrow()
    built = validate_category(list(cat.objects), list(cat.morphisms),
                              list(cat.identity), dict(cat.comp))
    assert built == cat
    assert isinstance(built.objects, tuple) and isinstance(built.identity, tuple)
