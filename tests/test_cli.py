"""Command line behaviour: verbs, output shapes, exit codes."""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import eulerkit
from eulerkit import (
    EulerDatum,
    bicat_to_datum,
    bicat_to_json,
    cat_as_bicat,
    catalog,
    category_from_json,
    category_to_json,
    datum_of_category,
    datum_to_json,
    horn,
    nerve,
    sset_from_json,
    sset_to_json,
)
from eulerkit.cli import build_parser, main


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_and_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "z3.json", category_to_json(catalog.cyclic_group(3)))
    assert main(["validate", good]) == 0
    assert capsys.readouterr().out.strip() == "valid"

    doc = category_to_json(catalog.cyclic_group(3))
    doc["composition"][0]["equals"] = "g1"
    bad = _write(tmp_path, "bad.json", doc)
    assert main(["validate", bad]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid:") and "violation(s)" in out
    assert "  - " in out


def test_chi_and_matrix_output(tmp_path, capsys):
    arrow = _write(tmp_path, "arrow.json", category_to_json(catalog.arrow()))
    assert main(["chi", arrow, "--matrix"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1 1 / 0 1"
    assert out[1] == "chi = 1"

    z3 = _write(tmp_path, "z3.json", category_to_json(catalog.cyclic_group(3)))
    assert main(["chi", z3]) == 0
    assert capsys.readouterr().out.strip() == "chi = 1/3"

    assert main(["chi", z3, "--witness"]) == 0
    out = capsys.readouterr().out
    assert "weighting = [1/3]" in out and "coweighting = [1/3]" in out


def test_weighting_output_shape(tmp_path, capsys):
    three = _write(tmp_path, "three.json", category_to_json(catalog.thick_arrow()))
    assert main(["weighting", three]) == 0
    assert capsys.readouterr().out.strip() == "particular = [0, 0, 1]; nullspace dim = 1"
    assert main(["coweighting", three]) == 0
    assert capsys.readouterr().out.strip() == "particular = [1, 0, 0]; nullspace dim = 1"


def test_characteristic_free_category_exits_2(tmp_path, capsys):
    nw = _write(tmp_path, "nw.json", category_to_json(catalog.no_weighting_category()))
    assert main(["chi", nw, "--matrix"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "2 1 / 4 2"
    assert out[1] == "chi undefined: no weighting or coweighting exists"
    assert main(["weighting", nw]) == 2
    assert capsys.readouterr().out.strip() == "no weighting exists"
    assert main(["coweighting", nw]) == 2
    assert capsys.readouterr().out.strip() == "no coweighting exists"


def test_construction_verbs_write_json(tmp_path, capsys):
    arrow = _write(tmp_path, "arrow.json", category_to_json(catalog.arrow()))
    out_path = tmp_path / "op.json"
    assert main(["opposite", arrow, "-o", str(out_path)]) == 0
    op = category_from_json(json.loads(out_path.read_text()))
    assert op.hom_count(1, 0) == 1 and op.hom_count(0, 1) == 0

    thick = _write(tmp_path, "thick.json", category_to_json(catalog.thick_arrow()))
    assert main(["skeleton", thick]) == 0
    sk = category_from_json(json.loads(capsys.readouterr().out))
    assert len(sk.objects) == 2

    z2 = _write(tmp_path, "z2.json", category_to_json(catalog.cyclic_group(2)))
    assert main(["product", arrow, z2]) == 0
    prod = category_from_json(json.loads(capsys.readouterr().out))
    assert len(prod.morphisms) == 6
    assert main(["coproduct", arrow, z2]) == 0
    cop = category_from_json(json.loads(capsys.readouterr().out))
    assert len(cop.objects) == 3


def test_equivalent_verb(tmp_path, capsys):
    thick = _write(tmp_path, "thick.json", category_to_json(catalog.thick_arrow()))
    arrow = _write(tmp_path, "arrow.json", category_to_json(catalog.arrow()))
    pp = _write(tmp_path, "pp.json", category_to_json(catalog.parallel_pair()))
    assert main(["equivalent", thick, arrow]) == 0
    assert capsys.readouterr().out.strip() == "equivalent = true"
    assert main(["equivalent", arrow, pp]) == 0
    assert capsys.readouterr().out.strip() == "equivalent = false"


def test_chi_bicat(tmp_path, capsys):
    tri = _write(tmp_path, "tri.json", bicat_to_json(catalog.upper_triangular_bicat()))
    assert main(["chi-bicat", tri, "--matrix"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1 2 / 0 1/2"
    assert out[1] == "chi = -1"

    nw = _write(tmp_path, "nw.json", bicat_to_json(catalog.no_weighting_bicat()))
    assert main(["chi-bicat", nw]) == 2
    assert "chi undefined" in capsys.readouterr().out

    # a hom without a characteristic fails before any matrix is printed
    uh = _write(tmp_path, "uh.json", bicat_to_json(catalog.undefined_hom_bicat()))
    assert main(["chi-bicat", uh, "--matrix"]) == 2
    assert capsys.readouterr().out.strip() == "hom-EC undefined at depth 1, pair (x,y)"


def test_chi_verbs_agree_across_representations(tmp_path, capsys):
    # same category as a category file, a bicategory file, a datum file
    # and a nerve file: every chi verb prints the same value
    cat = catalog.cyclic_group(3)
    as_cat = _write(tmp_path, "c.json", category_to_json(cat))
    as_bicat = _write(tmp_path, "b.json", bicat_to_json(cat_as_bicat(cat)))
    as_datum = _write(
        tmp_path, "d.json", datum_to_json(bicat_to_datum(cat_as_bicat(cat)))
    )
    as_nerve = _write(tmp_path, "n.json", sset_to_json(nerve(cat, 4)))
    lines = []
    for verb, path in (
        ("chi", as_cat),
        ("chi-bicat", as_bicat),
        ("chi-n", as_datum),
        ("chi-sset", as_nerve),
    ):
        assert main([verb, path]) == 0
        lines.append(capsys.readouterr().out.splitlines()[-1])
    assert lines == ["chi = 1/3"] * 4


def test_chi_n_and_towers(tmp_path, capsys):
    arrow2 = bicat_to_datum(cat_as_bicat(catalog.arrow()))
    tower = EulerDatum(
        3,
        cells=("a", "b"),
        hom={
            (0, 0): arrow2,
            (0, 1): arrow2,
            (1, 0): EulerDatum(2, cells=(), hom={}),
            (1, 1): arrow2,
        },
    )
    path = _write(tmp_path, "tower.json", datum_to_json(tower))
    assert main(["chi-n", path]) == 0
    assert capsys.readouterr().out.strip() == "chi = 1"

    broken = EulerDatum(
        3,
        cells=("a", "b"),
        hom={
            (0, 0): bicat_to_datum(catalog.no_weighting_bicat()),
            (0, 1): arrow2,
            (1, 0): arrow2,
            (1, 1): arrow2,
        },
    )
    path = _write(tmp_path, "broken.json", datum_to_json(broken))
    assert main(["chi-n", path]) == 2
    assert "depth 1" in capsys.readouterr().out


def test_internal_classes(tmp_path, capsys):
    doc = bicat_to_json(cat_as_bicat(catalog.thick_arrow()))
    path = _write(tmp_path, "ta.json", doc)
    assert main(["internal-classes", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "classes = 2"
    assert lines[1] == "class 0: x y"
    assert lines[2] == "class 1: z"


def test_sset_verbs(tmp_path, capsys):
    arrow = _write(tmp_path, "arrow.json", category_to_json(catalog.arrow()))
    nerve_path = tmp_path / "nerve.json"
    assert main(["nerve", arrow, "--dim", "2", "-o", str(nerve_path)]) == 0
    doc = json.loads(nerve_path.read_text())
    assert sset_from_json(doc) == nerve(catalog.arrow(), 2)

    assert main(["validate-sset", str(nerve_path)]) == 0
    assert capsys.readouterr().out.strip() == "valid"

    assert main(["horncheck", str(nerve_path), "--unique"]) == 0
    out = capsys.readouterr().out
    assert "horn (2,1): 4 instances, 0 unfilled, 0 with multiple fillers" in out
    assert "quasi = true" in out and "unique fillers = true" in out

    lam = _write(tmp_path, "horn.json", sset_to_json(horn(2, 1, 2)))
    assert main(["horncheck", lam]) == 2
    assert "quasi = false" in capsys.readouterr().out

    z3 = _write(tmp_path, "z3.json", category_to_json(catalog.cyclic_group(3)))
    z3_nerve = tmp_path / "z3_nerve.json"
    assert main(["nerve", z3, "--dim", "2", "-o", str(z3_nerve)]) == 0
    capsys.readouterr()
    assert main(["chi-sset", str(z3_nerve)]) == 0
    out = capsys.readouterr().out
    assert "kind = nerve" in out and "chi = 1/3" in out

    assert main(["chi-sset", lam]) == 2
    out = capsys.readouterr().out
    assert "kind = other" in out
    assert "chi undefined: structure is not the nerve of a category" in out


def test_usage_and_io_errors(tmp_path, capsys):
    assert main(["no-such-verb"]) == 3
    assert main(["chi", str(tmp_path / "absent.json")]) == 3
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["chi", str(garbled)]) == 3
    err = capsys.readouterr().err
    assert "malformed JSON at line" in err


def _mistyped(name, verb, doc, edit):
    edit(doc)
    return pytest.param(verb, doc, id=name)


# Wrong-typed fields that once escaped main as a TypeError or AttributeError.
MISTYPED = [
    _mistyped("src", "chi", category_to_json(catalog.arrow()),
              lambda d: d["morphisms"][2].update(src=["x"])),
    _mistyped("identities", "chi", category_to_json(catalog.arrow()),
              lambda d: d["identities"].update(x=["1x"])),
    _mistyped("composition", "chi", category_to_json(catalog.cyclic_group(3)),
              lambda d: d["composition"][0].update(first=["g1"])),
    _mistyped("hom", "chi-bicat", bicat_to_json(catalog.upper_triangular_bicat()),
              lambda d: d.update(hom=[])),
    _mistyped("hcomp", "chi-bicat", bicat_to_json(catalog.upper_triangular_bicat()),
              lambda d: d.update(hcomp=[])),
    _mistyped("unitors", "chi-bicat", bicat_to_json(catalog.upper_triangular_bicat()),
              lambda d: d.update(unitors=[])),
    _mistyped("units", "chi-bicat", bicat_to_json(catalog.upper_triangular_bicat()),
              lambda d: d.update(units=list(d["zero_cells"]))),
    _mistyped("datum-hom", "chi-n", datum_to_json(datum_of_category(catalog.arrow())),
              lambda d: d.update(hom=[])),
    _mistyped("face-value", "validate-sset", sset_to_json(nerve(catalog.arrow(), 2)),
              lambda d: d["faces"]["1,0"].update(f=["y"])),
]


@pytest.mark.parametrize("verb, doc", MISTYPED)
def test_wrong_typed_fields_exit_3(tmp_path, capsys, verb, doc):
    assert main([verb, _write(tmp_path, "doc.json", doc)]) == 3
    captured = capsys.readouterr()
    assert captured.err.strip()
    assert "Traceback" not in captured.out + captured.err


def _readme_verbs():
    """Verbs of the eulerkit lines in README's "Command line" code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = section.split("```", 1)[0]
    verbs = []
    for line in block.splitlines():
        match = re.match(r"eulerkit (\S+)", line.strip())
        if match:
            verbs += match.group(1).split("|")
    return verbs


def test_verb_table_matches_readme_and_reports_missing_files(tmp_path, capsys):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    readme = _readme_verbs()
    assert len(readme) == 16
    assert sorted(sub.choices) == sorted(readme)
    absent = str(tmp_path / "absent.json")
    for verb, parser in sub.choices.items():
        inputs = [a for a in parser._actions if not a.option_strings]
        assert main([verb] + [absent] * len(inputs)) == 3, verb
        captured = capsys.readouterr()
        assert "absent.json" in captured.err, verb
        assert "Traceback" not in captured.out + captured.err


def test_budget_env_is_checked(tmp_path, capsys, monkeypatch):
    thick = _write(tmp_path, "thick.json", category_to_json(catalog.thick_arrow()))
    arrow = _write(tmp_path, "arrow.json", category_to_json(catalog.arrow()))
    monkeypatch.setenv("EULERKIT_BUDGET", "-5")
    assert main(["equivalent", thick, arrow]) == 3
    assert "EULERKIT_BUDGET" in capsys.readouterr().err
    monkeypatch.setenv("EULERKIT_BUDGET", "1")
    assert main(["equivalent", thick, arrow]) == 3


def test_budget_caps_horn_enumeration(tmp_path, capsys, monkeypatch):
    ner = _write(tmp_path, "nerve.json", sset_to_json(nerve(catalog.chain(3), 3)))
    monkeypatch.setenv("EULERKIT_BUDGET", "1")
    assert main(["horncheck", ner]) == 3
    captured = capsys.readouterr()
    assert "search budget of 1 nodes exceeded" in captured.err
    assert "Traceback" not in captured.err + captured.out


def _declared_script(name):
    """The `module:function` target of console script `name` in pyproject.toml.

    Read line by line, since Python 3.10 has no tomllib; the flat
    `[project.scripts]` table holds only `name = "module:function"` lines.
    """
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    section = None
    for line in pyproject.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[] ")
        elif section == "project.scripts" and "=" in line:
            key, value = (part.strip().strip("\"'") for part in line.split("=", 1))
            if key == name:
                return value
    raise KeyError(f"no console script {name!r} in {pyproject}")


def _check_entry_point(command, z3, **kwargs):
    """`command chi` prints chi(Z3) and exits 0; a missing file exits 3."""
    proc = subprocess.run(command + ["chi", z3], capture_output=True,
                          text=True, timeout=60, **kwargs)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "chi = 1/3", proc.stderr
    proc = subprocess.run(command + ["chi", z3 + ".absent"], capture_output=True,
                          text=True, timeout=60, **kwargs)
    assert proc.returncode == 3, proc.stderr


def test_installed_entry_point(tmp_path):
    z3 = _write(tmp_path, "z3.json", category_to_json(catalog.cyclic_group(3)))

    # Run the declared target as the console-script wrapper does, against
    # the eulerkit this session imported, so no install is needed.
    module, func = _declared_script("eulerkit").split(":")
    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.argv[0] = 'eulerkit'; sys.exit({func}())")
    src = str(Path(eulerkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    _check_entry_point([sys.executable, "-c", wrapper], z3, env=env, cwd=tmp_path)

    # Where the package is installed, the generated script must work too.
    exe = shutil.which("eulerkit")
    if exe:
        _check_entry_point([exe], z3)


def test_horncheck_reads_a_structure_without_tables(tmp_path, capsys):
    path = _write(tmp_path, "empty.json", {"dim": 3})
    assert main(["horncheck", path]) == 0
    captured = capsys.readouterr()
    horns = [line for line in captured.out.splitlines() if line.startswith("horn ")]
    assert len(horns) == 3 and all(": 0 instances," in line for line in horns)
    assert "quasi = true" in captured.out
    assert "Traceback" not in captured.err


def test_deeply_nested_file_exits_3(tmp_path, capsys):
    doc = '{"level": 0, "size": 1}'
    for level in range(1, 601):
        doc = f'{{"level": {level}, "cells": ["a"], "hom": {{"a|a": {doc}}}}}'
    path = tmp_path / "deep.json"
    path.write_text(doc)
    assert main(["chi-n", str(path)]) == 3
    captured = capsys.readouterr()
    assert str(path) in captured.err and "nested too deeply" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_chi_bicat_names_the_broken_hom(tmp_path, capsys):
    doc = bicat_to_json(catalog.suspension_z2())
    hom = doc["hom"]["x|x"]
    hom["composition"] = [e for e in hom["composition"]
                          if (e["first"], e["then"]) != ("g1", "g1")]
    path = _write(tmp_path, "broken_hom.json", doc)
    assert main(["chi-bicat", path]) == 1
    captured = capsys.readouterr()
    assert "  - hom(x,x): missing composite for composable pair (g=1, f=1)" in (
        captured.out.splitlines())
    assert "Traceback" not in captured.out + captured.err
