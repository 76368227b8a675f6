"""Command-line front end.

Exit codes: 0 for computed results and valid inputs, 1 for inputs that
parse but violate the axioms, 2 for quantities that are well-formed to
ask about but do not exist (no weighting, undefined hom characteristic,
structure not nerve-shaped), 3 for usage, format, IO, and budget errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .errors import (
    BudgetExceededError,
    FormatError,
    HomChiUndefinedError,
    NotNerveShapedError,
    ValidationError,
)
from .fincat import (
    category_from_json,
    category_to_json,
    coproduct,
    equivalent,
    opposite,
    product,
    search_budget,
    skeleton,
)
from .higher import (
    bicat_adjacency,
    bicat_from_json,
    chi_n,
    datum_from_json,
    internal_equiv_classes,
)
from .magnitude import (
    adjacency,
    coweighting_solution,
    euler_char,
    euler_of_matrix,
    weighting_solution,
)
from .qlinalg import QMatrix, format_rational
from .simplicial import (
    DEFAULT_DIM,
    _classified,
    filler_report,
    nerve,
    sset_from_json,
    sset_to_json,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve 3
        raise FormatError(f"{self.prog}: {message}")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(
                f"{path}: malformed JSON at line {e.lineno} column {e.colno}: {e.msg}"
            ) from None
        except RecursionError:
            raise FormatError(f"{path}: JSON nested too deeply to read") from None


def _vector(values) -> str:
    return "[" + ", ".join(format_rational(x) for x in values) + "]"


def _matrix_text(m: QMatrix) -> str:
    return " / ".join(
        " ".join(format_rational(e) for e in row) for row in m.to_rows()
    )


def _emit_json(doc, args) -> None:
    text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _chi_report(res, show_witness: bool) -> int:
    if not res.exists:
        missing = []
        if res.witness_weighting is None:
            missing.append("weighting")
        if res.witness_coweighting is None:
            missing.append("coweighting")
        print("chi undefined: no " + " or ".join(missing) + " exists")
        return 2
    print(f"chi = {format_rational(res.value)}")
    if show_witness:
        print(f"weighting = {_vector(res.witness_weighting.values)}")
        print(f"coweighting = {_vector(res.witness_coweighting.values)}")
    return 0


def _category(path: str):
    return category_from_json(_load_json(path))


def _cmd_validate(load, args) -> int:
    load(_load_json(args.path))
    print("valid")
    return 0


def _cmd_chi(matrix_of, args) -> int:
    m = matrix_of(_load_json(args.path))
    if args.matrix:
        print(_matrix_text(m))
    return _chi_report(euler_of_matrix(m), args.witness)


def _cmd_side(solve, name, args) -> int:
    sol = solve(adjacency(_category(args.path)).matrix)
    if not sol.consistent:
        print(f"no {name} exists")
        return 2
    print(f"particular = {_vector(sol.particular)}; nullspace dim = {len(sol.nullspace_basis)}")
    return 0


def _cmd_construct(build, args) -> int:
    paths = [args.path] if "path" in args else [args.path_a, args.path_b]
    _emit_json(category_to_json(build(*map(_category, paths))), args)
    return 0


def _cmd_equivalent(args) -> int:
    a, b = _category(args.path_a), _category(args.path_b)
    print(f"equivalent = {'true' if equivalent(a, b) else 'false'}")
    return 0


def _cmd_chi_n(args) -> int:
    return _chi_report(chi_n(datum_from_json(_load_json(args.path))), args.witness)


def _cmd_internal_classes(args) -> int:
    bicat = bicat_from_json(_load_json(args.path))
    part = internal_equiv_classes(bicat)
    classes = part.classes()
    print(f"classes = {len(classes)}")
    for c, members in enumerate(classes):
        print(f"class {c}: " + " ".join(bicat.zero_cells[x] for x in members))
    return 0


def _cmd_nerve(args) -> int:
    _emit_json(sset_to_json(nerve(_category(args.path), args.dim)), args)
    return 0


def _cmd_horncheck(args) -> int:
    sset = sset_from_json(_load_json(args.path))
    report = filler_report(sset)
    for (n, k), stats in sorted(report.per_horn.items()):
        print(
            f"horn ({n},{k}): {stats.instances} instances, "
            f"{stats.unfilled} unfilled, {stats.multiple} with multiple fillers"
        )
    print(f"quasi = {'true' if report.quasi else 'false'}")
    ok = report.quasi
    if args.unique:
        print(f"unique fillers = {'true' if report.nerve_shaped else 'false'}")
        ok = report.nerve_shaped
    return 0 if ok else 2


def _cmd_chi_sset(args) -> int:
    kind, cat = _classified(sset_from_json(_load_json(args.path)))  # one reconstruction
    print(f"kind = {kind}")
    if cat is None:
        print("chi undefined: structure is not the nerve of a category")
        return 2
    return _chi_report(euler_char(cat), args.witness)


def build_parser() -> _Parser:
    parser = _Parser(prog="eulerkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    one, two = ("path",), ("path_a", "path_b")
    witness = ("--witness", {"action": "store_true", "help": "print witness vectors"})
    output = ("-o", "--output", {"help": "write JSON here instead of stdout"})

    # Built per call, not at import, so the table binds the library
    # functions this module holds when main runs.
    for name, func, help_text, inputs, *options in (
        ("validate", partial(_cmd_validate, category_from_json),
         "check a category file against the axioms", one),
        ("chi", partial(_cmd_chi, lambda doc: adjacency(category_from_json(doc)).matrix),
         "Euler characteristic of a category", one,
         ("--matrix", {"action": "store_true", "help":
                       "also print the hom-count matrix, rows joined by ' / '"}),
         witness),
        ("weighting", partial(_cmd_side, weighting_solution, "weighting"),
         "solve M v = 1", one),
        ("coweighting", partial(_cmd_side, coweighting_solution, "coweighting"),
         "solve u^T M = 1^T", one),
        ("opposite", partial(_cmd_construct, opposite), "reverse all arrows", one, output),
        ("skeleton", partial(_cmd_construct, skeleton),
         "one object per isomorphism class", one, output),
        ("product", partial(_cmd_construct, product),
         "product category of two files", two, output),
        ("coproduct", partial(_cmd_construct, coproduct),
         "disjoint union of two files", two, output),
        ("equivalent", _cmd_equivalent, "test two categories for equivalence", two),
        ("chi-bicat", partial(_cmd_chi, lambda doc: bicat_adjacency(bicat_from_json(doc))),
         "Euler characteristic of a bicategory file", one,
         ("--matrix", {"action": "store_true", "help":
                       "also print the matrix of hom-category characteristics"}),
         witness),
        ("chi-n", _cmd_chi_n, "Euler characteristic of a recursive datum file", one, witness),
        ("internal-classes", _cmd_internal_classes,
         "group zero-cells by internal equivalence", one),
        ("nerve", _cmd_nerve, "nerve of a category as a truncated structure", one,
         ("--dim", {"type": int, "default": DEFAULT_DIM}), output),
        ("validate-sset", partial(_cmd_validate, sset_from_json),
         "check a simplicial file against the identities", one),
        ("horncheck", _cmd_horncheck, "count inner-horn fillers", one,
         ("--unique", {"action": "store_true",
                       "help": "also require unique fillers for exit 0"})),
        ("chi-sset", _cmd_chi_sset, "Euler characteristic via nerve reconstruction",
         one, witness),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for arg in inputs:
            p.add_argument(arg)
        for *flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        search_budget()  # a bad EULERKIT_BUDGET fails every verb, not only the searches
    except FormatError as e:
        print(str(e), file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"invalid: {len(e.violations)} violation(s)")
        for item in e.violations:
            print(f"  - {item}")
        return 1
    except (HomChiUndefinedError, NotNerveShapedError) as e:
        print(str(e))
        return 2
    except (FormatError, BudgetExceededError, OSError, ValueError) as e:
        print(str(e), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
