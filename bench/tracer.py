"""Span tracing of eulerkit's public functions, installed from outside the package.

`Tracer.install` replaces every public function of the traced modules at
every module attribute it is bound to (a function imported into the
package namespace or into another module is replaced there too, and
recursion through a module global goes through the wrapper).  Each call
records a span: name, enter, start, end, exit, parent span and task id.
Self time is a span's duration minus the footprint of its child spans;
the time a wrapper spends outside its own call is wrapper overhead.

Run as a script to trace one command-line invocation:

    python3 bench/tracer.py --out STATS.json --spans SPANS.tsv -- chi cat.json
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("qlinalg", "magnitude", "fincat", "higher", "simplicial", "cli")


def _solve_counts(tr, args, result):
    matrix = args[0]
    tr.bump("qlinalg.solve.cells", matrix.rows * matrix.cols)
    tr.bump("qlinalg.solve.integer", all(e.denominator == 1 for e in matrix.entries))
    tr.bump("qlinalg.solve.singular", bool(result.nullspace_basis))


def _violation_counts(tr, args, result):
    morphisms = args[1]
    into, out_of = {}, {}
    for m in morphisms:
        into[m[2]] = into.get(m[2], 0) + 1
        out_of[m[1]] = out_of.get(m[1], 0) + 1
    tr.bump("fincat.validate.composable", sum(c * out_of.get(x, 0) for x, c in into.items()))
    tr.bump("fincat.validate.tried", len(morphisms) ** 2)


# Counters taken after a call returns, outside its span.
AFTER = {
    "qlinalg.solve_affine": _solve_counts,
    "magnitude.adjacency": lambda tr, a, r: tr.bump("magnitude.adjacency.cells", len(r.matrix.entries)),
    "magnitude.euler_of_matrix": lambda tr, a, r: tr.bump("magnitude.euler.exists", r.exists),
    "fincat.category_from_json": lambda tr, a, r: tr.bump("fincat.load.morphisms", len(r.morphisms)),
    "fincat.category_violations": _violation_counts,
    "fincat.equivalent": lambda tr, a, r: tr.bump("fincat.equiv.true", r),
    "simplicial.nerve": lambda tr, a, r: tr.bump("simplicial.nerve.simplices", sum(r.counts())),
    "simplicial.enumerate_inner_horns": lambda tr, a, r: tr.bump("simplicial.horns.instances", len(r)),
    "simplicial.classify_sset": lambda tr, a, r: tr.bump("simplicial.classify.other", r == "other"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.enter = array("d")
        self.start = array("d")
        self.end = array("d")
        self.exit = array("d")
        self.stack: list[int] = []
        self.task_id = -1
        self.counts: dict[str, int] = {}
        self._patches: list[tuple] = []  # (module, name, original, wrapper)
        self._seen_task = None
        self._datum_ids: dict[int, int] = {}
        self._datum_keys: dict[tuple, int] = {}
        self._seen: set[int] = set()

    def bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + int(n)

    # -- chi_n repeat detection: structural keys interned per task ---------------

    def _datum_key(self, datum):
        key_id = self._datum_ids.get(id(datum))
        if key_id is None:
            if datum.level == 0:
                key = (0, datum.size)
            else:
                n = len(datum.cells)
                key = (datum.level, datum.cells,
                       tuple(self._datum_key(datum.hom[(i, j)]) for i in range(n) for j in range(n)))
            key_id = self._datum_keys.setdefault(key, len(self._datum_keys))
            self._datum_ids[id(datum)] = key_id
        return key_id

    def _chi_n_before(self, args):
        if self._seen_task != self.task_id:
            self._seen_task = self.task_id
            self._datum_ids.clear()
            self._datum_keys.clear()
            self._seen.clear()
        key = self._datum_key(args[0])
        self.bump("higher.chi_n.repeat", key in self._seen)
        self._seen.add(key)

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, fn, qual):
        fid = len(self.names)
        self.names.append(qual)
        after = AFTER.get(qual)
        before = self._chi_n_before if qual == "higher.chi_n" else None
        perf = time.perf_counter
        stack = self.stack
        fids, parents, tasks = self.fid, self.parent, self.task
        enters, starts, ends, exits = self.enter, self.start, self.end, self.exit

        def wrapper(*args, **kwargs):
            if self.task_id < 0:  # outside a task: untimed work is not traced
                return fn(*args, **kwargs)
            t_in = perf()
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            tasks.append(self.task_id)
            enters.append(t_in)
            starts.append(0.0)
            ends.append(0.0)
            exits.append(0.0)
            stack.append(idx)
            if before is not None:
                before(args)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf()
                starts[idx] = t0
                stack.pop()
                exits[idx] = perf()
                raise
            t1 = perf()
            stack.pop()
            starts[idx] = t0
            ends[idx] = t1
            if after is not None:
                after(self, args, result)
            exits[idx] = perf()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch every binding of every traced function; cheap after the first call."""
        if not self._patches:
            wrappers = {}
            for short in MODULES:
                mod = importlib.import_module(f"eulerkit.{short}")
                for name, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and not name.startswith("_")
                            and obj.__module__ == mod.__name__):
                        wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{name}"))
            for modname, mod in list(sys.modules.items()):
                if mod is None or not (modname == "eulerkit" or modname.startswith("eulerkit.")):
                    continue
                for name, obj in list(vars(mod).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patches.append((mod, name, obj, hit[1]))
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)

    # -- results -----------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tenter\tstart\tend\texit\tparent\ttask\n")
            for i in range(len(self.fid)):
                fh.write(f"{self.names[self.fid[i]]}\t{self.enter[i]:.9f}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.exit[i]:.9f}\t{self.parent[i]}\t{self.task[i]}\n")

    def aggregate(self):
        """Per (function, parent function) calls and self time, plus counters.

        Self time is end - start minus the enter-to-exit footprint of every
        child span; each span's own footprint minus its duration is wrapper
        overhead, reported separately.
        """
        n = len(self.fid)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.exit[i] - self.enter[i]
        calls: dict[str, list] = {}
        overhead = 0.0
        for i in range(n):
            p = self.parent[i]
            key = self.names[self.fid[i]] + "<" + (self.names[self.fid[p]] if p >= 0 else "")
            row = calls.setdefault(key, [0, 0.0])
            duration = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += duration - child[i]
            overhead += (self.exit[i] - self.enter[i]) - duration
        return {"calls": calls, "counts": dict(self.counts), "wrapper_s": overhead, "spans": n}


def merge(stats_list):
    """Sum several aggregates into one."""
    out = {"calls": {}, "counts": {}, "wrapper_s": 0.0, "spans": 0}
    for stats in stats_list:
        for key, (c, s) in stats["calls"].items():
            row = out["calls"].setdefault(key, [0, 0.0])
            row[0] += c
            row[1] += s
        for key, v in stats["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + v
        out["wrapper_s"] += stats["wrapper_s"]
        out["spans"] += stats["spans"]
    return out


# Layers named in the benchmark, each a set of functions whose self times
# add up; a "<parent" suffix restricts a function to calls from that parent.
GROUPS = {
    "qlinalg.solve": ["qlinalg.solve_affine"],
    "magnitude.adjacency": ["magnitude.adjacency"],
    "magnitude.euler": ["magnitude.euler_of_matrix", "magnitude.weighting_solution",
                        "magnitude.coweighting_solution"],
    "fincat.load": ["fincat.category_from_json", "fincat.with_identity_composites",
                    "fincat.validate_category"],
    "fincat.validate": ["fincat.category_violations"],
    "fincat.equiv": ["fincat.equivalent", "fincat.equivalence_witness",
                     "fincat.categories_isomorphic", "fincat.skeleton",
                     "fincat.functor_violations"],
    "fincat.iso_classes": ["fincat.iso_classes", "fincat.objects_isomorphic<fincat.iso_classes"],
    "higher.bicat_load": ["higher.bicat_from_json", "higher.bicat_from_parts"],
    "higher.bicat_validate": ["higher.bicat_violations"],
    "higher.bicat_chi": ["higher.bicat_euler_char", "higher.bicat_adjacency"],
    "higher.hom_chi": ["magnitude.euler_char<higher.bicat_adjacency"],
    "higher.chi_n": ["higher.chi_n"],
    "higher.internal_classes": ["higher.internal_equiv_classes", "higher.internally_equivalent"],
    "higher.datum_load": ["higher.datum_from_json"],
    "simplicial.nerve": ["simplicial.nerve"],
    "simplicial.sset_load": ["simplicial.sset_from_json", "simplicial.validate_sset"],
    "simplicial.validate": ["simplicial.sset_violations"],
    "simplicial.horns": ["simplicial.enumerate_inner_horns"],
    "simplicial.filler_report": ["simplicial.filler_report"],
    "simplicial.fillers": ["simplicial.fillers"],
    "simplicial.reconstruct": ["simplicial.category_from_nerve"],
    "simplicial.classify": ["simplicial.classify_sset"],
}

# (metric, group, measure, unit); measure is calls, self_s, or a counter
# name, optionally divided by another counter ("a/b") or by the calls.
LAYER_METRICS = (
    ("qlinalg.solve.calls", "qlinalg.solve", "calls", "count"),
    ("qlinalg.solve.self_s", "qlinalg.solve", "self_s", "s"),
    ("qlinalg.solve.cells", "qlinalg.solve", "qlinalg.solve.cells", "count"),
    ("qlinalg.solve.integer_share", "qlinalg.solve", "qlinalg.solve.integer/calls", "ratio"),
    ("qlinalg.solve.singular_share", "qlinalg.solve", "qlinalg.solve.singular/calls", "ratio"),
    ("magnitude.adjacency.calls", "magnitude.adjacency", "calls", "count"),
    ("magnitude.adjacency.self_s", "magnitude.adjacency", "self_s", "s"),
    ("magnitude.adjacency.cells", "magnitude.adjacency", "magnitude.adjacency.cells", "count"),
    ("magnitude.euler.calls", "magnitude.euler", "magnitude.euler_of_matrix", "count"),
    ("magnitude.euler.self_s", "magnitude.euler", "self_s", "s"),
    ("magnitude.euler.exists_share", "magnitude.euler",
     "magnitude.euler.exists/magnitude.euler_of_matrix", "ratio"),
    ("fincat.load.calls", "fincat.load", "fincat.category_from_json", "count"),
    ("fincat.load.self_s", "fincat.load", "self_s", "s"),
    ("fincat.load.morphisms", "fincat.load", "fincat.load.morphisms", "count"),
    ("fincat.validate.calls", "fincat.validate", "calls", "count"),
    ("fincat.validate.self_s", "fincat.validate", "self_s", "s"),
    ("fincat.validate.useful_ratio", "fincat.validate",
     "fincat.validate.composable/fincat.validate.tried", "ratio"),
    ("fincat.equiv.calls", "fincat.equiv", "fincat.equivalent", "count"),
    ("fincat.equiv.self_s", "fincat.equiv", "self_s", "s"),
    ("fincat.equiv.true_share", "fincat.equiv", "fincat.equiv.true/fincat.equivalent", "ratio"),
    ("fincat.iso_classes.self_s", "fincat.iso_classes", "self_s", "s"),
    ("higher.bicat_load.self_s", "higher.bicat_load", "self_s", "s"),
    ("higher.bicat_validate.self_s", "higher.bicat_validate", "self_s", "s"),
    ("higher.bicat_chi.self_s", "higher.bicat_chi", "self_s", "s"),
    ("higher.hom_chi.calls", "higher.hom_chi", "calls", "count"),
    ("higher.chi_n.calls", "higher.chi_n", "calls", "count"),
    ("higher.chi_n.self_s", "higher.chi_n", "self_s", "s"),
    ("higher.chi_n.repeat_share", "higher.chi_n", "higher.chi_n.repeat/calls", "ratio"),
    ("higher.internal_classes.self_s", "higher.internal_classes", "self_s", "s"),
    ("higher.datum_load.self_s", "higher.datum_load", "self_s", "s"),
    ("simplicial.nerve.self_s", "simplicial.nerve", "self_s", "s"),
    ("simplicial.nerve.simplices", "simplicial.nerve", "simplicial.nerve.simplices", "count"),
    ("simplicial.sset_load.self_s", "simplicial.sset_load", "self_s", "s"),
    ("simplicial.validate.self_s", "simplicial.validate", "self_s", "s"),
    ("simplicial.horns.self_s", "simplicial.horns", "self_s", "s"),
    ("simplicial.horns.instances", "simplicial.horns", "simplicial.horns.instances", "count"),
    ("simplicial.filler_report.self_s", "simplicial.filler_report", "self_s", "s"),
    ("simplicial.fillers.calls", "simplicial.fillers", "calls", "count"),
    ("simplicial.fillers.self_s", "simplicial.fillers", "self_s", "s"),
    ("simplicial.reconstruct.self_s", "simplicial.reconstruct", "self_s", "s"),
    ("simplicial.classify.other_share", "simplicial.classify", "simplicial.classify.other/calls",
     "ratio"),
)


def _group_totals(calls, members):
    n, s = 0, 0.0
    for key, (c, t) in calls.items():
        name, parent = key.split("<", 1)
        if name in members or f"{name}<{parent}" in members:
            n += c
            s += t
    return n, s


def layer_metrics(stats, task_s):
    """Named per-layer metrics, per-module self time and the unattributed
    remainder, from merged aggregates covering `task_s` seconds of tasks."""
    calls = stats["calls"]
    counts = dict(stats["counts"])
    for key, (c, _) in calls.items():
        name = key.split("<", 1)[0]
        counts[name] = counts.get(name, 0) + c
    out = {}
    for metric, group, measure, unit in LAYER_METRICS:
        n, s = _group_totals(calls, GROUPS[group])
        num, _, den = measure.partition("/")
        value = {"calls": n, "self_s": s}.get(num, counts.get(num, 0))
        if den:
            base = n if den == "calls" else counts.get(den, 0)
            value = value / base if base else 0.0
        out[metric] = (value, unit)
    attributed = 0.0
    for module in MODULES:
        s = sum(t for key, (_, t) in calls.items() if key.startswith(module + "."))
        out[f"{module}.self_s"] = (s, "s")
        attributed += s
    out["trace.task_s"] = (task_s, "s")
    out["trace.remainder_frac"] = ((task_s - attributed) / task_s, "ratio")
    return out


def _cli_main(argv):
    """Trace one `eulerkit` command line; exits with its exit code."""
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    out = opts[opts.index("--out") + 1]
    spans = opts[opts.index("--spans") + 1]
    tracer = Tracer()
    tracer.install()
    import eulerkit.cli

    tracer.task_id = 0
    t0 = time.perf_counter()
    code = eulerkit.cli.main(cli_args)
    task_s = time.perf_counter() - t0
    tracer.uninstall()
    stats = tracer.aggregate()
    stats["task_s"] = task_s
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    tracer.write_spans(spans)
    return code


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1:]))
