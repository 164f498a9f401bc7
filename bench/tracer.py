"""Call tracing for the sweep benchmark, installed from outside the program.

``Tracer.install`` replaces each function named in ``LAYERS`` by a wrapper
that records one span per call: its name, start, end and parent span.
The wrapper is bound into every ``weylrep`` namespace that held the
original, so ``from``-imports such as ``tits.flip_set`` or
``fixer.c_word`` are traced too.  Spans are kept in flat arrays and
written out when the run ends; per-function calls, self time (span
minus wrapped children) and escaping exceptions are summed as the calls
return.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# module -> the functions traced in it; "Class.attr" names a method or property
LAYERS = {
    "rootsys": ("root_system",),
    "weyl": ("random_element", "enumerate_group", "check_first_difference",
             "check_flip_symmetry", "inversion_set", "flip_set",
             "WeylElement.word", "WeylElement.__mul__"),
    "tits": ("multiply", "invert", "cocycle", "flip_prediction",
             "check_cocycle_formula", "act_bits"),
    "affine": ("all_lattices", "omega_group", "sigma_rs",
               "check_second_difference", "check_flip_sum_even"),
    "chevalley": ("build_constants", "scalar_table", "c_word",
                  "evaluate_character"),
    "fixer": ("build_system", "solve"),
    "intmat": ("solve_mod", "smith_normal_form", "mat_inv", "hermite_row_basis"),
    "cli": ("main", "run_sweep", "load_config"),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# span arrays, in file order: typecode per field
SPAN_FIELDS = (("name", "i"), ("parent", "i"), ("start", "q"), ("end", "q"))


class Tracer:
    """Spans and per-function counters for one traced sweep."""

    def __init__(self):
        self.spans = {field: array(code) for field, code in SPAN_FIELDS}
        n = len(TRACED)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.errors = [0] * n
        self.random_perms: set = set()
        self.cocycle_pairs: set = set()
        self._stack: list[int] = []
        self._child_ns: list[int] = []

    def install(self) -> None:
        """Wrap every traced function in place, in all ``weylrep`` modules."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "weylrep" or name.startswith("weylrep.")}
        observers = {"weyl.random_element": self._observe_draw,
                     "tits.check_cocycle_formula": self._observe_pair}
        originals = set()
        for idx, qualname in enumerate(TRACED):
            modname, _, attr = qualname.partition(".")
            owner = mods[f"weylrep.{modname}"]
            if "." in attr:
                clsname, attr = attr.split(".")
                owner = getattr(owner, clsname)
            orig = owner.__dict__[attr]
            originals.add(id(orig))
            observe = observers.get(qualname)
            if isinstance(orig, property):
                setattr(owner, attr, property(self._wrap(orig.fget, idx, observe)))
                continue
            wrapped = self._wrap(orig, idx, observe)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
            if vars(owner).get(attr) is orig:  # class attribute
                setattr(owner, attr, wrapped)
        missed = [f"{name}.{key}" for name, mod in mods.items()
                  for key, val in vars(mod).items() if id(val) in originals]
        if missed:
            raise RuntimeError(f"untraced references remain: {missed}")

    def _observe_draw(self, args, result) -> None:
        self.random_perms.add(result.perm)

    def _observe_pair(self, args, result) -> None:
        u, v = args
        self.cocycle_pairs.add((u.perm, v.perm))

    def _wrap(self, fn, idx, observe):
        names, parents = self.spans["name"], self.spans["parent"]
        starts, ends = self.spans["start"], self.spans["end"]
        stack, child_ns = self._stack, self._child_ns
        calls, self_ns, errors = self.calls, self.self_ns, self.errors
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(ends)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(span)
            child_ns.append(0)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                t1 = clock()
                ends[span] = t1
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_ns[idx] += dur - child_ns.pop()
                if child_ns:
                    child_ns[-1] += dur
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def stats(self) -> dict:
        """Per-function counters plus the distinct-draw and distinct-pair counts."""
        return {
            "functions": {name: {"calls": self.calls[i],
                                 "self_s": self.self_ns[i] / 1e9,
                                 "errors": self.errors[i]}
                          for i, name in enumerate(TRACED)},
            "distinct_draws": len(self.random_perms),
            "distinct_pairs": len(self.cocycle_pairs),
        }

    def write(self, stem: str) -> None:
        """Spans to ``stem.json`` (layout) and ``stem.bin`` (the arrays in order)."""
        with open(stem + ".bin", "wb") as fh:
            for field, _ in SPAN_FIELDS:
                self.spans[field].tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": list(TRACED), "count": len(self.spans["end"]),
                       "clock": "time.perf_counter_ns",
                       "fields": [list(f) for f in SPAN_FIELDS]}, fh)


def read_spans(stem: str) -> tuple[list[str], dict]:
    """The names table and the span arrays written by ``Tracer.write``."""
    with open(stem + ".json", encoding="utf-8") as fh:
        head = json.load(fh)
    spans = {}
    with open(stem + ".bin", "rb") as fh:
        for field, code in head["fields"]:
            spans[field] = array(code)
            spans[field].fromfile(fh, head["count"])
    return head["names"], spans
