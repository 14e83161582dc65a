"""Per-layer spans and counts for solvform, installed from outside the package.

A layer is a module of the package.  :func:`install` wraps the public
functions of every layer module and a fixed list of methods.  Modules
bind each other's functions with ``from .x import f``, so a wrapper
replaces the original in every ``solvform`` module namespace that holds
it, not only in the defining module; methods are replaced on their
class.  Modules are looked up in ``sys.modules``, because an attribute
such as ``solvform.cohomology`` on the package is the function of that
name, not the module.

Each spanned call records a span (name, start, end, parent span) in
memory.  A few constructors and operators run millions of times per
operation; timing them would swamp the run, so they are only counted.
Wrappers pass arguments and results through unchanged, so report bytes
do not change when tracing is on.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = (
    "cli",
    "report",
    "spectral",
    "monodromy",
    "cohomology",
    "minimal_model",
    "formality",
    "symplectic",
    "linalg",
    "exterior",
    "scalars",
)

# Helpers called only from inner loops of their own layer: a span on each
# call would cost more than the call, and their time already falls inside
# a span of the same layer.  The function ``exterior.wedge`` only delegates
# to ``Multivector.wedge``, which is spanned under that name instead.
UNSPANNED = {
    "exterior.sort_indices",
    "exterior.merge_indices",
    "exterior.mono_str",
    "exterior.wedge",
    "linalg.zeros",
    "minimal_model.mono_name",
}

# (layer, class, method) -> span name
SPANNED_METHODS = {
    ("report", "Analysis", "unipotent_section"): "report.section.unipotent",
    ("report", "Analysis", "cohomology_section"): "report.section.cohomology",
    ("report", "Analysis", "model_section"): "report.section.model",
    ("report", "Analysis", "formality_section"): "report.section.formality",
    ("report", "Analysis", "symplectic_section"): "report.section.symplectic",
    ("minimal_model", "MinimalModel", "class_reps"): "minimal_model.class_reps",
    ("minimal_model", "MinimalModel", "d_poly"): "minimal_model.d_poly",
    ("minimal_model", "MinimalModel", "p_mul"): "minimal_model.p_mul",
    ("minimal_model", "MinimalModel", "rho_poly"): "minimal_model.rho_poly",
    ("minimal_model", "MinimalModel", "add_generator"): "minimal_model.add_generator",
    ("linalg", "EchelonAccumulator", "add"): "linalg.echelon_add",
    ("exterior", "Multivector", "wedge"): "exterior.wedge",
}

# (layer, class, method) -> count name; counted, never timed
COUNTED_METHODS = {
    ("scalars", "ScalarLC", "__init__"): "scalars.ScalarLC.new",
    ("scalars", "ScalarLC", "__mul__"): "scalars.ScalarLC.mul",
    ("exterior", "Multivector", "__init__"): "exterior.Multivector.new",
}

# calls of a function made while another one is running: name -> (context, count name)
IN_CONTEXT = {
    "exterior.top_coefficient": ("symplectic.find_symplectic", "symplectic.pairings_evaluated"),
    "exterior.wedge_power": ("symplectic.find_symplectic", "symplectic.f_powers"),
}

# functions whose distinct (spec, degree) arguments are collected
KEYED = {"monodromy.nilpotent_submodule", "cohomology.cohomology"}


class Tracer:
    """Spans, counts and distinct argument keys of one worker process."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.inclusive: Counter = Counter()  # outermost-call time per name
        self.keys: dict[str, set] = {name: set() for name in KEYED}

    def spanned(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counts, depth, stack, inclusive = self.counts, self._depth, self._stack, self.inclusive
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        context = IN_CONTEXT.get(name)
        keys = self.keys.get(name)
        is_rref = name == "linalg.rref"

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if context and depth[context[0]]:
                counts[context[1]] += 1
            if keys is not None:
                keys.add((args[0], args[1]))
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            outer = not depth[name]
            depth[name] += 1
            start = perf_counter()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[idx] = end
                depth[name] -= 1
                stack.pop()
                if outer:
                    inclusive[name] += end - start
            if is_rref and args[0]:
                counts["linalg.rref.rows"] += len(args[0])
                counts["linalg.rref.cells"] += len(args[0]) * len(args[0][0])
                counts["linalg.rref.rank"] += len(result[1])
            return result

        return functools.wraps(fn)(wrapper)

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def self_times(self) -> dict[str, float]:
        """Per layer: span time not covered by the span's children."""
        child = [0.0] * len(self.span_start)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        out = dict.fromkeys(LAYERS, 0.0)
        for idx, nid in enumerate(self.span_name):
            layer = self.names[nid].split(".", 1)[0]
            out[layer] += self.span_end[idx] - self.span_start[idx] - child[idx]
        return out

    def summary(self) -> dict:
        """Counts and times of this process, in a form that adds up over processes."""
        counts = dict(self.counts)
        for name, seen in self.keys.items():
            counts[f"{name}.distinct"] = len(seen)
        times = {f"{name}_s": t for name, t in self.inclusive.items()}
        times.update({f"{layer}.self_s": t for layer, t in self.self_times().items()})
        return {"counts": counts, "times": times}


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of an imported ``solvform``."""
    layers = {name: sys.modules[f"solvform.{name}"] for name in LAYERS}
    wrappers: dict[int, object] = {}
    for layer, module in layers.items():
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in UNSPANNED
            ):
                wrappers[id(obj)] = tracer.spanned(name, obj)
    for modname, module in list(sys.modules.items()):
        if modname != "solvform" and not modname.startswith("solvform."):
            continue
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    for table, make in ((SPANNED_METHODS, tracer.spanned), (COUNTED_METHODS, tracer.counted)):
        for (layer, cls_name, method), name in table.items():
            cls = getattr(layers[layer], cls_name)
            original = cls.__dict__[method]
            wrapper = make(name, original)
            # aliases such as ``__rmul__ = __mul__`` share the function object
            for attr, obj in list(vars(cls).items()):
                if obj is original:
                    setattr(cls, attr, wrapper)
