"""Outside-in layer tracing for one benchmark job.

Wraps chosen functions and methods of the qtoda modules from outside the
package, before the job starts, so that no file of the program changes.
Each wrapper records a span: its name, its duration and the span that was
open when it started (the caller).  Spans are aggregated in memory by
(name, parent) into calls, total time and self time, where self time is
the span's duration minus the time of the spans it opened.  Nothing is
written until `Tracer.dump` is called at the end of the job.

A target the program no longer has is not wrapped, and its name is missing
from the dump's "installed" list, so the parent can tell "absent" from
"never called".

Per-element helpers such as `ExponentPoly.__add__` (millions of calls per
laxcheck) and numpy functions are deliberately not wrapped: their wrapper
would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (span name, module, attribute path) of the per-layer metrics that are not
# module-level functions; the others (vertex.tau_table, opalg.op_inverse,
# volterra.flow_rhs, ...) are spans of STAGE_MODULES below.  A name is the
# metric name of BENCHMARK.json without the .calls / .self_s suffix.
NAMED_TARGETS = (
    ("qfield.elem_add", "qtoda.qfield", "QFieldElem.__add__"),
    ("qfield.elem_sum", "qtoda.qfield", "QFieldElem.sum"),
    ("qfield.elem_mul", "qtoda.qfield", "QFieldElem.__mul__"),
    ("qfield.elem_eq", "qtoda.qfield", "QFieldElem.__eq__"),
    ("qfield.powersum_mul", "qtoda.qfield", "QPowerSum.__mul__"),
    ("qfield.div_probe", "qtoda.qfield", "_divide_exact"),
    ("schur.schur", "qtoda.schur", "PowerSumRing.schur"),
    ("schur.skew_schur", "qtoda.schur", "PowerSumRing.skew_schur"),
    ("schur.specialize_eval", "qtoda.schur", "Specialization.evaluate"),
    ("vertex.vertex_def", "qtoda.vertex", "VertexContext.vertex_def"),
    ("vertex.vertex_hook", "qtoda.vertex", "VertexContext.vertex_hook"),
    ("opalg.op_mul", "qtoda.opalg", "DiffOp.__mul__"),
    ("opalg.op_add", "qtoda.opalg", "DiffOp.__add__"),
)

# Modules whose public module-level functions are all wrapped, named
# "<layer>.<function>".  They are coarse stages (suites, operator builds,
# integrators), called at most a few hundred thousand times per job.
STAGE_MODULES = ("schur", "vertex", "opalg", "volterra", "suites")

# Public functions of STAGE_MODULES left unwrapped: per-element helpers
# called inside the inner loops of the stages above, and the `op_mul` alias,
# whose work is already the "opalg.op_mul" span of DiffOp.__mul__.
UNWRAPPED = frozenset({
    "volterra.lax_diagonals",
    "volterra.diagonal_of",
    "opalg.monomial_pow",
    "opalg.op_mul",
    "schur.negate_p",
})


class Tracer:
    """In-memory span aggregation plus the q-field counters."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, time of child spans]
        self._edges: dict[tuple[str, str | None], list] = {}
        self.installed: set[str] = set()  # names of the spans wrapped
        self.counters: dict[str, int] = {}  # only the counters that can be read

    def wrap(self, name: str, fn, after=None):
        stack, edges, clock = self._stack, self._edges, time.perf_counter
        self.installed.add(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = edges.get((name, parent))
                if rec is None:
                    rec = edges[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if after is not None:
                after(result)
            return result

        return span

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (name, parent), (calls, total, self_s) in self._edges.items()
            ],
            "installed": sorted(self.installed),
            "counters": dict(self.counters),
        }


def _replace_everywhere(original, replacement):
    """Rebind every qtoda module global that names `original`, so that calls
    through `from .x import f` copies are traced too."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qtoda" or mod_name.startswith("qtoda.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _install_target(tracer: Tracer, name: str, module, path: str, after=None):
    """Wrap module.path; a target the program no longer has is skipped, and
    False is returned."""
    owner = module
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return False
    if isinstance(owner, type):
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(tracer.wrap(name, raw.__func__, after)))
        else:
            setattr(owner, attr, tracer.wrap(name, raw, after))
    else:
        original = getattr(owner, attr)
        _replace_everywhere(original, tracer.wrap(name, original, after))
    return True


def install() -> Tracer:
    """Wrap the layer boundaries of the imported qtoda package."""
    import importlib

    import qtoda.cli as cli
    from qtoda import qfield

    tracer = Tracer()
    counters = tracer.counters

    def count_hit(result):
        if result is not None:
            counters["div_probe_hits"] += 1

    # Term counts are read only while numerator and denominator are sized
    # containers; a representation without len() records none, and the
    # counters are then left out of the dump.
    try:
        len(qfield.QFieldElem.one().num), len(qfield.QFieldElem.one().den)
        sized = True
    except (AttributeError, TypeError):
        sized = False
    if sized:
        counters.update(max_num_terms=0, max_den_terms=0)

    def record_terms(result):
        if len(result.num) > counters["max_num_terms"]:
            counters["max_num_terms"] = len(result.num)
        if len(result.den) > counters["max_den_terms"]:
            counters["max_den_terms"] = len(result.den)

    hooks = {
        "qfield.div_probe": count_hit,
        "qfield.elem_add": record_terms if sized else None,
        "qfield.elem_mul": record_terms if sized else None,
    }
    for name, mod_name, path in NAMED_TARGETS:
        module = importlib.import_module(mod_name)
        if _install_target(tracer, name, module, path, hooks.get(name)) and name == "qfield.div_probe":
            counters["div_probe_hits"] = 0

    for layer in STAGE_MODULES:
        mod = importlib.import_module("qtoda." + layer)
        for attr, fn in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in UNWRAPPED or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            _replace_everywhere(fn, tracer.wrap(name, fn))

    for attr, fn in list(vars(cli).items()):
        if attr.startswith("cmd_") and inspect.isfunction(fn):
            setattr(cli, attr, tracer.wrap("cli." + attr, fn))
    return tracer
