"""Spans around the program's layers, recorded from the benchmark's side.

`Tracer.install` wraps the public functions of each layer of `enaqt`, and
the numpy and scipy entry points that `enaqt.solver` and
`enaqt.analysis` call, in every namespace where a caller looks them up.
Each call records a span: name, start, end, parent span and a few counts.
Spans stay in memory until `write`.  `layer_metrics` turns them into the
per-layer figures the benchmark reports.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

# (module, function) of every program function traced; the span is named
# "module.function"
PROGRAM_FUNCTIONS = (
    ("cli", "main"), ("cli", "render"),
    ("analysis", "max_enaqt"), ("analysis", "plane_sweep"),
    ("analysis", "infinite_chain_enaqt"), ("analysis", "optimize_dephasing"),
    ("analysis", "efficiency_curve"),
    ("solver", "efficiency_direct"), ("solver", "efficiency_gamma_grid"),
    ("model", "build_hamiltonian"), ("model", "build_liouvillian"),
)
LINALG_FUNCTIONS = (
    (scipy.linalg, "lu_factor", "linalg.lu_factor"),
    (np.linalg, "solve", "linalg.batched_solve"),
    (np.linalg, "eig", "linalg.eig"),
    (spla, "gmres", "linalg.gmres"),
    (spla, "splu", "linalg.splu"),
)
ENAQT_MODULES = ("enaqt", "enaqt.model", "enaqt.solver", "enaqt.analysis",
                 "enaqt.cli")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []        # [id, parent, name, start, end, counts]
        self._stack = []
        self._undo = []

    def _span(self, name, fn, counts_of=None, only_from_enaqt=False):
        def wrapper(*args, **kwargs):
            if only_from_enaqt and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith("enaqt"):
                return fn(*args, **kwargs)
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    name, time.perf_counter(), None, {}]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                if counts_of is None:
                    result = fn(*args, **kwargs)
                else:
                    result = counts_of(span[5], fn, args, kwargs)
            finally:
                self._stack.pop()
                span[4] = time.perf_counter()
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced function where its callers look it up."""
        modules = [sys.modules[m] for m in ENAQT_MODULES]
        for module, attr in PROGRAM_FUNCTIONS:
            fn = getattr(sys.modules["enaqt." + module], attr)
            name = f"{module}.{attr}"
            wrapper = self._span(name, fn, _COUNTERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, key, wrapper)
        solver_cls = sys.modules["enaqt.solver"].EigenbasisSteadySolver
        self._replace(solver_cls, "efficiency", self._span(
            "solver.eigenbasis_efficiency", solver_cls.efficiency,
            _count_eigenbasis))
        for owner, attr, name in LINALG_FUNCTIONS:
            self._replace(owner, attr, self._span(
                name, getattr(owner, attr), _COUNTERS.get(name),
                only_from_enaqt=True))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end",
                                  "counts"], "spans": self.spans}, fh)

    def layer_metrics(self) -> dict:
        """{metric name: value} summed over all spans of the run."""
        child_s = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, start, end, counts in self.spans:
            out[name + ".calls"] += 1
            out[name + ".ms"] += 1e3 * (end - start)
            out[name + ".self_ms"] += 1e3 * (end - start - child_s[sid])
            for key, value in counts.items():
                out[key if "." in key else f"{name}.{key}"] += value
        out["trace.spans"] = len(self.spans)
        return dict(out)


def _count_render(counts, fn, args, kwargs):
    text = fn(*args, **kwargs)
    counts["bytes"] = len(text.encode())
    return text


def _count_direct(counts, fn, args, kwargs):
    report = fn(*args, **kwargs)
    if report.method == "direct":
        counts["solver.method.direct.count"] = 1
    return report


def _count_eigenbasis(counts, fn, args, kwargs):
    result = fn(*args, **kwargs)
    counts[f"solver.method.{result[3]}.count"] = 1
    return result


def _count_grid(counts, fn, args, kwargs):
    gammas = kwargs["gammas"] if "gammas" in kwargs else args[1]
    counts["points"] = len(gammas)
    return fn(*args, **kwargs)


def _count_liouvillian(counts, fn, args, kwargs):
    sup = fn(*args, **kwargs)
    if sup.representation == "dense":
        counts["model.liouvillian_dense_bytes"] = 16 * sup.n ** 4
    return sup


def _count_gmres(counts, fn, args, kwargs):
    op = spla.aslinearoperator(args[0])
    counts["matvecs"] = 0

    def matvec(x):
        counts["matvecs"] += 1
        return op.matvec(x)

    counted = spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
    return fn(counted, *args[1:], **kwargs)


_COUNTERS = {
    "cli.render": _count_render,
    "solver.efficiency_direct": _count_direct,
    "solver.efficiency_gamma_grid": _count_grid,
    "model.build_liouvillian": _count_liouvillian,
    "linalg.gmres": _count_gmres,
}
