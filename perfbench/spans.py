"""In-memory spans recorded around calls into movingflow's public functions.

A span has a name, a start and an end on ``time.perf_counter``, the index of
the span that was open when it began (its parent) and optional integer
attributes such as the number of points sampled.  Spans stay in memory until
the run ends.  A span's self time is its duration minus the time its direct
children cover; in this single-threaded program children never overlap, so
the self times of a span and of all its descendants add up to its duration.

``instrument`` installs wrappers on the program's entry points for the
duration of a ``with`` block and restores the originals afterwards, so an
untraced run executes the program's own functions with nothing in between.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from dataclasses import dataclass, field

STEP = "step"


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects nested spans; ``begin`` and ``end`` must pair like brackets."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def begin(self, name, **attrs):
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent=parent, attrs=attrs))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index):
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out "
                               "of order")
        self._open.pop()
        self.spans[index].end = self.clock()

    @contextlib.contextmanager
    def span(self, name, **attrs):
        index = self.begin(name, **attrs)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def wrap(self, fn, name, attrs=None):
        """``fn`` inside a span; ``attrs(args, kwargs, result)`` may return
        attributes to attach once the call has returned."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    s.attrs.update(attrs(args, kwargs, result))
                return result
        return traced


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def enclosing(spans, name):
    """For each span, the index of the nearest span called ``name`` at or
    above it, or -1.  Parents always precede their children in the list."""
    out = []
    for i, s in enumerate(spans):
        if s.name == name:
            out.append(i)
        else:
            out.append(out[s.parent] if s.parent >= 0 else -1)
    return out


class _TracedLU:
    """Stands in for a ``SuperLU`` object and times each ``solve``."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        with self._tracer.span("solver.lu_solve"):
            return self._lu.solve(rhs, trans)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _points(args, kwargs, result):
    # sample_fields(self, points, t, ...) returns one J per point
    return {"points": len(result[2])}


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


@contextlib.contextmanager
def instrument(tracer):
    """Wrap movingflow's layer entry points with spans while the block runs.

    Module-level functions are replaced in every ``movingflow`` module that
    holds them, since ``from .x import f`` copies the reference.
    """
    import scipy.sparse.linalg as spla

    from movingflow import (analysis, assembly, config, expressions, fileio,
                            maps, meshing, solver, spaces)

    def traced_splu(*args, **kwargs):
        with tracer.span("solver.factor") as s:
            lu = original_splu(*args, **kwargs)
            s.attrs["nnz"] = int(lu.nnz)
        return _TracedLU(lu, tracer)

    original_splu = spla.splu
    functions = [
        (assembly, "assemble_step", "assembly.assemble_step", None),
        (solver, "apply_boundary_conditions",
         "solver.apply_boundary_conditions", None),
        (solver, "advance", "solver.advance", None),
        (analysis, "k_norm", "analysis.k_norm", None),
        (analysis, "energy_balance_terms", "analysis.energy_balance_terms",
         None),
        (fileio, "write_vtk", "fileio.write_vtk", _bytes),
        (fileio, "write_diagnostics_csv", "fileio.write_diagnostics_csv",
         _bytes),
        (fileio, "write_checkpoint", "fileio.write_checkpoint", _bytes),
        (meshing, "generate_box", "meshing.generate_box", None),
        (meshing, "generate_tube", "meshing.generate_tube", None),
        (meshing, "refine_uniform", "meshing.refine_uniform", None),
        (config, "load_config", "config.load_config", None),
    ]
    methods = [
        (maps.SpaceTimeMap, "sample_fields", "maps.sample_fields", _points),
        (expressions.Expression, "__call__", "expressions.eval", None),
        (analysis.ErrorAccumulator, "update", "analysis.error_update", None),
        (spaces.TaylorHoodSpace, "__init__", "spaces.setup", None),
    ]
    undo = [(spla, "splu", original_splu)]
    modules = [m for n, m in list(sys.modules.items())
               if n == "movingflow" or n.startswith("movingflow.")]
    try:
        spla.splu = traced_splu
        for home, attr, name, attrs in functions:
            original = getattr(home, attr)
            traced = tracer.wrap(original, name, attrs)
            for module in modules:
                if getattr(module, attr, None) is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, traced)
        for cls, attr, name, attrs in methods:
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(original, name, attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
