"""The point sets of a space and the map sampled on them, once per time level.

A space carries three fixed point sets: the cell quadrature points, the
boundary-facet quadrature points and the velocity nodes.  Each has one rule
per space, chosen by ``rules``: cells are exact to ``default_degree(d)``,
boundary facets to two degrees more.  Their tables (quadrature rules, basis
values, cell geometry) depend on the mesh alone and are built on first use.

``map_samples(space, map_)`` returns the store through which assembly,
boundary conditions and diagnostics read the map.  For one time level it
calls ``SpaceTimeMap.sample_fields`` once on the cell points and once on the
facet points, and evaluates the domain velocity once at the velocity
nodes.  Of F the level keeps the pulled-back basis gradients grad phi
F^{-1} at the cell points, the one stack that every gradient form of
``assembly`` and every velocity gradient reads.  Next to the map sample
it keeps the level's forcing at the cell points and the level's solved
velocity there (values and grad u F^{-1}), each evaluated once for every
reader.  Lifetime: only the newest level is kept whole; J at the cell
points is kept for the last three levels, which the backward differences
of J need, and an older level is sampled for J alone.  The arrays are
read-only.

The tables, the map samples and the sparsity patterns of ``assembly`` hang
on the space in one cache; ``solver.run`` releases it when it returns, so a
state kept after the run does not keep them alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import default_degree, quadrature, shape_functions

__all__ = ["CellSample", "FacetSample", "FieldSample", "MapSamples",
           "map_samples", "release", "rules", "cell_data", "facet_data",
           "geometry"]


def cached(space, key, build):
    """The value of ``key`` in the space's cache, built on first use."""
    cache = space.__dict__.setdefault("_cache", {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


def release(space):
    """Drop everything cached on the space: tables, samples, patterns."""
    space.__dict__.pop("_cache", None)


# ---------------------------------------------------------------------------
# fixed tables of the point sets
# ---------------------------------------------------------------------------


class _Geometry:
    def __init__(self, space):
        mesh = space.mesh
        verts = mesh.vertices[mesh.cells]
        edge = np.swapaxes(verts[:, 1:, :] - verts[:, :1, :], 1, 2)  # columns
        self.det = np.abs(np.linalg.det(edge))
        self.inv = np.linalg.inv(edge)           # local coords per ref coords
        n = verts.shape[1]
        self.cell_diam = np.max([np.linalg.norm(verts[:, a] - verts[:, b],
                                                axis=1)
                                 for a in range(n) for b in range(a + 1, n)],
                                axis=0)


def geometry(space):
    return cached(space, "geometry", lambda: _Geometry(space))


def rules(dimension):
    """The cell rule and the boundary-facet rule of every space of the
    dimension: the one place a rule is chosen."""
    degree = default_degree(dimension)
    return (quadrature(dimension, degree),
            quadrature(dimension - 1, degree + 2))


class _CellData:
    def __init__(self, space):
        d = space.dimension
        self.rule = rules(d)[0]
        vbasis = shape_functions(2, d)
        self.vals = vbasis.values(self.rule.points)        # (nq, nb)
        self.lgrads = vbasis.gradients(self.rule.points)   # (nq, nb, d)
        self.pvals = shape_functions(1, d).values(self.rule.points)
        self.outer = np.einsum("qi,qj->qij", self.vals,
                               self.vals).reshape(len(self.vals), -1)
        mesh = space.mesh
        verts = mesh.vertices[mesh.cells]                  # (nc, d+1, d)
        self.points = np.einsum("qv,cvd->cqd", self.rule.points, verts)
        self.weights = geometry(space).det[:, None] * self.rule.weights


def cell_data(space):
    return cached(space, "cells", lambda: _CellData(space))


class _FacetData:
    """Trace data on the boundary facets: quadrature, trace basis, geometry
    and the cell of each facet."""

    def __init__(self, space):
        mesh = space.mesh
        d = mesh.dimension
        self.rule = rules(d)[1]
        self.vals = shape_functions(2, d - 1).values(self.rule.points)
        fverts = mesh.vertices[mesh.boundary_facets]        # (nbf, d, d)
        self.points = np.einsum("qv,fvd->fqd", self.rule.points, fverts)
        self.normals = mesh.boundary_facet_normals()
        # rule weights sum to 1/(d-1)!; times the facet area per point
        self.weights = (mesh.boundary_facet_areas()[:, None] *
                        self.rule.weights * math.factorial(d - 1))
        self.nodes = space.facet_nodes                      # (nbf, nfb)
        self.cells = mesh.boundary_cells


def facet_data(space):
    return cached(space, "facets", lambda: _FacetData(space))


# ---------------------------------------------------------------------------
# per-time-level map samples
# ---------------------------------------------------------------------------


def _readonly(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class CellSample:
    """Map data at the cell quadrature points, (nc, nq, ...): J, the
    physical positions and ``ghat``, the basis gradients grad phi F^{-1},
    (nc, nq, nb, d)."""

    J: np.ndarray
    ghat: np.ndarray
    position: np.ndarray


@dataclass(frozen=True)
class FacetSample:
    """Map data at the boundary-facet quadrature points, (nbf, nqf, ...);
    ``conormal`` is J F^{-T} n."""

    J: np.ndarray
    conormal: np.ndarray


class FieldSample:
    """A velocity field at the cell points of level t: ``values``,
    (nc, nq, d), and ``gradients`` grad u F^{-1}, (nc, nq, d, d), each
    evaluated on first use."""

    def __init__(self, samples, field, t):
        self._samples = samples
        self.coefficients = field.coefficients
        self.t = t
        self._values = self._gradients = None

    def _nodal(self):
        return self.coefficients.reshape(-1, self._samples.space.dimension)

    @property
    def values(self):
        if self._values is None:
            from . import assembly
            self._values, = _readonly(assembly.velocity_at_points(
                self._samples.space, self._nodal()))
        return self._values

    @property
    def gradients(self):
        if self._gradients is None:
            ghat = self._samples.cells(self.t).ghat
            vc = self._nodal()[self._samples.space.cell_nodes]
            self._gradients, = _readonly(np.swapaxes(vc, 1, 2)[:, None] @ ghat)
        return self._gradients


class MapSamples:
    """The data of one map on one space, sampled once per time level.

    ``cells(t)`` and ``facets(t)`` each call ``sample_fields`` once per
    level; ``wall(t)`` evaluates xi_t once per level at the velocity
    nodes.  Only the newest level is kept; ``jacobian`` serves J at the
    cell points of the last ``LEVELS`` levels, and samples an older level
    for J alone, without replacing the newest.  ``forcing`` and ``field``
    evaluate a forcing and a velocity field at the cell points, kept for
    the newest level.
    """

    LEVELS = 3

    def __init__(self, space, map_):
        self.space = space
        self.map = map_
        self._t = None
        self._newest = {}
        self._jacobians = {}       # {t: J at the cell points}

    def _get(self, t, key, build):
        if t != self._t:
            self._t, self._newest = t, {}
        if key not in self._newest:
            self._newest[key] = build()
        return self._newest[key]

    def _sample(self, points, cells, t):
        d = self.space.dimension
        shape = points.shape[:2]
        cells = np.repeat(cells, shape[1])
        flat = points.reshape(-1, d)
        _, Finv, J, _ = self.map.sample_fields(flat, t, cells=cells)
        return flat, cells, Finv.reshape(shape + (d, d)), J.reshape(shape)

    def _cell_points(self, t):
        data = cell_data(self.space)
        return self._sample(data.points, np.arange(self.space.mesh.n_cells), t)

    def _keep_jacobian(self, t, J):
        levels = self._jacobians
        levels[t], = _readonly(J)
        while len(levels) > self.LEVELS:   # drop the level farthest from t
            del levels[max(levels, key=lambda s: abs(s - t))]
        return levels[t]

    def _cells(self, t):
        data = cell_data(self.space)
        flat, cells, Finv, J = self._cell_points(t)
        position = self.map.position(flat, t, cells=cells)
        # this order of the products keeps the exact zeros of the coupling
        # blocks that the order lgrads @ (inv F^{-1}) turns into roundoff;
        # blocks of cells bound the temporary.  F^{-1} is C-ordered (see
        # maps): on transposed 3x3 blocks the stacked matmul gives equal
        # results at about three times the cost
        nq, nb, d = data.lgrads.shape
        lgrads, inv = data.lgrads.reshape(-1, d), geometry(self.space).inv
        ghat = np.empty(J.shape + (nb, d))
        for i in range(0, len(ghat), 256):
            np.matmul((lgrads @ inv[i:i + 256]).reshape(-1, nq, nb, d),
                      Finv[i:i + 256], out=ghat[i:i + 256])
        return CellSample(self._keep_jacobian(t, J), *_readonly(
            ghat, position.reshape(data.points.shape)))

    def cells(self, t):
        return self._get(t, "cells", lambda: self._cells(t))

    def jacobian(self, t):
        J = self._jacobians.get(t)
        if J is None:                      # a level sampled for J alone
            J = self._keep_jacobian(t, self._cell_points(t)[3])
        return J

    def facets(self, t):
        fd = facet_data(self.space)

        def build():
            _, _, Finv, J = self._sample(fd.points, fd.cells, t)
            conormal = J[..., None] * np.einsum("fqmd,fm->fqd", Finv,
                                                fd.normals)
            return FacetSample(*_readonly(J, conormal))
        return self._get(t, "facets", build)

    def wall(self, t):
        return self._get(t, "wall", lambda: _readonly(
            self.map.velocity(self.space.velocity_nodes, t))[0])

    def forcing(self, t, forcing):
        """``forcing(x, t)`` at the physical cell points of level t,
        (nc, nq, d); evaluated once per level and forcing callable."""
        position = self.cells(t).position
        kept = self._newest.get("forcing")
        if kept is None or kept[0] is not forcing:
            values = np.asarray(forcing(position.reshape(
                -1, self.space.dimension), t), dtype=float)
            kept = self._newest["forcing"] = (
                forcing, *_readonly(values.reshape(position.shape)))
        return kept[1]

    def field(self, t, field):
        """The velocity field ``field`` at the cell points of level t.

        The sample is kept, for one field at a time, only when t is the
        newest level and the field's coefficients are read-only, as a
        solved state's are: a mutable array could change under it.
        Otherwise every call evaluates afresh.
        """
        if t != self._t or field.coefficients.flags.writeable:
            return FieldSample(self, field, t)
        kept = self._newest.get("field")
        if kept is None or kept.coefficients is not field.coefficients:
            kept = self._newest["field"] = FieldSample(self, field, t)
        return kept


def map_samples(space, map_):
    """The sample store of ``map_`` on ``space``; another map replaces it."""
    store = cached(space, "samples", lambda: MapSamples(space, map_))
    if store.map is not map_:
        store = space._cache["samples"] = MapSamples(space, map_)
    return store
