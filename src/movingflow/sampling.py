"""The point sets of a space and the map sampled on them, once per time level.

A space carries three fixed point sets: the cell quadrature points, the
boundary-facet quadrature points and the velocity nodes.  Each has one rule
per space, chosen by ``rules``: cells are exact to ``default_degree(d)``,
5 (7 points per triangle, 14 per tetrahedron), boundary facets to two
degrees more (4 Gauss points per segment, 12 per triangle).  Their tables
(quadrature rules, basis values, cell geometry) depend on the mesh alone
and are built on first use.

``map_samples(space, map_)`` returns the store through which assembly,
boundary conditions and diagnostics read the map.  For one time level it
calls ``SpaceTimeMap.sample_fields`` once on the cell points and once on the
facet points, and evaluates xi_t, the wall velocity, once at the velocity
nodes.  Of F the level keeps the map factor G = inv F^{-1} at the cell
points, where inv maps reference-simplex to reference-mesh gradients: the
basis gradients grad phi F^{-1} are lgrad G, so every gradient form of
``assembly`` is elementwise work on G and one product with a fixed table
of the space.  G is kept as d x d contiguous planes, (d, d, nc, nq).  At
the facet points the level keeps J and the pulled-back normal F^{-T} n,
which outflow tractions are given.  Next to the map sample the level
keeps its forcing at the cell points and its solved velocity there
(values and grad u F^{-1}, as component planes), each evaluated once for
every reader.  Lifetime: only the newest level is kept whole; J at the
cell points is kept for the last three levels, which the backward
differences of J need, and an older level is sampled for J alone.  The
arrays are read-only.

The tables, the map samples and the sparsity patterns of ``assembly`` hang
on the space in one cache; ``solver.run`` releases it when it returns, so a
state kept after the run does not keep them alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import default_degree, quadrature, shape_functions
from .meshing import incident_cells

__all__ = ["CellSample", "FacetSample", "FieldSample", "MapSamples",
           "map_samples", "release", "rules", "cell_data", "facet_data",
           "geometry", "node_cells", "cell_components", "point_values",
           "point_gradients"]


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


def node_cells(space):
    """An incident cell of each velocity node."""
    return cached(space, "node cells",
                  lambda: incident_cells(space.cell_nodes, space.n_nodes))


def rules(dimension):
    """The cell rule and the boundary-facet rule of every space of the
    dimension: the one place a rule is chosen."""
    degree = default_degree(dimension)
    return (quadrature(dimension, degree),
            quadrature(dimension - 1, degree + 2))


class _CellData:
    """The cell rule, the basis tables at its points and the products of
    basis tables that the gradient forms of ``assembly`` multiply by, with
    rows (k, q) for the reference derivative k at point q:

    * ``outer``      phi_i phi_j, (nq, nb^2);
    * ``convection`` phi_i d_k phi_j, (d nq, nb^2);
    * ``stiffness``  d_k phi_i d_l phi_j + d_l phi_i d_k phi_j for k < l
      and d_k phi_i d_k phi_j for k = l, rows in ``pairs`` order,
      (d(d+1)/2 nq, nb^2);
    * ``divergence`` q_p d_k phi_j, (d nq, (d+1) nb);
    * ``lgrad_t``    d_k phi_i as [i, (k, q)], (nb, d nq);
    * ``gradient_blocks`` d_k phi_i delta_ef per point, [q, (k, f), (i,
      e)], (nq, d^2, nb d): G at a point times it is grad phi F^{-1}.
    """

    def __init__(self, space):
        d = space.dimension
        self.rule = rules(d)[0]
        vbasis = shape_functions(2, d)
        self.vals = vbasis.values(self.rule.points)        # (nq, nb)
        self.lgrads = vbasis.gradients(self.rule.points)   # (nq, nb, d)
        self.pvals = shape_functions(1, d).values(self.rule.points)
        nq, nb = self.vals.shape
        lg = np.moveaxis(self.lgrads, 2, 0)                # [k, q, i]
        self.outer = np.einsum("qi,qj->qij", self.vals,
                               self.vals).reshape(nq, -1)
        self.convection = np.einsum("qi,kqj->kqij", self.vals,
                                    lg).reshape(d * nq, -1)
        self.pairs = [(k, l) for k in range(d) for l in range(k, d)]
        products = [np.einsum("qi,qj->qij", lg[k], lg[l])
                    for k, l in self.pairs]
        self.stiffness = np.stack([
            p if k == l else p + np.swapaxes(p, 1, 2)
            for (k, l), p in zip(self.pairs, products)]).reshape(-1, nb * nb)
        self.divergence = np.einsum("qp,kqj->kqpj", self.pvals,
                                    lg).reshape(d * nq, -1)
        self.lgrad_t = np.ascontiguousarray(
            np.moveaxis(lg, 2, 0).reshape(nb, d * nq))
        self.gradient_blocks = np.einsum(
            "qik,fe->qkfie", self.lgrads, np.eye(d)).reshape(nq, d * d, -1)
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


def plane_dot(a, b, out):
    """out = sum_k a[k] * b[k]: a product summed over the leading axis,
    written out on whole planes."""
    np.multiply(a[0], b[0], out=out)
    for k in range(1, len(a)):
        out += a[k] * b[k]
    return out


def cell_components(space, nodal):
    """The components of a nodal velocity (n, d) on each cell's basis,
    (d, nc, nb)."""
    return np.take(nodal.T, space.cell_nodes, axis=1)


def point_values(data, comps):
    """Values at the cell points of the cell components (d, nc, nb):
    one product with the basis table, (d, nc, nq)."""
    d, nc, nb = comps.shape
    return (comps.reshape(-1, nb) @ data.vals.T).reshape(d, nc, -1)


def point_gradients(data, G, comps):
    """grad u F^{-1} at the cell points of the cell components (d, nc, nb)
    and the map factor G, as planes [a, b] = d u_a / d x_b, (d, d, nc,
    nq): one product with ``lgrad_t``, then G on planes."""
    d, nc, nb = comps.shape
    ref = (comps.reshape(-1, nb) @ data.lgrad_t).reshape(d, nc, d, -1)
    ref = ref.transpose(0, 2, 1, 3).copy()              # planes [a, k]
    out = np.empty(G.shape)
    for a in range(d):
        for b in range(d):
            plane_dot(ref[a], G[:, b], out[a, b])
    return out


@dataclass(frozen=True)
class CellSample:
    """Map data at the cell quadrature points: J and the physical
    positions, (nc, nq, ...), and the map factor G = inv F^{-1} as planes
    G[k, e], (d, d, nc, nq), so that grad phi F^{-1} = lgrad G."""

    J: np.ndarray
    G: np.ndarray
    position: np.ndarray


@dataclass(frozen=True)
class FacetSample:
    """Map data at the boundary-facet quadrature points, (nbf, nqf, ...):
    J, the pulled-back normal ``normal`` m = F^{-T} n of the reference
    normal n, and ``conormal`` J m, with J m dS_ref = n_phys dS_phys
    (Nanson)."""

    J: np.ndarray
    normal: np.ndarray
    conormal: np.ndarray


class FieldSample:
    """A velocity field at the cell points of level t, as component planes:
    ``values``, (d, nc, nq), and ``gradients`` grad u F^{-1}, (d, d, nc,
    nq), each evaluated on first use."""

    def __init__(self, samples, field, t):
        self._samples = samples
        self.coefficients = field.coefficients
        self.t = t
        self._comps = self._values = self._gradients = None

    def _components(self):
        if self._comps is None:
            space = self._samples.space
            self._comps = cell_components(
                space, self.coefficients.reshape(-1, space.dimension))
        return self._comps

    @property
    def values(self):
        if self._values is None:
            self._values, = _readonly(point_values(
                cell_data(self._samples.space), self._components()))
        return self._values

    @property
    def gradients(self):
        if self._gradients is None:
            self._gradients, = _readonly(point_gradients(
                cell_data(self._samples.space),
                self._samples.cells(self.t).G, self._components()))
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
        """The map at the (n, nq, d) points: the flat points and cells,
        the planes of F^{-1}, (d, d, n, nq), and J, (n, nq)."""
        d = self.space.dimension
        shape = points.shape[:2]
        cells = np.repeat(cells, shape[1])
        flat = points.reshape(-1, d)
        _, Finv, J = self.map.sample_fields(flat, t, cells=cells)
        planes = np.moveaxis(Finv, 0, -1).reshape((d, d) + shape)
        return flat, cells, planes, J.reshape(shape)

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
        # G[k, e] = sum_m inv[k, m] F^{-1}[m, e], written out on planes;
        # inv is constant on a cell.  Entries of the coupling block B that
        # vanish in exact arithmetic come out as exact zeros or as roundoff
        # by the order of these sums and of the kernels' products (on tube
        # level 1, 544 exact zeros among 3459 entries below 1e-15 of the
        # largest); the saddle layout keeps both as structural entries
        inv = np.moveaxis(geometry(self.space).inv, 0, -1)[..., None]
        G = np.empty(Finv.shape)
        for k in range(len(G)):
            for e in range(len(G)):
                plane_dot(inv[k], Finv[:, e], G[k, e])
        return CellSample(self._keep_jacobian(t, J), *_readonly(
            G, position.reshape(data.points.shape)))

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
            normal = np.einsum("mdfq,fm->fqd", Finv, fd.normals)
            return FacetSample(*_readonly(J, normal, J[..., None] * normal))
        return self._get(t, "facets", build)

    def wall(self, t):
        return self._get(t, "wall", lambda: _readonly(self.map.velocity(
            self.space.velocity_nodes, t, cells=node_cells(self.space)))[0])

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
